type entry = {
  scheme : string;
  outcome : Runtime.Driver.outcome;
  stats : Runtime.Stats.t;
  injected : int;
  divergence : string list;
}

let entry_static_ok e = e.stats.Runtime.Stats.rejected_regions = 0
let entry_cert_ok e = e.stats.Runtime.Stats.certified_alias_faults = 0

let entry_ok e =
  e.outcome = Runtime.Driver.Completed
  && e.divergence = [] && entry_static_ok e && entry_cert_ok e

let reference program =
  let m = Vliw.Machine.create () in
  ignore (Frontend.Interp.run ~fuel:200_000_000 m program);
  m

let run_scheme ?config ?fault ~scheme program =
  let injected_before =
    match fault with Some plan -> Fault.total_injected plan | None -> 0
  in
  let r =
    Smarq.run_program ?config ?hooks:(Option.map Fault.hooks fault) ~scheme
      program
  in
  let injected =
    match fault with
    | None -> 0
    | Some plan -> Fault.total_injected plan - injected_before
  in
  (r, injected)

let divergence reference (r : Runtime.Driver.result) =
  match r.Runtime.Driver.outcome with
  | Runtime.Driver.Fuel_exhausted | Runtime.Driver.Deadline_exceeded -> []
  | Runtime.Driver.Completed ->
    if Vliw.Machine.equal_guest_state reference r.Runtime.Driver.machine
    then []
    else Vliw.Machine.diff_guest_state reference r.Runtime.Driver.machine

let pp_entry ppf e =
  let st = e.stats in
  Format.fprintf ppf
    "%-14s %-9s injected %4d, spurious %4d, degraded %2d%s%s%s"
    e.scheme
    (match e.outcome with
    | Runtime.Driver.Completed -> "completed"
    | Runtime.Driver.Fuel_exhausted -> "OUT-OF-FUEL"
    | Runtime.Driver.Deadline_exceeded -> "DEADLINE")
    e.injected st.Runtime.Stats.spurious_rollbacks
    st.Runtime.Stats.degraded_regions
    (if entry_static_ok e then ""
     else
       Printf.sprintf ", STATIC REJECT: %d/%d regions"
         st.Runtime.Stats.rejected_regions st.Runtime.Stats.verified_regions)
    (if entry_cert_ok e then ""
     else
       Printf.sprintf ", CERT FAULTS: %d on %d certified pairs"
         st.Runtime.Stats.certified_alias_faults
         st.Runtime.Stats.certified_pairs)
    (match e.divergence with
    | [] -> ", state = oracle"
    | d :: _ -> Printf.sprintf ", DIVERGED: %s" d)
