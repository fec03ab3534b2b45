type config = {
  seeds : int list;
  rate : float;
  scale : int;
}

let default_config = { seeds = [ 1; 2; 3 ]; rate = 0.05; scale = 1 }

let schemes =
  Smarq.Scheme.
    [
      Smarq 64;
      Smarq 16;
      Smarq_no_store_reorder 64;
      Naive_order 64;
      Alat;
      Efficeon;
      None_;
      None_static;
    ]

type cell = {
  bench : string;
  scheme : Smarq.Scheme.t;
  certify : bool;
  fault : Fault.spec option;
  tenant : int option;
}

type run = {
  cell : cell;
  entry : Oracle.entry;
  mutations : Check.Mutate.summary list;
}

type result = {
  config : config;
  runs : run list;
}

(* Replay every captured request on the machine the run used — each
   replay is bit-identical to the translation the driver installed —
   and mutation-test the artifact. *)
let mutate vliw requests =
  let issue_width = vliw.Vliw.Config.issue_width
  and mem_ports = vliw.Vliw.Config.mem_ports
  and latency = Vliw.Config.latency vliw in
  List.map
    (fun request ->
      Check.Mutate.run ~issue_width ~mem_ports ~latency
        (Opt.Optimizer.run_request ~issue_width ~mem_ports ~latency request))
    requests

(* Fault-free cells are mutation-tested whole; a shared-shard run on the
   translations a private cache never makes: superblocks an earlier
   tenant formed, with ids at or above this run's id counter. *)
let mutation_tested cell = cell.fault = None || cell.tenant <> None

let tested cell (q : Opt.Optimizer.request) =
  if cell.tenant = None then cell.fault = None
  else q.Opt.Optimizer.fresh_base <= Ir.Superblock.max_instr_id q.Opt.Optimizer.sb

let run_cell ?tcache ~reference program cell =
  let config =
    {
      Runtime.Config.default with
      verify = Check.Verifier.All;
      certify = cell.certify;
    }
  in
  let plan =
    Option.map (fun { Fault.seed; rate } -> Fault.plan ~seed ~rate ()) cell.fault
  in
  let requests = ref [] in
  let capture q = if tested cell q then requests := q :: !requests in
  let r =
    Smarq.run_program ~config ?tcache ?hooks:(Option.map Fault.hooks plan)
      ~capture ~scheme:cell.scheme program
  in
  let injected = Option.fold ~none:0 ~some:Fault.total_injected plan in
  let mutations =
    mutate (Smarq.machine_config config cell.scheme) (List.rev !requests)
  in
  let entry =
    {
      Oracle.scheme = Smarq.Scheme.name cell.scheme;
      outcome = r.Runtime.Driver.outcome;
      stats = r.Runtime.Driver.stats;
      injected;
      divergence = Oracle.divergence reference r;
    }
  in
  { cell; entry; mutations }

let run ?domains cfg benches =
  let program b = Workload.Specfp.program ~scale:cfg.scale b in
  let references =
    Exec.Pool.map ?domains (fun b -> Oracle.reference (program b)) benches
  in
  let faults =
    None
    :: List.map (fun seed -> Some { Fault.seed; rate = cfg.rate }) cfg.seeds
  in
  let benches = List.combine benches references in
  let cell (b : Workload.Specfp.bench) ?tenant scheme certify fault =
    { bench = b.Workload.Specfp.name; scheme; certify; fault; tenant }
  in
  (* a group's cells run in order on one program, a shared-shard
     group's on one translation cache *)
  let private_groups =
    List.concat_map
      (fun (b, reference) ->
        List.concat_map
          (fun certify ->
            List.concat_map
              (fun fault ->
                List.map
                  (fun scheme -> (b, reference, [ cell b scheme certify fault ]))
                  schemes)
              faults)
          [ false; true ])
      benches
  in
  let shard_groups =
    if cfg.seeds = [] then []
    else
      List.concat_map
        (fun (b, reference) ->
          List.map
            (fun scheme ->
              (b, reference, List.mapi (fun t -> cell b ~tenant:t scheme false) faults))
            schemes)
        benches
  in
  let run_group (b, reference, cells) =
    let tcache =
      match cells with
      | { tenant = Some _; _ } :: _ ->
        Some (Runtime.Driver.make_cache ~policy:Tcache.Policy.Unbounded ())
      | _ -> None
    in
    List.map (run_cell ?tcache ~reference (program b)) cells
  in
  let runs =
    List.concat (Exec.Pool.map ?domains run_group (private_groups @ shard_groups))
  in
  { config = cfg; runs }

let mutation_ok (s : Check.Mutate.summary) =
  s.Check.Mutate.baseline_pass && s.Check.Mutate.killed = s.Check.Mutate.total

let run_ok r = Oracle.entry_ok r.entry && List.for_all mutation_ok r.mutations
let ok r = List.for_all run_ok r.runs

(* How a run's static verdict relates to the dynamic oracle's — the
   campaign's translation-validation cross-check.  Agreement means
   both say sound or both flag the run; a static reject with a clean
   oracle is a (conservative) verifier false alarm; a divergence the
   verifier missed is the serious direction. *)
type cross_check =
  | Both_ok
  | Static_reject_only
  | Dynamic_diverge_only
  | Both_flag

let cross_check_of_entry (e : Oracle.entry) =
  match (Oracle.entry_static_ok e, e.Oracle.divergence = []) with
  | true, true -> Both_ok
  | false, true -> Static_reject_only
  | true, false -> Dynamic_diverge_only
  | false, false -> Both_flag

let cross_check_name = function
  | Both_ok -> "both_ok"
  | Static_reject_only -> "static_reject_only"
  | Dynamic_diverge_only -> "dynamic_diverge_only"
  | Both_flag -> "both_flag"

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let mutants r =
  sum (fun (s : Check.Mutate.summary) -> s.Check.Mutate.total) r.mutations

let mutants_killed r =
  sum (fun (s : Check.Mutate.summary) -> s.Check.Mutate.killed) r.mutations

let histogram_json pairs =
  String.concat ","
    (List.map
       (fun (rule, n) ->
         Printf.sprintf "{\"rule\":\"%s\",\"count\":%d}" rule n)
       pairs)

let json_line r =
  let st = r.entry.Oracle.stats in
  let seed, rate =
    match r.cell.fault with
    | None -> ("null", 0.0)
    | Some { Fault.seed; rate } -> (string_of_int seed, rate)
  in
  Printf.sprintf
    "{\"bench\":\"%s\",\"scheme\":\"%s\",\"seed\":%s,\"rate\":%.4f,\
     \"outcome\":\"%s\",\"ok\":%b,\"injected_faults\":%d,\
     \"spurious_rollbacks\":%d,\"degraded_regions\":%d,\"rollbacks\":%d,\
     \"reoptimizations\":%d,\"pinned_ops\":%d,\"gave_up_regions\":%d,\
     \"total_cycles\":%d,\"verified_regions\":%d,\"rejected_regions\":%d,\
     \"static_ok\":%b,\"cross_check\":\"%s\",\"certify\":%b,\
     \"certified_pairs\":%d,\"certified_alias_faults\":%d%s%s}"
    r.cell.bench r.entry.Oracle.scheme seed rate
    (match r.entry.Oracle.outcome with
    | Runtime.Driver.Completed -> "completed"
    | Runtime.Driver.Fuel_exhausted -> "fuel_exhausted"
    | Runtime.Driver.Deadline_exceeded -> "deadline_exceeded")
    (run_ok r) st.Runtime.Stats.injected_faults
    st.Runtime.Stats.spurious_rollbacks st.Runtime.Stats.degraded_regions
    st.Runtime.Stats.rollbacks st.Runtime.Stats.reoptimizations
    st.Runtime.Stats.pinned_ops st.Runtime.Stats.gave_up_regions
    st.Runtime.Stats.total_cycles st.Runtime.Stats.verified_regions
    st.Runtime.Stats.rejected_regions
    (Oracle.entry_static_ok r.entry)
    (cross_check_name (cross_check_of_entry r.entry))
    r.cell.certify st.Runtime.Stats.certified_pairs
    st.Runtime.Stats.certified_alias_faults
    (Option.fold ~none:"" ~some:(Printf.sprintf ",\"tenant\":%d") r.cell.tenant)
    (if mutation_tested r.cell then
       Printf.sprintf
         ",\"mutants\":%d,\"mutants_killed\":%d,\"reject_histogram\":[%s]"
         (mutants r) (mutants_killed r)
         (histogram_json (Runtime.Stats.reject_histogram st))
     else "")

let label r =
  Printf.sprintf "%s/%s%s %s%s" r.cell.bench r.entry.Oracle.scheme
    (if r.cell.certify then "+cert" else "")
    (match r.cell.fault with
    | None -> "fault-free"
    | Some { Fault.seed; _ } -> Printf.sprintf "seed %d" seed)
    (Option.fold ~none:"" ~some:(Printf.sprintf " (shared shard, tenant %d)")
       r.cell.tenant)

let pp_summary ppf res =
  let runs = res.runs in
  let stat f = sum (fun r -> f r.entry.Oracle.stats) runs in
  let count p = List.length (List.filter p runs) in
  let cross x = count (fun r -> cross_check_of_entry r.entry = x) in
  let summaries = List.concat_map (fun r -> r.mutations) runs in
  let outcomes =
    List.concat_map
      (fun (s : Check.Mutate.summary) -> s.Check.Mutate.outcomes)
      summaries
  in
  let classes =
    List.sort_uniq compare
      (List.map (fun (o : Check.Mutate.outcome) -> o.Check.Mutate.mutation) outcomes)
  in
  let histogram = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (rule, n) ->
          Hashtbl.replace histogram rule
            (n + Option.value (Hashtbl.find_opt histogram rule) ~default:0))
        (Runtime.Stats.reject_histogram r.entry.Oracle.stats))
    runs;
  Format.fprintf ppf
    "soundness campaign: %d cells (%d schemes x certify off/on x fault-free \
     + %d seeds at rate %.4f; %d of them shared-shard tenant runs)@."
    (List.length runs) (List.length schemes)
    (List.length res.config.seeds)
    res.config.rate
    (count (fun r -> r.cell.tenant <> None));
  Format.fprintf ppf
    "oracle: %d divergences, %d runs incomplete; %d faults injected, %d \
     regions degraded@."
    (count (fun r -> r.entry.Oracle.divergence <> []))
    (count (fun r -> r.entry.Oracle.outcome <> Runtime.Driver.Completed))
    (stat (fun st -> st.Runtime.Stats.injected_faults))
    (stat (fun st -> st.Runtime.Stats.degraded_regions));
  Format.fprintf ppf
    "static verifier: %d regions verified, %d rejected; runs: %d both ok, %d \
     static reject only, %d dynamic diverge only, %d both flag@."
    (stat (fun st -> st.Runtime.Stats.verified_regions))
    (stat (fun st -> st.Runtime.Stats.rejected_regions))
    (cross Both_ok) (cross Static_reject_only) (cross Dynamic_diverge_only)
    (cross Both_flag);
  List.iter
    (fun (rule, n) -> Format.fprintf ppf "  %-24s %d@." rule n)
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) histogram []));
  let cert_faults = stat (fun st -> st.Runtime.Stats.certified_alias_faults) in
  Format.fprintf ppf
    "alias certification: %d pairs certified, %d certified-pair faults%s@."
    (stat (fun st -> st.Runtime.Stats.certified_pairs))
    cert_faults
    (if cert_faults = 0 then "" else " (SOUNDNESS BUG)");
  Format.fprintf ppf
    "mutation harness: %d artifacts, %d baselines rejected, %d mutants, %d \
     killed, %d mutation classes@."
    (List.length summaries)
    (List.length
       (List.filter
          (fun (s : Check.Mutate.summary) -> not s.Check.Mutate.baseline_pass)
          summaries))
    (sum mutants runs) (sum mutants_killed runs) (List.length classes);
  (* per class: how many mutants each makes and how many are killed *)
  List.iter
    (fun m ->
      let of_class =
        List.filter
          (fun (o : Check.Mutate.outcome) -> o.Check.Mutate.mutation = m)
          outcomes
      in
      Format.fprintf ppf "  %-24s %d mutants, %d killed@."
        (Check.Mutate.mutation_name m)
        (List.length of_class)
        (List.length
           (List.filter (fun (o : Check.Mutate.outcome) -> o.Check.Mutate.killed) of_class)))
    classes;
  List.iter
    (fun r ->
      if not (Oracle.entry_ok r.entry) then
        Format.fprintf ppf "  FAILED %s: %a@." (label r) Oracle.pp_entry
          r.entry;
      List.iteri
        (fun i (s : Check.Mutate.summary) ->
          if not s.Check.Mutate.baseline_pass then
            Format.fprintf ppf "  BASELINE REJECTED %s translation %d@."
              (label r) i;
          List.iter
            (fun (o : Check.Mutate.outcome) ->
              if not o.Check.Mutate.killed then
                Format.fprintf ppf "  SURVIVED %s translation %d: %s@."
                  (label r) i
                  (Check.Mutate.mutation_name o.Check.Mutate.mutation))
            s.Check.Mutate.outcomes)
        r.mutations)
    runs
