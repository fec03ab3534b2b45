type config = {
  seeds : int list;
  rate : float;
  schemes : Smarq.Scheme.t list;
  scale : int;
  run : Runtime.Config.t;
}

let default_config =
  {
    seeds = [ 1; 2; 3 ];
    rate = 0.05;
    schemes = Smarq.Scheme.all @ [ Smarq.Scheme.None_static ];
    scale = 1;
    run = { Runtime.Config.default with verify = Check.Verifier.All };
  }

type run = {
  bench : string;
  seed : int;
  entry : Oracle.entry;
}

type result = {
  config : config;
  runs : run list;
}

let ok r = List.for_all (fun c -> Oracle.entry_ok c.entry) r.runs

let run_program cfg ~name program =
  List.concat_map
    (fun seed ->
      let report =
        Oracle.check ~config:cfg.run
          ~fault:{ Fault.seed; rate = cfg.rate }
          ~name ~schemes:cfg.schemes (program ())
      in
      List.map (fun entry -> { bench = name; seed; entry }) report.Oracle.entries)
    cfg.seeds

let run_benches cfg benches =
  let runs =
    List.concat_map
      (fun (b : Workload.Specfp.bench) ->
        run_program cfg ~name:b.Workload.Specfp.name (fun () ->
            Workload.Specfp.program ~scale:cfg.scale b))
      benches
  in
  { config = cfg; runs }

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

let json_line cfg r =
  let st = r.entry.Oracle.stats in
  Printf.sprintf
    "{\"bench\":\"%s\",\"scheme\":\"%s\",\"seed\":%d,\"rate\":%.4f,\
     \"outcome\":\"%s\",\"ok\":%b,\"injected_faults\":%d,\
     \"spurious_rollbacks\":%d,\"degraded_regions\":%d,\"rollbacks\":%d,\
     \"reoptimizations\":%d,\"pinned_ops\":%d,\"gave_up_regions\":%d,\
     \"total_cycles\":%d,\"verified_regions\":%d,\"rejected_regions\":%d,\
     \"static_ok\":%b,\"cross_check\":\"%s\",\"certify\":%b,\
     \"certified_pairs\":%d,\"certified_alias_faults\":%d}"
    r.bench r.entry.Oracle.scheme r.seed cfg.rate
    (match r.entry.Oracle.outcome with
    | Runtime.Driver.Completed -> "completed"
    | Runtime.Driver.Fuel_exhausted -> "fuel_exhausted"
    | Runtime.Driver.Deadline_exceeded -> "deadline_exceeded")
    (Oracle.entry_ok r.entry)
    st.Runtime.Stats.injected_faults st.Runtime.Stats.spurious_rollbacks
    st.Runtime.Stats.degraded_regions st.Runtime.Stats.rollbacks
    st.Runtime.Stats.reoptimizations st.Runtime.Stats.pinned_ops
    st.Runtime.Stats.gave_up_regions st.Runtime.Stats.total_cycles
    st.Runtime.Stats.verified_regions st.Runtime.Stats.rejected_regions
    (Oracle.entry_static_ok r.entry)
    (cross_check_name (cross_check_of_entry r.entry))
    cfg.run.Runtime.Config.certify st.Runtime.Stats.certified_pairs
    st.Runtime.Stats.certified_alias_faults

let pp_summary ppf r =
  let total = List.length r.runs in
  let failed = List.filter (fun c -> not (Oracle.entry_ok c.entry)) r.runs in
  let injected =
    List.fold_left
      (fun acc c -> acc + c.entry.Oracle.stats.Runtime.Stats.injected_faults)
      0 r.runs
  in
  let degraded =
    List.fold_left
      (fun acc c -> acc + c.entry.Oracle.stats.Runtime.Stats.degraded_regions)
      0 r.runs
  in
  let verified =
    List.fold_left
      (fun acc c -> acc + c.entry.Oracle.stats.Runtime.Stats.verified_regions)
      0 r.runs
  in
  let count x =
    List.length
      (List.filter (fun c -> cross_check_of_entry c.entry = x) r.runs)
  in
  Format.fprintf ppf
    "fault campaign: %d runs (%d seeds x %d schemes), %d faults injected, %d \
     regions degraded, %d divergences@."
    total
    (List.length r.config.seeds)
    (List.length r.config.schemes)
    injected degraded (List.length failed);
  if r.config.run.Runtime.Config.certify then begin
    let cert_pairs =
      List.fold_left
        (fun acc c ->
          acc + c.entry.Oracle.stats.Runtime.Stats.certified_pairs)
        0 r.runs
    in
    let cert_faults =
      List.fold_left
        (fun acc c ->
          acc + c.entry.Oracle.stats.Runtime.Stats.certified_alias_faults)
        0 r.runs
    in
    Format.fprintf ppf
      "alias certification: %d pairs certified, %d certified-pair faults%s@."
      cert_pairs cert_faults
      (if cert_faults = 0 then "" else " (SOUNDNESS BUG)")
  end;
  if r.config.run.Runtime.Config.verify <> Check.Verifier.Off then
    Format.fprintf ppf
      "static cross-check: %d regions verified; runs: %d both ok, %d static \
       reject only, %d dynamic diverge only, %d both flag@."
      verified (count Both_ok) (count Static_reject_only)
      (count Dynamic_diverge_only) (count Both_flag);
  List.iter
    (fun c ->
      Format.fprintf ppf "  FAILED %s seed %d: %a@." c.bench c.seed
        Oracle.pp_entry c.entry)
    failed
