(* smarq_run: command-line driver for the SMARQ dynamic optimization
   system.

   smarq_run list                          -- benchmarks and schemes
   smarq_run run -b wupwise -s smarq64     -- run one benchmark
   smarq_run run -b mesa --fault-seed 7 --fault-rate 0.1 --oracle
                                           -- fault-injected + checked
   smarq_run compare -b mesa --scale 5     -- all schemes side by side
   smarq_run region -b ammp -s smarq64     -- show an annotated region
   smarq_run verify -j 2 --report r.json   -- soundness campaign + report
   smarq_run bench fig15 -j 2              -- regenerate a paper figure
                                              (see Experiments) *)

open Cmdliner

let scheme_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Smarq.Scheme.of_string s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Smarq.Scheme.name s))

let bench_arg =
  let doc = "Benchmark name (see `smarq_run list')." in
  Arg.(
    required
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let scheme_arg =
  let doc =
    "Alias-detection scheme: smarq64, smarq16, smarqN, alat, efficeon, none."
  in
  Arg.(
    value
    & opt scheme_conv (Smarq.Scheme.Smarq 64)
    & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let scale_arg =
  let doc = "Multiply the benchmark's iteration count." in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc)

let tcache_policy_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Smarq.Tcache.Policy.of_string s)
  in
  Arg.conv (parse, Smarq.Tcache.Policy.pp)

let tcache_policy_arg =
  let doc =
    "Translation cache eviction policy: lru, fifo, flush-all, unbounded."
  in
  Arg.(
    value
    & opt tcache_policy_conv Smarq.Tcache.Policy.Unbounded
    & info [ "tcache-policy" ] ~docv:"POLICY" ~doc)

let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg "must be positive")
    | None -> Error (`Msg (Printf.sprintf "invalid positive integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let tcache_capacity_arg =
  let doc =
    "Translation cache capacity in scheduled-region instructions \
     (default: unlimited)."
  in
  Arg.(
    value
    & opt (some positive_int_conv) None
    & info [ "tcache-capacity" ] ~docv:"INSTRS" ~doc)

let fault_seed_arg =
  let doc =
    "Enable deterministic fault injection with this PRNG seed: spurious \
     alias violations, repeat-pair violations, violation storms, and \
     translation-cache invalidations/flushes, all drawn reproducibly from \
     the seed."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let rate_conv =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | Some _ -> Error (`Msg "rate must be in [0, 1]")
    | None -> Error (`Msg (Printf.sprintf "invalid rate %S" s))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%.4f" r)

let fault_rate_arg =
  let doc =
    "Per-region-execution fault probability (default 0.05); only \
     meaningful with $(b,--fault-seed)."
  in
  Arg.(value & opt rate_conv 0.05 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let oracle_arg =
  let doc =
    "Differential oracle: also run the pure interpreter and verify the \
     optimized run converged to the same final guest state; exit non-zero \
     on divergence."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let verify_mode_conv =
  let parse s =
    match Check.Verifier.mode_of_string s with
    | Ok m -> Ok m
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    ( parse,
      fun ppf m -> Format.pp_print_string ppf (Check.Verifier.mode_name m) )

let verify_regions_arg =
  let doc =
    "Static translation validation: $(b,off) or $(b,all) (every built \
     region).  A region that fails \
     validation is never executed — its label degrades to \
     interpreter-only execution and the violated rules are counted in \
     the reject histogram; any rejection makes the command exit \
     non-zero."
  in
  Arg.(
    value
    & opt verify_mode_conv Check.Verifier.Off
    & info [ "verify-regions" ] ~docv:"MODE" ~doc)

let certify_arg =
  let doc =
    "Static alias certification: run the abstract-interpretation \
     disambiguator inside every translation.  Certified pairs carry \
     machine-checkable witnesses, skip their alias registers / ALAT \
     entries / mask bits, and promote any runtime alias fault on a \
     certified pair to a hard soundness error."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let translate_jobs_arg =
  let doc =
    "Translation job count: captured optimize requests are replayed \
     over that many worker domains ($(b,1) = the sequential fast path, \
     no pool).  Artifacts are bit-identical for every value."
  in
  Arg.(
    value
    & opt positive_int_conv 1
    & info [ "jt"; "translate-jobs" ] ~docv:"N" ~doc)

let cli_config = Experiments.cli_config

let find_bench name =
  match Workload.Specfp.find name with
  | b -> b
  | exception Not_found ->
    Printf.eprintf "unknown benchmark %S; try `smarq_run list'\n" name;
    exit 1

let bench_opt_arg =
  let doc = "Restrict the run to one benchmark (default: the whole suite)." in
  Arg.(
    value & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let benches_of = function
  | None -> Workload.Specfp.suite
  | Some name -> [ find_bench name ]

let report_arg what =
  let doc = Printf.sprintf "Write the %s report to this file." what in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

(* Write [contents] to the [--report] path, if one was given. *)
let write_report report contents =
  Option.iter
    (fun path ->
      Experiments.write_file path contents;
      Printf.printf "report written to %s\n" path)
    report

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun (b : Workload.Specfp.bench) ->
        Printf.printf "  %-10s %s\n" b.Workload.Specfp.name
          b.Workload.Specfp.description)
      Workload.Specfp.suite;
    print_endline "\nschemes:";
    List.iter
      (fun s -> Printf.printf "  %s\n" (Smarq.Scheme.name s))
      Smarq.Scheme.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and schemes")
    Term.(const run $ const ())

let run_cmd =
  let run bench scheme scale tcache_policy tcache_capacity fault_seed
      fault_rate oracle verify certify translate_jobs =
    let b = find_bench bench in
    let program = Workload.Specfp.program ~scale b in
    let fault =
      Option.map
        (fun seed -> Verify.Fault.plan ~seed ~rate:fault_rate ())
        fault_seed
    in
    let config =
      { cli_config with tcache_policy; tcache_capacity; verify; certify }
    in
    let r =
      Smarq.run_program ~config ?hooks:(Option.map Verify.Fault.hooks fault)
        ~scheme program
    in
    Printf.printf "%s under %s (scale %d, tcache %s%s%s):\n" bench
      (Smarq.Scheme.name scheme) scale
      (Smarq.Tcache.Policy.to_string tcache_policy)
      (match tcache_capacity with
      | Some c -> Printf.sprintf "/%d" c
      | None -> "")
      (match fault_seed with
      | Some seed -> Printf.sprintf ", faults seed %d rate %.3f" seed fault_rate
      | None -> "");
    Runtime.Stats.pp Format.std_formatter r.Runtime.Driver.stats;
    (match fault with
    | Some plan ->
      Format.printf "  fault kinds: %a@." Verify.Fault.pp_counters
        (Verify.Fault.counters plan)
    | None -> ());
    (match r.Runtime.Driver.outcome with
    | Runtime.Driver.Completed -> ()
    | Runtime.Driver.Fuel_exhausted ->
      print_endline "  (fuel exhausted before the program halted)"
    | Runtime.Driver.Deadline_exceeded ->
      print_endline "  (deadline exceeded before the program halted)");
    Format.print_flush ();
    let stats = r.Runtime.Driver.stats in
    if stats.Runtime.Stats.certified_alias_faults > 0 then begin
      Printf.eprintf
        "SOUNDNESS: %d alias faults hit statically certified pairs\n"
        stats.Runtime.Stats.certified_alias_faults;
      exit 1
    end;
    if stats.Runtime.Stats.rejected_regions > 0 then begin
      Printf.eprintf "verifier REJECTED %d of %d regions:\n"
        stats.Runtime.Stats.rejected_regions
        stats.Runtime.Stats.verified_regions;
      List.iter
        (fun (rule, n) -> Printf.eprintf "  %-24s %d\n" rule n)
        (Runtime.Stats.reject_histogram stats);
      exit 1
    end;
    if oracle then begin
      match r.Runtime.Driver.outcome with
      | Runtime.Driver.Fuel_exhausted | Runtime.Driver.Deadline_exceeded ->
        prerr_endline "oracle: skipped (run did not complete)";
        exit 2
      | Runtime.Driver.Completed -> (
        match Verify.Oracle.divergence (Verify.Oracle.reference program) r with
        | [] ->
          print_endline "oracle: final guest state matches the interpreter"
        | diffs ->
          prerr_endline "oracle: DIVERGENCE from the interpreter:";
          List.iter (fun d -> Printf.eprintf "  %s\n" d) diffs;
          exit 1)
    end;
    if translate_jobs > 1 then begin
      (* Replay the run's translations over the pool and hold the
         parallel path to the sequential one.  The capture run uses the
         run's config but is fault-free: faults perturb which
         re-optimizations happen, but the replay invariant is
         per-request, not per-plan. *)
      let _, cfg, requests =
        Exec.Translate.capture_program ~config ~scheme program
      in
      let seq, points, identical =
        Experiments.replay_compare ~config:cfg ~jobs:[ translate_jobs ]
          requests
      in
      let par = List.assoc translate_jobs points in
      Printf.printf
        "translate replay: %d requests, -jt 1 %.3fs, -jt %d %.3fs, \
         artifacts %s\n"
        (List.length requests) seq.Exec.Translate.wall_seconds translate_jobs
        par.Exec.Translate.wall_seconds
        (if identical then "bit-identical" else "DIVERGENT");
      if not identical then exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one benchmark under one scheme")
    Term.(
      const run $ bench_arg $ scheme_arg $ scale_arg $ tcache_policy_arg
      $ tcache_capacity_arg $ fault_seed_arg $ fault_rate_arg $ oracle_arg
      $ verify_regions_arg $ certify_arg $ translate_jobs_arg)

let jobs_arg =
  let doc =
    "Worker domains for the scheme matrix (default: all cores).  \
     Results are identical for every value."
  in
  Arg.(
    value
    & opt positive_int_conv (Exec.Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let compare_cmd =
  let run bench scale tcache_policy tcache_capacity domains =
    let b = find_bench bench in
    let schemes =
      [
        Smarq.Scheme.None_;
        Smarq.Scheme.Smarq 64;
        Smarq.Scheme.Smarq 16;
        Smarq.Scheme.Alat;
        Smarq.Scheme.Efficeon;
      ]
    in
    let config = { cli_config with tcache_policy; tcache_capacity } in
    let outcomes =
      Exec.Matrix.run_matrix ~domains
        (List.map (fun s -> Exec.Matrix.of_bench ~config ~scale ~scheme:s b)
           schemes)
    in
    let baseline = ref 0 in
    Printf.printf "%-12s %12s %9s %9s %9s %9s\n" "scheme" "cycles" "speedup"
      "rollback" "reopts" "wall(s)";
    List.iter2
      (fun s (o : Exec.Matrix.outcome) ->
        let st = o.Exec.Matrix.result.Runtime.Driver.stats in
        if s = Smarq.Scheme.None_ then
          baseline := st.Runtime.Stats.total_cycles;
        let speedup =
          if !baseline = 0 then 0.0
          else
            float_of_int !baseline
            /. float_of_int st.Runtime.Stats.total_cycles
        in
        Printf.printf "%-12s %12d %9.3f %9d %9d %9.3f\n" (Smarq.Scheme.name s)
          st.Runtime.Stats.total_cycles speedup st.Runtime.Stats.rollbacks
          st.Runtime.Stats.reoptimizations o.Exec.Matrix.wall_seconds)
      schemes outcomes
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run one benchmark under every scheme")
    Term.(
      const run $ bench_arg $ scale_arg $ tcache_policy_arg
      $ tcache_capacity_arg $ jobs_arg)

let verify_cmd =
  let seeds_arg =
    let doc =
      "Number of fault seeds per (benchmark, scheme, certify) cell."
    in
    Arg.(value & opt positive_int_conv 3 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let first_seed_arg =
    let doc = "First seed of the matrix (seeds are consecutive)." in
    Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"SEED" ~doc)
  in
  let rate_arg =
    let doc = "Fault probability per region execution." in
    Arg.(value & opt rate_conv 0.05 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let run bench scale seeds first_seed rate domains report =
    let cfg =
      {
        Verify.Campaign.seeds = List.init seeds (fun i -> first_seed + i);
        rate;
        scale;
      }
    in
    let result = Verify.Campaign.run ~domains cfg (benches_of bench) in
    let lines =
      List.map Verify.Campaign.json_line result.Verify.Campaign.runs
    in
    List.iter print_endline lines;
    write_report report (String.concat "" (List.map (fun l -> l ^ "\n") lines));
    Verify.Campaign.pp_summary Format.std_formatter result;
    Format.print_flush ();
    if not (Verify.Campaign.ok result) then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Soundness campaign: every (benchmark, scheme, certify, fault \
          plan) cell with --verify-regions=all, diffed against the \
          interpreter oracle, and every translation of the fault-free \
          cells mutation-tested; exit non-zero on any divergence, \
          rejected region, certified-pair fault or surviving mutant")
    Term.(
      const run $ bench_opt_arg $ scale_arg $ seeds_arg $ first_seed_arg
      $ rate_arg $ jobs_arg $ report_arg "JSON-lines campaign")

let region_cmd =
  let run bench scheme =
    let b = find_bench bench in
    let _, vliw, requests =
      Exec.Translate.capture_program ~config:cli_config ~scheme
        (Workload.Specfp.program b)
    in
    let request =
      match requests with
      | r :: _ -> r
      | [] ->
        Printf.eprintf "no region of %s turned hot\n" bench;
        exit 1
    in
    Format.printf "--- superblock ---@.%a@." Ir.Superblock.pp
      request.Opt.Optimizer.sb;
    let o =
      Opt.Optimizer.run_request ~issue_width:vliw.Vliw.Config.issue_width
        ~mem_ports:vliw.Vliw.Config.mem_ports
        ~latency:(Vliw.Config.latency vliw) request
    in
    Format.printf "--- optimized region (%s) ---@.%a@."
      (Smarq.Scheme.name scheme) Ir.Region.pp o.Opt.Optimizer.region;
    let st = o.Opt.Optimizer.stats.Opt.Optimizer.sched_stats in
    Printf.printf
      "schedule %d cycles; %d check / %d anti constraints; AR window %d; %d \
       loads + %d stores eliminated\n"
      st.Sched.List_sched.schedule_length st.Sched.List_sched.check_constraints
      st.Sched.List_sched.anti_constraints st.Sched.List_sched.ar_working_set
      o.Opt.Optimizer.stats.Opt.Optimizer.loads_eliminated
      o.Opt.Optimizer.stats.Opt.Optimizer.stores_eliminated
  in
  Cmd.v
    (Cmd.info "region"
       ~doc:
         "Show the annotated translation of the first region a \
          benchmark's run translates")
    Term.(const run $ bench_arg $ scheme_arg)

let serve_cmd =
  let requests_arg =
    let doc = "Total requests to issue." in
    Arg.(value & opt positive_int_conv 64 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let tenants_arg =
    let doc = "Round-robin tenant count (t0, t1, ...)." in
    Arg.(value & opt positive_int_conv 2 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let queue_limit_arg =
    let doc =
      "Admission bound: max accepted-but-unfinished requests; arrivals \
       beyond it are rejected (counted separately from errors)."
    in
    Arg.(
      value & opt positive_int_conv 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let clients_arg =
    let doc = "Closed-loop pipeline depth (ignored with $(b,--rate))." in
    Arg.(value & opt positive_int_conv 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let arrival_rate_arg =
    let doc =
      "Open-loop arrival rate in requests/second; omit for a closed loop."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "rate"; "arrival-rate" ] ~docv:"RPS" ~doc)
  in
  let private_cache_arg =
    let doc =
      "Give every request a private translation cache instead of the \
       tenant's shared per-worker shard."
    in
    Arg.(value & flag & info [ "private-cache" ] ~doc)
  in
  let tenant_budget_arg =
    let doc =
      "Per-tenant eviction budget: capacity of every tenant shard in \
       scheduled-region instructions (default: unlimited)."
    in
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "tenant-budget" ] ~docv:"INSTRS" ~doc)
  in
  let shard_policy_arg =
    let doc = "Eviction policy of the tenant shards." in
    Arg.(
      value
      & opt tcache_policy_conv Smarq.Tcache.Policy.Lru
      & info [ "shard-policy" ] ~docv:"POLICY" ~doc)
  in
  let deadline_s_arg =
    let doc =
      "Per-request wall-clock deadline in seconds, end-to-end from \
       submission; an expired budget resolves the request timed-out with \
       its partial stats."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline-s" ] ~docv:"S" ~doc)
  in
  let deadline_blocks_arg =
    let doc =
      "Per-run deadline budget in dispatched guest blocks (deterministic, \
       unlike $(b,--deadline-s))."
    in
    Arg.(
      value
      & opt (some positive_int_conv) None
      & info [ "deadline-blocks" ] ~docv:"N" ~doc)
  in
  let run requests tenants domains queue_limit clients rate private_cache
      tenant_budget shard_policy scale bench scheme fault_seed fault_rate
      deadline_s deadline_blocks report =
    let jobs =
      Array.of_list
        (List.map
           (fun b -> Exec.Matrix.of_bench ~config:cli_config ~scale ~scheme b)
           (benches_of bench))
    in
    let config =
      {
        Serve.Server.default_config with
        domains;
        queue_limit;
        shard_policy;
        tenant_budget;
      }
    in
    let mode =
      match rate with
      | Some rate -> Serve.Loadgen.Open { rate }
      | None -> Serve.Loadgen.Closed { clients }
    in
    let fault =
      Option.map
        (fun seed -> { Serve.Server.fault_seed = seed; fault_rate })
        fault_seed
    in
    let deadline =
      match (deadline_s, deadline_blocks) with
      | None, None -> None
      | wall_s, blocks -> Some { Serve.Server.wall_s; blocks }
    in
    let spec =
      {
        Serve.Loadgen.mode;
        requests;
        tenants;
        shared_cache = not private_cache;
        fault;
        deadline;
        jobs;
      }
    in
    let res = Experiments.serve ~config spec in
    let r = res.Serve.Loadgen.report in
    Printf.printf
      "served %d requests on %d domains (%d tenants, %s loop): %.2f req/s\n"
      r.Serve.Server.completed domains tenants (Experiments.mode_name mode)
      res.Serve.Loadgen.throughput_rps;
    Format.printf "%a@." Serve.Server.pp_report r;
    Format.print_flush ();
    write_report report (Experiments.serve_json ~config ~spec res ^ "\n");
    if r.Serve.Server.errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Translation-as-a-service: run a multi-tenant request stream \
          against the sharded concurrent runtime and report throughput \
          and latency percentiles; exits non-zero if any request errors \
          (admission rejections are not errors)")
    Term.(
      const run $ requests_arg $ tenants_arg $ jobs_arg $ queue_limit_arg
      $ clients_arg $ arrival_rate_arg $ private_cache_arg
      $ tenant_budget_arg $ shard_policy_arg $ scale_arg $ bench_opt_arg
      $ scheme_arg $ fault_seed_arg $ fault_rate_arg $ deadline_s_arg
      $ deadline_blocks_arg $ report_arg "JSON service")

let bench_cmd =
  let experiments_arg =
    let doc =
      Printf.sprintf "Experiments to run, in order (default: all of them): %s."
        (String.concat ", " (List.map fst Experiments.all))
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun e -> (fst e, e)) Experiments.all)) []
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let scale_arg =
    let doc =
      "Workload scale of the Figure 15 family (fig15, fig16, disamb; \
       fig18 runs at 10x).  The figures need the default."
    in
    Arg.(value & opt positive_int_conv 40 & info [ "scale" ] ~docv:"N" ~doc)
  in
  let reps_arg =
    let doc = "Replays of the captured batch per $(b,translate) point." in
    Arg.(value & opt positive_int_conv 3 & info [ "reps" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Requests per $(b,serve) load point." in
    Arg.(
      value & opt positive_int_conv 48 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let run experiments domains scale reps requests =
    Experiments.run { Experiments.domains; scale; reps; requests } experiments
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's evaluation (Section 6): run the named \
          experiments, print their tables, write bench_timings.json (and \
          BENCH_TRANSLATE.json, BENCH_SERVE.json, BENCH_DISAMB.json for \
          those experiments) in the working directory")
    Term.(
      const run $ experiments_arg $ jobs_arg $ scale_arg $ reps_arg
      $ requests_arg)

let () =
  let info =
    Cmd.info "smarq_run" ~version:"1.0"
      ~doc:"SMARQ dynamic binary optimization system"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            compare_cmd;
            region_cmd;
            verify_cmd;
            serve_cmd;
            bench_cmd;
          ]))
