(* smarq_run: command-line driver for the SMARQ dynamic optimization
   system.

   smarq_run list                          -- benchmarks and schemes
   smarq_run run -b wupwise -s smarq64     -- run one benchmark
   smarq_run run -b mesa --fault-seed 7 --fault-rate 0.1 --oracle
                                           -- fault-injected + checked
   smarq_run compare -b mesa --scale 5     -- all schemes side by side
   smarq_run region -b ammp -s smarq64     -- show an annotated region
   smarq_run fuzz --seeds 3 --rate 0.05    -- fault campaign + report
   smarq_run bench fig15 -j 2              -- regenerate a paper figure
                                              (see Experiments) *)

open Cmdliner

let scheme_conv =
  let parse s =
    try Ok (Smarq.Scheme.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
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
    try Ok (Smarq.Tcache.Policy.of_string s)
    with Invalid_argument m -> Error (`Msg m)
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
    "Static translation validation: $(b,off), $(b,sample) (a deterministic \
     subset of built regions), or $(b,all).  A region that fails \
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
    let r = fst (Verify.Oracle.run_scheme ~config ?fault ~scheme program) in
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
      | Runtime.Driver.Completed ->
        let oracle_m = Verify.Oracle.reference program in
        if Vliw.Machine.equal_guest_state oracle_m r.Runtime.Driver.machine
        then print_endline "oracle: final guest state matches the interpreter"
        else begin
          prerr_endline "oracle: DIVERGENCE from the interpreter:";
          List.iter
            (fun d -> Printf.eprintf "  %s\n" d)
            (Vliw.Machine.diff_guest_state oracle_m r.Runtime.Driver.machine);
          exit 1
        end
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

let fuzz_cmd =
  let seeds_arg =
    let doc = "Number of fault seeds per (benchmark, scheme) cell." in
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
  let run seeds first_seed rate bench scale certify report =
    let cfg =
      {
        Verify.Campaign.default_config with
        Verify.Campaign.seeds =
          List.init seeds (fun i -> first_seed + i);
        rate;
        scale;
        run = { cli_config with verify = Check.Verifier.All; certify };
      }
    in
    let result = Verify.Campaign.run_benches cfg (benches_of bench) in
    let lines =
      List.map (Verify.Campaign.json_line cfg) result.Verify.Campaign.runs
    in
    List.iter print_endline lines;
    write_report report (String.concat "" (List.map (fun l -> l ^ "\n") lines));
    Verify.Campaign.pp_summary Format.std_formatter result;
    Format.print_flush ();
    if not (Verify.Campaign.ok result) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fault-injection campaign: a (benchmark x scheme x seed) matrix \
          with every run checked against the interpreter oracle")
    Term.(
      const run $ seeds_arg $ first_seed_arg $ rate_arg $ bench_opt_arg
      $ scale_arg $ certify_arg $ report_arg "JSON-lines campaign")

(* Interpret until a block turns hot, then form its superblock — the
   artifact source for `region' and the mutation harness. *)
let hot_superblock program =
  let profiler = Frontend.Profiler.create () in
  let machine = Vliw.Machine.create () in
  let rec warm label steps =
    if steps > 5000 then ()
    else begin
      Frontend.Profiler.note_execution profiler label;
      match
        Frontend.Interp.exec_block machine (Ir.Program.block program label)
      with
      | Some next -> warm next (steps + 1)
      | None -> ()
    end
  in
  warm program.Ir.Program.entry 0;
  match
    List.find_opt
      (fun l -> Frontend.Profiler.is_hot profiler l)
      (Ir.Program.labels program)
  with
  | None -> None
  | Some seed ->
    let liveness = Frontend.Liveness.analyze program in
    let fresh_id = ref (Ir.Program.max_instr_id program + 1) in
    Some
      (Frontend.Region_form.form ~program ~liveness ~profiler ~fresh_id seed,
       fresh_id)

let verify_cmd =
  let schemes =
    [
      Smarq.Scheme.Smarq 64;
      Smarq.Scheme.Smarq 16;
      Smarq.Scheme.Smarq_no_store_reorder 64;
      Smarq.Scheme.Naive_order 64;
      Smarq.Scheme.Alat;
      Smarq.Scheme.Efficeon;
      Smarq.Scheme.None_;
    ]
  in
  let certify_schemes =
    [
      Smarq.Scheme.Smarq 64;
      Smarq.Scheme.Smarq 16;
      Smarq.Scheme.Alat;
      Smarq.Scheme.Efficeon;
    ]
  in
  let run scale domains report =
    (* phase 1: the full bench x scheme matrix under --verify-regions=all *)
    let config = { cli_config with verify = Check.Verifier.All } in
    let jobs =
      List.concat_map
        (fun (b : Workload.Specfp.bench) ->
          List.map
            (fun s ->
              Exec.Matrix.of_bench ~config ~scale ~scheme:s b)
            schemes
          @ List.map
              (fun s ->
                (* certification changes the dependence graphs the
                   verifier replays; every certified region must still
                   pass, witnesses included *)
                Exec.Matrix.job
                  ~config:{ config with certify = true }
                  ~scheme:s
                  ~label:
                    (Printf.sprintf "%s/%s+cert" b.Workload.Specfp.name
                       (Smarq.Scheme.name s))
                  (fun () -> Workload.Specfp.program ~scale b))
              certify_schemes)
        Workload.Specfp.suite
    in
    let outcomes = Exec.Matrix.run_matrix ~domains jobs in
    let verified = ref 0 and rejected = ref 0 in
    let histogram : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let run_records =
      List.map
        (fun (o : Exec.Matrix.outcome) ->
          let st = o.Exec.Matrix.result.Runtime.Driver.stats in
          verified := !verified + st.Runtime.Stats.verified_regions;
          rejected := !rejected + st.Runtime.Stats.rejected_regions;
          List.iter
            (fun (rule, n) ->
              Hashtbl.replace histogram rule
                (n + Option.value (Hashtbl.find_opt histogram rule) ~default:0))
            (Runtime.Stats.reject_histogram st);
          Printf.sprintf
            "{\"label\":\"%s\",\"verified_regions\":%d,\
             \"rejected_regions\":%d}"
            o.Exec.Matrix.job.Exec.Matrix.label
            st.Runtime.Stats.verified_regions
            st.Runtime.Stats.rejected_regions)
        outcomes
    in
    Printf.printf "bench matrix: %d runs, %d regions verified, %d rejected\n"
      (List.length outcomes) !verified !rejected;
    Hashtbl.iter
      (fun rule n -> Printf.printf "  %-24s %d\n" rule n)
      histogram;
    (* phase 2: mutation testing over one hot-region artifact per
       (benchmark, scheme) cell *)
    let latency = Vliw.Config.latency Vliw.Config.default in
    let total_mutants = ref 0 and killed_mutants = ref 0 in
    let baseline_failures = ref [] in
    let survivors = ref [] in
    let mutation_records =
      List.concat_map
        (fun (b : Workload.Specfp.bench) ->
          let program = Workload.Specfp.program ~scale b in
          match hot_superblock program with
          | None -> []
          | Some (sb, fresh_id) ->
            let cells =
              List.map
                (fun scheme ->
                  ( Smarq.Scheme.name scheme,
                    (Smarq.Scheme.to_driver scheme).Runtime.Driver.policy,
                    sb ))
                schemes
              @
              (* certified cells on an unrolled body: unrolling creates
                 the cross-iteration may-alias pairs the certifier
                 proves, so these artifacts carry witnesses and exercise
                 the witness-corruption mutants *)
              match Opt.Unroll.unroll ~factor:4 ~fresh_id sb with
              | None -> []
              | Some sb4 ->
                List.map
                  (fun scheme ->
                    ( Smarq.Scheme.name scheme ^ "+cert",
                      Sched.Policy.with_certify
                        (Smarq.Scheme.to_driver scheme).Runtime.Driver.policy,
                      sb4 ))
                  certify_schemes
            in
            List.map
              (fun (scheme_label, policy, sb) ->
                let label =
                  Printf.sprintf "%s/%s" b.Workload.Specfp.name scheme_label
                in
                let o =
                  Opt.Optimizer.optimize ~policy ~issue_width:4 ~mem_ports:2
                    ~latency ~fresh_id sb
                in
                let s =
                  Check.Mutate.run ~issue_width:4 ~mem_ports:2 ~latency o
                in
                total_mutants := !total_mutants + s.Check.Mutate.total;
                killed_mutants := !killed_mutants + s.Check.Mutate.killed;
                if not s.Check.Mutate.baseline_pass then
                  baseline_failures := label :: !baseline_failures;
                List.iter
                  (fun (oc : Check.Mutate.outcome) ->
                    if not oc.Check.Mutate.killed then
                      survivors :=
                        Printf.sprintf "%s/%s" label
                          (Check.Mutate.mutation_name oc.Check.Mutate.mutation)
                        :: !survivors)
                  s.Check.Mutate.outcomes;
                Printf.sprintf
                  "{\"label\":\"%s\",\"baseline_pass\":%b,\"mutants\":%d,\
                   \"killed\":%d}"
                  label s.Check.Mutate.baseline_pass s.Check.Mutate.total
                  s.Check.Mutate.killed)
              cells)
        Workload.Specfp.suite
    in
    Printf.printf "mutation harness: %d mutants, %d killed\n" !total_mutants
      !killed_mutants;
    List.iter
      (fun l -> Printf.printf "  SURVIVED %s\n" l)
      (List.rev !survivors);
    List.iter
      (fun l -> Printf.printf "  BASELINE REJECTED %s\n" l)
      (List.rev !baseline_failures);
    let hist_json =
      Hashtbl.fold
        (fun rule n acc ->
          Printf.sprintf "{\"rule\":\"%s\",\"count\":%d}" rule n :: acc)
        histogram []
      |> List.sort compare
    in
    write_report report
      (Printf.sprintf
         "{\"verified_regions\":%d,\"rejected_regions\":%d,\
          \"reject_histogram\":[%s],\"runs\":[%s],\"mutants\":%d,\
          \"mutants_killed\":%d,\"mutation_runs\":[%s]}\n"
         !verified !rejected
         (String.concat "," hist_json)
         (String.concat "," run_records)
         !total_mutants !killed_mutants
         (String.concat "," mutation_records));
    if
      !rejected > 0
      || !killed_mutants < !total_mutants
      || !baseline_failures <> []
    then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Translation validation: run the benchmark suite under every \
          scheme with --verify-regions=all, then mutation-test the \
          verifier on hot-region artifacts; exit non-zero on any \
          rejected region or surviving mutant")
    Term.(const run $ scale_arg $ jobs_arg $ report_arg "JSON verification")

let region_cmd =
  let run bench scheme =
    let b = find_bench bench in
    let program = Workload.Specfp.program b in
    let sb, fresh_id =
      match hot_superblock program with
      | Some x -> x
      | None ->
        Printf.eprintf "no hot block found in %s\n" bench;
        exit 1
    in
    Format.printf "--- superblock ---@.%a@." Ir.Superblock.pp sb;
    let policy = (Smarq.Scheme.to_driver scheme).Runtime.Driver.policy in
    let o =
      Opt.Optimizer.optimize ~policy ~issue_width:4 ~mem_ports:2
        ~latency:(Vliw.Config.latency Vliw.Config.default)
        ~fresh_id sb
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
       ~doc:"Show the annotated translation of a benchmark's hot region")
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
            fuzz_cmd;
            verify_cmd;
            serve_cmd;
            bench_cmd;
          ]))
