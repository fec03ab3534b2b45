(* The dynamic optimization system end to end: caching, rollback
   servicing, conservative re-optimization, pinning, statistics. *)

open Helpers
module I = Ir.Instr

(* A loop with a genuine periodic alias: every 8th iteration the probe
   store hits the same address as the lane store. *)
let colliding_loop ~iters =
  let bld = Workload.Builder.create () in
  let a = r 1 and b = r 2 and idx = r 4 in
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (a, I.Imm 0x1000);
         I.Mov (b, I.Imm 0x2000);
         I.Mov (idx, I.Imm iters);
       ])
    ~next:"loop";
  let body =
    Workload.Builder.instrs bld
      [
        (* probe address = a + (idx & 7) * 64: hits a+0 every 8 iters *)
        I.Binop (I.And, r 6, I.Reg idx, I.Imm 7);
        I.Binop (I.Mul, r 6, I.Reg (r 6), I.Imm 64);
        I.Binop (I.Add, r 7, I.Reg a, I.Reg (r 6));
        I.Load { dst = f 1; addr = { I.base = b; disp = 0 }; width = 8;
                 annot = Ir.Annot.none };
        I.Store { src = I.Reg (f 1); addr = { I.base = r 7; disp = 0 };
                  width = 8; annot = Ir.Annot.none };
        I.Load { dst = f 2; addr = { I.base = a; disp = 0 }; width = 8;
                 annot = Ir.Annot.none };
        I.Fbinop (I.Fadd, f 3, I.Reg (f 2), I.Reg (f 1));
        I.Store { src = I.Reg (f 3); addr = { I.base = b; disp = 8 };
                  width = 8; annot = Ir.Annot.none };
      ]
  in
  Workload.Builder.loop_back bld "loop" body ~counter:idx ~back_to:"loop"
    ~exit_to:"end" ~iters;
  Workload.Builder.add_block bld "end" [] Ir.Block.Halt;
  Workload.Builder.program bld ~entry:"init"

let run_scheme ?(fuel = 10_000_000) scheme program =
  Smarq.run_program ~config:{ Runtime.Config.default with fuel } ~scheme program

let reference program =
  let m = Vliw.Machine.create () in
  ignore (interp_run ~fuel:50_000_000 m program);
  m

let test_rollback_then_convergence () =
  let program = colliding_loop ~iters:400 in
  let ref_m = reference program in
  let r = run_scheme (Smarq.Scheme.Smarq 64) program in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "at least one rollback" true (st.Runtime.Stats.rollbacks >= 1);
  Alcotest.(check bool) "few rollbacks (conservative reopt sticks)" true
    (st.Runtime.Stats.rollbacks <= 5);
  Alcotest.(check bool) "state correct" true
    (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)

let test_region_reuse () =
  let program = colliding_loop ~iters:400 in
  let r = run_scheme (Smarq.Scheme.Smarq 64) program in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "hot loop runs in regions" true
    (st.Runtime.Stats.region_entries > 300);
  Alcotest.(check bool) "few regions built" true
    (st.Runtime.Stats.regions_built <= 4)

let test_none_scheme_never_rolls_back () =
  let program = colliding_loop ~iters:300 in
  let r = run_scheme Smarq.Scheme.None_ program in
  Alcotest.(check int) "no rollbacks without speculation" 0
    r.Runtime.Driver.stats.Runtime.Stats.rollbacks

let test_speedup_ordering () =
  (* a load-latency-bound workload where hoisting loads above may-alias
     stores shortens the schedule substantially *)
  let program =
    Workload.Specfp.program ~scale:2 (Workload.Specfp.find "wupwise")
  in
  let smarq = run_scheme ~fuel:50_000_000 (Smarq.Scheme.Smarq 64) program in
  let none = run_scheme ~fuel:50_000_000 Smarq.Scheme.None_ program in
  Alcotest.(check bool) "speculation wins" true
    (smarq.Runtime.Driver.stats.Runtime.Stats.total_cycles
    < none.Runtime.Driver.stats.Runtime.Stats.total_cycles)

let test_alat_pinning_terminates () =
  (* a persistent ALAT false positive (the rmw pattern) must converge
     through pinning rather than rolling back forever *)
  let bld = Workload.Builder.create () in
  let regs =
    Workload.Kernels.
      { a = r 1; b = r 2; c = r 3; idx = r 4 }
  in
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (regs.Workload.Kernels.a, I.Imm 0x1000);
         I.Mov (regs.Workload.Kernels.b, I.Imm 0x2000);
         I.Mov (regs.Workload.Kernels.c, I.Imm 0x3000);
         I.Mov (regs.Workload.Kernels.idx, I.Imm 300);
       ])
    ~next:"loop";
  let body = Workload.Kernels.rmw bld regs ~width:8 ~updates:2 () in
  Workload.Builder.loop_back bld "loop" body
    ~counter:regs.Workload.Kernels.idx ~back_to:"loop" ~exit_to:"end"
    ~iters:300;
  Workload.Builder.add_block bld "end" [] Ir.Block.Halt;
  let program = Workload.Builder.program bld ~entry:"init" in
  let ref_m = reference program in
  let r = run_scheme Smarq.Scheme.Alat program in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "ALAT hits false positives" true
    (st.Runtime.Stats.rollbacks >= 1);
  Alcotest.(check bool) "bounded by pinning" true
    (st.Runtime.Stats.rollbacks <= 12);
  Alcotest.(check bool) "state correct" true
    (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine);
  (* SMARQ's anti-constraints make the same pattern check-free *)
  let r2 = run_scheme (Smarq.Scheme.Smarq 64) program in
  Alcotest.(check int) "SMARQ has no false positive here" 0
    r2.Runtime.Driver.stats.Runtime.Stats.rollbacks

(* The rmw pattern is a persistent ALAT false positive: the same
   (setter, checker) pair violates on every execution until the runtime
   escalates from known-alias ordering to pinning both operations out
   of speculation entirely. *)
let rmw_program ~iters =
  let bld = Workload.Builder.create () in
  let regs =
    Workload.Kernels.{ a = r 1; b = r 2; c = r 3; idx = r 4 }
  in
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (regs.Workload.Kernels.a, I.Imm 0x1000);
         I.Mov (regs.Workload.Kernels.b, I.Imm 0x2000);
         I.Mov (regs.Workload.Kernels.c, I.Imm 0x3000);
         I.Mov (regs.Workload.Kernels.idx, I.Imm iters);
       ])
    ~next:"loop";
  let body = Workload.Kernels.rmw bld regs ~width:8 ~updates:2 () in
  Workload.Builder.loop_back bld "loop" body
    ~counter:regs.Workload.Kernels.idx ~back_to:"loop" ~exit_to:"end"
    ~iters;
  Workload.Builder.add_block bld "end" [] Ir.Block.Halt;
  Workload.Builder.program bld ~entry:"init"

let test_same_pair_twice_pins () =
  let program = rmw_program ~iters:300 in
  let ref_m = reference program in
  let r = run_scheme Smarq.Scheme.Alat program in
  let st = r.Runtime.Driver.stats in
  (* first violation learns the pair; the second (same pair — an ALAT
     false positive survives the ordering constraint) pins both ops *)
  Alcotest.(check bool) "same pair violated twice" true
    (st.Runtime.Stats.rollbacks >= 2);
  Alcotest.(check bool) "both ops pinned" true
    (st.Runtime.Stats.pinned_ops >= 2);
  Alcotest.(check bool) "pinning converges" true
    (st.Runtime.Stats.rollbacks <= 12);
  Alcotest.(check bool) "state correct" true
    (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine);
  (* SMARQ never faults here, so it must never pin either *)
  let r2 = run_scheme (Smarq.Scheme.Smarq 64) program in
  Alcotest.(check int) "SMARQ pins nothing" 0
    r2.Runtime.Driver.stats.Runtime.Stats.pinned_ops

let test_max_reopts_gives_up () =
  let program = colliding_loop ~iters:400 in
  let ref_m = reference program in
  let r =
    Runtime.Driver.run
      ~config:
        {
          Runtime.Config.default with
          vliw = Some (Vliw.Config.with_alias_registers Vliw.Config.default 64);
          max_reopts = 0;
          fuel = 10_000_000;
        }
      ~scheme:(Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64))
      program
  in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check int) "gave-up region counted" 1
    st.Runtime.Stats.gave_up_regions;
  (* the very first violation exceeds the budget; the unspeculated
     rebuild can never fault again *)
  Alcotest.(check int) "exactly one rollback" 1 st.Runtime.Stats.rollbacks;
  Alcotest.(check bool) "still runs as a region" true
    (st.Runtime.Stats.region_entries > 300);
  Alcotest.(check bool) "state correct" true
    (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)

let test_stats_accounting () =
  let program = colliding_loop ~iters:300 in
  let r = run_scheme (Smarq.Scheme.Smarq 64) program in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check int) "cycles add up" st.Runtime.Stats.total_cycles
    (st.Runtime.Stats.interp_cycles + st.Runtime.Stats.region_cycles
    + st.Runtime.Stats.optimize_cycles);
  Alcotest.(check bool) "constraint stats populated" true
    (st.Runtime.Stats.check_constraints > 0);
  let chk, _anti = Runtime.Stats.constraints_per_mem_op st in
  Alcotest.(check bool) "constraint density sane" true (chk > 0.0 && chk < 10.0)

let test_suite_benchmarks_equivalent () =
  (* the full SPECFP-like suite at scale 1 under the flagship scheme *)
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let program = Workload.Specfp.program b in
      let ref_m = reference program in
      let r = run_scheme (Smarq.Scheme.Smarq 64) program in
      if not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
      then Alcotest.failf "%s diverged" b.Workload.Specfp.name)
    Workload.Specfp.suite

let test_scheme_parsing () =
  let name s = Result.map Smarq.Scheme.name (Smarq.Scheme.of_string s) in
  let parsed = Alcotest.(result string string) in
  Alcotest.check parsed "smarq64" (Ok "smarq64") (name "smarq64");
  Alcotest.check parsed "smarq default" (Ok "smarq64") (name "smarq");
  Alcotest.check parsed "itanium alias" (Ok "alat") (name "Itanium");
  Alcotest.check parsed "naive16" (Ok "naive16") (name "naive16");
  Alcotest.check parsed "unknown scheme" (Error "unknown scheme \"bogus\"")
    (name "bogus");
  List.iter
    (fun s ->
      match Smarq.Scheme.of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error _ -> ())
    [ "smarq0"; "smarq-4"; "naive0"; "naive-1"; "smarqx"; "" ]

(* Parsing is total: arbitrary strings (and register counts of any
   sign) give [Ok] or [Error], never an exception. *)
let prop_scheme_parse_total s =
  let total f = match f s with Ok _ | Error _ -> true in
  total Smarq.Scheme.of_string && total Smarq.Tcache.Policy.of_string

let scheme_string_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:printable (int_range 0 12);
          map2 (Printf.sprintf "%s%d")
            (oneofl [ "smarq"; "SMARQ"; "naive"; "Naive" ])
            int;
          map2 ( ^ ) (oneofl [ "smarq"; "naive"; "none"; "lru" ])
            (string_size ~gen:printable (int_range 0 4));
        ])

(* The served path: a second run on a shard an earlier run filled
   re-optimizes superblocks that carry the earlier run's ids, while its
   own id counter restarts at the program's max id + 1.  Translation
   must still name every instruction uniquely (the verifier checks
   each region it builds), and no build may stall: a stalled build
   falls back to a lower tier, so each captured translation must reach
   the tier that a replay from a counter above all of the superblock's
   ids reaches. *)
let test_shared_shard_reoptimization () =
  let program =
    Workload.Specfp.program ~scale:1 (Workload.Specfp.find "wupwise")
  in
  let oracle = Verify.Oracle.reference program in
  let scheme = Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64) in
  let config = { Runtime.Config.default with verify = Check.Verifier.All } in
  let cache = Runtime.Driver.make_cache ~policy:Tcache.Policy.Unbounded () in
  ignore (Runtime.Driver.run ~config ~tcache:cache ~scheme program);
  let requests = ref [] in
  let plan = Verify.Fault.plan ~seed:2 ~rate:0.002 () in
  let r =
    Runtime.Driver.run ~config ~tcache:cache ~hooks:(Verify.Fault.hooks plan)
      ~capture:(fun q -> requests := q :: !requests)
      ~scheme program
  in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "completed" true
    (r.Runtime.Driver.outcome = Runtime.Driver.Completed);
  Alcotest.(check (list string)) "equals the oracle" []
    (Verify.Oracle.divergence oracle r);
  Alcotest.(check bool) "re-optimized cached superblocks" true
    (st.Runtime.Stats.reoptimizations > 0);
  Alcotest.(check int) "no region rejected" 0 st.Runtime.Stats.rejected_regions;
  let replay (q : Opt.Optimizer.request) =
    let o =
      Opt.Optimizer.run_request ~issue_width:Vliw.Config.default.issue_width
        ~mem_ports:Vliw.Config.default.mem_ports ~latency:default_latency q
    in
    ( o.Opt.Optimizer.policy_used.Sched.Policy.name,
      o.Opt.Optimizer.stats.Opt.Optimizer.fell_back )
  in
  List.iter
    (fun (q : Opt.Optimizer.request) ->
      let above =
        {
          q with
          Opt.Optimizer.fresh_base =
            Ir.Superblock.max_instr_id q.Opt.Optimizer.sb + 1;
        }
      in
      Alcotest.(check (pair string bool))
        (q.Opt.Optimizer.sb.Ir.Superblock.entry ^ ": no stalled tier")
        (replay above) (replay q))
    !requests;
  (* the driver hands the optimizer its known pairs in key order; the
     optimizer must treat them as a set, so every re-optimization
     replays to the same artifact with the pairs reversed and flipped *)
  let artifact (q : Opt.Optimizer.request) =
    Exec.Translate.artifact_of
      (Opt.Optimizer.run_request ~issue_width:Vliw.Config.default.issue_width
         ~mem_ports:Vliw.Config.default.mem_ports ~latency:default_latency q)
  in
  let reopts =
    List.filter
      (fun (q : Opt.Optimizer.request) -> q.Opt.Optimizer.known_alias <> [])
      !requests
  in
  Alcotest.(check bool) "captured re-optimizations with known pairs" true
    (reopts <> []);
  List.iter
    (fun (q : Opt.Optimizer.request) ->
      let shuffled =
        {
          q with
          Opt.Optimizer.known_alias =
            List.rev_map (fun (a, b) -> (b, a)) q.Opt.Optimizer.known_alias;
        }
      in
      Alcotest.(check bool)
        (q.Opt.Optimizer.sb.Ir.Superblock.entry ^ ": pair order immaterial")
        true
        (Exec.Translate.equal_artifact (artifact q) (artifact shuffled)))
    reopts

(* One shard, successive runs: the re-optimization state of a cached
   region lives in the shard and outlives the run; degradation does
   not.  A storm run is cut by a deadline after [k] faults, and the
   next run on the shard continues the same storm: its region is not
   rebuilt, and it resumes the ladder where the cut left it.  The fault
   streak is part of that state: the faults of the cut run count
   towards the next run's watchdog, so it degrades the region [k]
   faults early.  The run after that rebuilds the degraded label. *)
let test_shared_shard_lifecycle () =
  let program = colliding_loop ~iters:300 in
  let oracle = Verify.Oracle.reference program in
  let max_reopts = 3 in
  let config =
    {
      Runtime.Config.default with
      vliw = Some (Vliw.Config.with_alias_registers Vliw.Config.default 64);
      max_reopts;
    }
  in
  let scheme = Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64) in
  let unspeculated = (Sched.Policy.none ()).Sched.Policy.name in
  List.iter
    (fun (k, rung, pinned, gave_up) ->
      let cache =
        Runtime.Driver.make_cache ~policy:Tcache.Policy.Unbounded ()
      in
      let plan = Verify.Fault.forced_storm ~seed:5 () in
      (* the initial build and one re-optimization per fault *)
      let first = ref [] in
      let cut =
        Runtime.Driver.run ~config ~tcache:cache
          ~hooks:
            {
              (Verify.Fault.hooks plan) with
              Runtime.Driver.deadline = (fun () -> List.length !first > k);
            }
          ~capture:(fun q -> first := q :: !first)
          ~scheme program
      in
      Alcotest.(check int) (rung ^ ": cut after k faults") k
        cut.Runtime.Driver.stats.Runtime.Stats.rollbacks;
      let second = ref [] in
      let r =
        Runtime.Driver.run ~config ~tcache:cache
          ~hooks:(Verify.Fault.hooks plan)
          ~capture:(fun q -> second := q :: !second)
          ~scheme program
      in
      let st = r.Runtime.Driver.stats in
      Alcotest.(check (list string)) (rung ^ ": equals the oracle") []
        (Verify.Oracle.divergence oracle r);
      Alcotest.(check int) (rung ^ ": region not rebuilt") 0
        st.Runtime.Stats.regions_built;
      Alcotest.(check int) (rung ^ ": ops newly pinned") pinned
        st.Runtime.Stats.pinned_ops;
      Alcotest.(check int) (rung ^ ": gave up") gave_up
        st.Runtime.Stats.gave_up_regions;
      Alcotest.(check int) (rung ^ ": the streak carries over")
        (Runtime.Lifecycle.watchdog ~max_reopts + 1 - k)
        st.Runtime.Stats.rollbacks;
      Alcotest.(check int) (rung ^ ": degraded") 1
        st.Runtime.Stats.degraded_regions;
      let last = List.hd !first and next = List.hd (List.rev !second) in
      if gave_up = 0 then
        Alcotest.(check string) (rung ^ ": rebuilt unspeculated") unspeculated
          next.Opt.Optimizer.policy.Sched.Policy.name
      else
        Alcotest.(check bool) (rung ^ ": known pairs kept") true
          (List.for_all
             (fun p -> List.mem p next.Opt.Optimizer.known_alias)
             last.Opt.Optimizer.known_alias);
      let after = Runtime.Driver.run ~config ~tcache:cache ~scheme program in
      let st = after.Runtime.Driver.stats in
      Alcotest.(check (list string))
        (rung ^ ": rebuilt run equals the oracle")
        [] (Verify.Oracle.divergence oracle after);
      Alcotest.(check int) (rung ^ ": the degraded label is rebuilt") 1
        st.Runtime.Stats.regions_built;
      Alcotest.(check bool) (rung ^ ": and runs as a region") true
        (st.Runtime.Stats.region_entries > 100);
      Alcotest.(check int) (rung ^ ": from a fresh ladder") 0
        st.Runtime.Stats.gave_up_regions)
    [
      (* learned the pair: its repeat pins both ops *)
      (1, "learned", 2, 1);
      (* pinned both: the repeat pins nothing new *)
      (2, "pinned", 0, 1);
      (* gave up at fault 4: every fault retries unspeculated *)
      (5, "unspeculated", 0, 0);
    ]

(* ammp's large superblocks overflow 16 alias registers, so its builds
   fall back a tier; with injected faults its regions are re-optimized,
   and those rebuilds overflow again.  Every translation the run makes
   is captured: replayed, the ones that fell back are exactly the
   initial builds [overflow_fallbacks] counts plus the re-optimizations
   [reopt_fallbacks] counts (a gave-up rebuild runs without speculation
   and never falls back). *)
let test_reopt_fallbacks_counted () =
  let program = Workload.Specfp.program ~scale:1 (Workload.Specfp.find "ammp") in
  let requests = ref [] in
  let plan = Verify.Fault.plan ~seed:1 ~rate:0.05 () in
  let r =
    Runtime.Driver.run ~config:Runtime.Config.default
      ~hooks:(Verify.Fault.hooks plan)
      ~capture:(fun q -> requests := q :: !requests)
      ~scheme:(Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 16))
      program
  in
  let st = r.Runtime.Driver.stats in
  let fell_back =
    List.length
      (List.filter
         (fun (q : Opt.Optimizer.request) ->
           (Opt.Optimizer.run_request ~issue_width:Vliw.Config.default.issue_width
              ~mem_ports:Vliw.Config.default.mem_ports ~latency:default_latency q)
             .Opt.Optimizer.stats.Opt.Optimizer.fell_back)
         !requests)
  in
  Alcotest.(check bool) "initial builds fell back" true
    (st.Runtime.Stats.overflow_fallbacks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d re-optimizations, some falling back"
       st.Runtime.Stats.reoptimizations)
    true
    (st.Runtime.Stats.reopt_fallbacks > 0);
  Alcotest.(check int) "every fallback counted once" fell_back
    (st.Runtime.Stats.overflow_fallbacks + st.Runtime.Stats.reopt_fallbacks)

let suite =
  ( "runtime",
    [
      case "rollback then convergence" test_rollback_then_convergence;
      case "regions are reused" test_region_reuse;
      case "no speculation, no rollbacks" test_none_scheme_never_rolls_back;
      case "speculation beats baseline" test_speedup_ordering;
      case "ALAT false positives converge by pinning"
        test_alat_pinning_terminates;
      case "re-opt ladder: same pair twice pins both ops"
        test_same_pair_twice_pins;
      case "re-opt ladder: exceeding max_reopts gives up speculation"
        test_max_reopts_gives_up;
      case "statistics accounting" test_stats_accounting;
      case "benchmark suite equivalence (smarq64)"
        test_suite_benchmarks_equivalent;
      case "shared-shard re-optimization keeps ids unique"
        test_shared_shard_reoptimization;
      case "re-optimization fallbacks counted" test_reopt_fallbacks_counted;
      case "scheme parsing" test_scheme_parsing;
      qcase ~count:500 "scheme and cache-policy parsing never raise"
        scheme_string_arb prop_scheme_parse_total;
      case "shared shard keeps the ladder, not degradation"
        test_shared_shard_lifecycle;
    ] )
