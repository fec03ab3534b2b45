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
  ignore (Frontend.Interp.run ~fuel:50_000_000 m program);
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
      case "scheme parsing" test_scheme_parsing;
      qcase ~count:500 "scheme and cache-policy parsing never raise"
        scheme_string_arb prop_scheme_parse_total;
    ] )
