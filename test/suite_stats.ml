(* Statistics plumbing: the numbers every figure is computed from. *)

open Helpers

let run name =
  (Smarq.run_benchmark
     ~config:{ Runtime.Config.default with fuel = 100_000_000 }
     ~scheme:(Smarq.Scheme.Smarq 64) name)
    .Runtime.Driver.stats

let test_cycle_partition () =
  let st = run "wupwise" in
  Alcotest.(check int) "total = interp + region + optimize"
    st.Runtime.Stats.total_cycles
    (st.Runtime.Stats.interp_cycles + st.Runtime.Stats.region_cycles
    + st.Runtime.Stats.optimize_cycles);
  Alcotest.(check bool) "scheduling within optimization" true
    (st.Runtime.Stats.schedule_cycles <= st.Runtime.Stats.optimize_cycles)

let test_commit_accounting () =
  let st = run "wupwise" in
  Alcotest.(check int) "entries = commits + rollbacks"
    st.Runtime.Stats.region_entries
    (st.Runtime.Stats.region_commits + st.Runtime.Stats.rollbacks)

let test_derived_metrics () =
  let st = run "mesa" in
  let m = Runtime.Stats.mem_ops_per_superblock st in
  Alcotest.(check bool) "memops/superblock positive" true (m > 1.0);
  let chk, anti = Runtime.Stats.constraints_per_mem_op st in
  Alcotest.(check bool) "check density sane" true (chk > 0.0 && chk < 10.0);
  Alcotest.(check bool) "anti density sane" true (anti >= 0.0 && anti < 5.0);
  let opt, sched = Runtime.Stats.optimize_fraction st in
  Alcotest.(check bool) "fractions in (0,1)" true
    (opt > 0.0 && opt < 1.0 && sched > 0.0 && sched <= opt)

let test_empty_stats () =
  let st = Runtime.Stats.create () in
  Alcotest.(check (float 0.0001)) "no superblocks" 0.0
    (Runtime.Stats.mem_ops_per_superblock st);
  let chk, anti = Runtime.Stats.constraints_per_mem_op st in
  Alcotest.(check (float 0.0001)) "no checks" 0.0 chk;
  Alcotest.(check (float 0.0001)) "no antis" 0.0 anti;
  let opt, _ = Runtime.Stats.optimize_fraction st in
  Alcotest.(check (float 0.0001)) "no cycles" 0.0 opt

let test_working_set_add () =
  let a =
    Sched.Working_set.
      { program_order = 3; p_bit_order = 2; smarq = 1; lower_bound = 1 }
  in
  let s = Sched.Working_set.add a a in
  Alcotest.(check int) "sums program order" 6 s.Sched.Working_set.program_order;
  Alcotest.(check int) "sums smarq" 2 s.Sched.Working_set.smarq;
  Alcotest.(check bool) "zero is neutral" true
    (Sched.Working_set.add Sched.Working_set.zero a = a)

let test_pp_smoke () =
  let st = run "sixtrack" in
  let s = Format.asprintf "%a" Runtime.Stats.pp st in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions cycles" true
    (String.length s > 100 && contains s "total cycles")

let suite =
  ( "stats",
    [
      case "cycle partition" test_cycle_partition;
      case "commit accounting" test_commit_accounting;
      case "derived metrics" test_derived_metrics;
      case "empty stats are safe" test_empty_stats;
      case "working-set addition" test_working_set_add;
      case "pretty-printer smoke" test_pp_smoke;
    ] )
