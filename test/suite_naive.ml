(* The executable program-order allocation baseline of Section 2.4:
   annotation shape, greedy rotation, detection soundness, and the
   comparisons against SMARQ the ablation experiment relies on. *)

open Helpers
module I = Ir.Instr

let build_naive ?(ar_count = 64) body =
  let sb = sb_of body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let fresh_id = ref (Ir.Superblock.max_instr_id sb + 100) in
  scheduled
    (Sched.List_sched.schedule ~sb ~deps
       ~policy:(Sched.Policy.naive_order ~ar_count)
       ~issue_width:4 ~mem_ports:2 ~latency:default_latency ~fresh_id ())

let test_every_memop_annotated () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let s1 = st (I.Imm 1) (r 2) 0 in
  let l2 = ld (f 2) (r 3) 0 in
  let outcome = build_naive [ l1; s1; l2 ] in
  let instrs = Ir.Region.instrs outcome.Sched.List_sched.region in
  List.iter
    (fun (i : I.t) ->
      if I.is_memory i then
        match I.annot i with
        | Ir.Annot.Queue { p; c; _ } ->
          Alcotest.(check bool) "P set" true p;
          Alcotest.(check bool) "C set" true c
        | _ -> Alcotest.fail "memory op without queue annotation")
    instrs

let test_orders_follow_program_order () =
  reset_ids ();
  (* the store issues before the hoistable loads under scheduling, but
     its register order (0-based program position among memops) must
     still reflect the original order *)
  let s1 = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let outcome = build_naive [ s1; l1 ] in
  let instrs = Ir.Region.instrs outcome.Sched.List_sched.region in
  let offset_of id =
    List.find_map
      (fun (i : I.t) ->
        if i.I.id = id then
          match I.annot i with
          | Ir.Annot.Queue { offset; _ } -> Some offset
          | _ -> None
        else None)
      instrs
  in
  (* no rotation can happen before both issue, so offsets = orders *)
  Alcotest.(check (option int)) "store is memop 0" (Some 0) (offset_of s1.I.id);
  Alcotest.(check (option int)) "load is memop 1" (Some 1) (offset_of l1.I.id)

let test_naive_detects_reordered_alias () =
  reset_ids ();
  let s1 = st (I.Imm 7) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let use = fadd (f 2) (f 1) (f 1) in
  let sb = sb_of [ s1; l1; use ] in
  (* aliased at runtime: the naive queue must catch it like SMARQ *)
  let faults =
    run_to_commit
      ~policy:(Sched.Policy.naive_order ~ar_count:64)
      ~detector:(Hw.Queue.detector (Hw.Queue.create ~size:64))
      ~init:[ (r 1, 500); (r 2, 500) ]
      sb
  in
  Alcotest.(check bool) "alias detected then converged" true (faults >= 1)

let test_naive_window_grows_with_reordering () =
  reset_ids ();
  (* interleaved cross-base pairs: SMARQ's constraint-order allocation
     needs a smaller window than program-order allocation *)
  let body =
    List.concat
      (List.init 10 (fun k ->
           [
             st (I.Imm k) (r 1) (k * 8);
             ld (f (k mod 8)) (r 2) (k * 8);
           ]))
  in
  let naive = build_naive body in
  let sb = sb_of body in
  let smarq = optimize sb in
  let nw = naive.Sched.List_sched.region.Ir.Region.ar_window in
  let sw = smarq.Opt.Optimizer.region.Ir.Region.ar_window in
  Alcotest.(check bool)
    (Printf.sprintf "smarq window (%d) <= naive window (%d)" sw nw)
    true (sw <= nw)

let test_naive_overflow_falls_back () =
  reset_ids ();
  (* more memory operations in flight than registers: the optimizer
     must deliver a working (non-speculative) region *)
  let body =
    List.concat
      (List.init 8 (fun k ->
           [ st (I.Imm k) (r 1) (k * 8); ld (f (k mod 8)) (r 2) (k * 8) ]))
  in
  let sb = sb_of body in
  let fresh_id = ref (Ir.Superblock.max_instr_id sb + 100) in
  let o =
    Opt.Optimizer.optimize
      ~policy:(Sched.Policy.naive_order ~ar_count:3)
      ~issue_width:4 ~mem_ports:2 ~latency:default_latency ~fresh_id sb
  in
  Alcotest.(check bool) "window fits the tiny file" true
    (o.Opt.Optimizer.region.Ir.Region.ar_window <= 3)

let test_naive_never_eliminates () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let l2 = ld (f 2) (r 1) 0 in
  let x = st (I.Imm 1) (r 2) 0 in
  let z = st (I.Imm 2) (r 2) 0 in
  let body = [ l1; l2; x; z ] in
  let alias = Analysis.May_alias.analyze ~body () in
  let fresh_id = ref 100 in
  let res =
    Opt.Elim.run
      ~policy:(Sched.Policy.naive_order ~ar_count:64)
      ~alias ~body ~fresh_id
  in
  Alcotest.(check int) "no loads eliminated" 0 res.Opt.Elim.loads_eliminated;
  Alcotest.(check int) "no stores eliminated" 0 res.Opt.Elim.stores_eliminated

let test_naive_more_checks_than_smarq () =
  let b = Workload.Specfp.find "apsi" in
  let program = Workload.Specfp.program b in
  let checks scheme =
    (Smarq.run_program
       ~config:{ Runtime.Config.default with fuel = 100_000_000 }
       ~scheme program)
      .Runtime.Driver.stats.Runtime.Stats.alias_checks
  in
  let s = checks (Smarq.Scheme.Smarq 64) in
  let n = checks (Smarq.Scheme.Naive_order 64) in
  Alcotest.(check bool)
    (Printf.sprintf "naive (%d) performs more checks than smarq (%d)" n s)
    true (n > s)

let test_naive_equivalent_on_suite () =
  List.iter
    (fun name ->
      let b = Workload.Specfp.find name in
      let program = Workload.Specfp.program b in
      let ref_m = Vliw.Machine.create () in
      ignore (Frontend.Interp.run ~fuel:50_000_000 ref_m program);
      let r =
        Smarq.run_program
          ~config:{ Runtime.Config.default with fuel = 100_000_000 }
          ~scheme:(Smarq.Scheme.Naive_order 64) program
      in
      if not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
      then Alcotest.failf "%s diverged under naive64" name)
    [ "wupwise"; "mesa"; "art"; "ammp" ]

let suite =
  ( "naive-order",
    [
      case "every memory op gets P and C" test_every_memop_annotated;
      case "register orders follow program order"
        test_orders_follow_program_order;
      case "reordered aliases are detected" test_naive_detects_reordered_alias;
      case "SMARQ window never larger" test_naive_window_grows_with_reordering;
      case "overflow falls back cleanly" test_naive_overflow_falls_back;
      case "eliminations are disabled" test_naive_never_eliminates;
      case "more checks than SMARQ (energy)" test_naive_more_checks_than_smarq;
      case "suite equivalence under naive64" test_naive_equivalent_on_suite;
    ] )
