(* The paper's worked examples as executable tests.

   Figure 2/4/6 live in suite_sched; here:
   - Figure 5/8: speculative load elimination and EXTENDED-DEPENDENCE 1
     (the intervening store must check the forwarding source even
     though nothing was reordered);
   - Figure 9/12: speculative store elimination and
     EXTENDED-DEPENDENCE 2 (the overwriting store must check the
     intervening loads), including the genuine-alias path: rollback and
     conservative re-optimization restore the eliminated store's
     visible effect. *)

open Helpers
module I = Ir.Instr
module C = Analysis.Constraints

(* Figure 5's shape: a load from [r0+4] forwarded to a later load of
   the same location, across stores through other bases. *)
let figure5 () =
  reset_ids ();
  let m1 = ld (f 1) (r 1) 0 in
  let m2 = ld (f 2) (r 0) 4 in
  let m3 = st (I.Imm 33) (r 0) 0 in
  let m4 = st (I.Imm 44) (r 1) 0 in
  let m5 = ld (f 4) (r 0) 4 in  (* same location as m2: eliminated *)
  (m1, m2, m3, m4, m5, [ m1; m2; m3; m4; m5 ])

let test_figure5_elimination_and_checks () =
  let _, m2, m3, m4, m5, body = figure5 () in
  let o = optimize (sb_of body) in
  Alcotest.(check int) "the load is eliminated" 1
    o.Opt.Optimizer.stats.Opt.Optimizer.loads_eliminated;
  match o.Opt.Optimizer.alloc_result with
  | None -> Alcotest.fail "queue allocation expected"
  | Some res ->
    let has_check f s =
      List.exists
        (fun (e : C.edge) -> e.C.first = f && e.C.second = s)
        (Sched.Smarq_alloc.allocation_tables res).Sched.Smarq_alloc.check_edges
    in
    (* EXTENDED-DEPENDENCE 1: the intervening may-alias store M4 must
       check the forwarding source M2 even though they are not
       reordered *)
    Alcotest.(check bool) "M4 checks M2" true (has_check m4.I.id m2.I.id);
    (* M3 is compiler-disjoint from [r0+4]: no check against M2 *)
    Alcotest.(check bool) "M3 does not check M2" false
      (has_check m3.I.id m2.I.id);
    (* the eliminated load is gone from the region *)
    Alcotest.(check bool) "M5 absent" true
      (List.for_all
         (fun (i : I.t) -> i.I.id <> m5.I.id)
         (Ir.Region.instrs o.Opt.Optimizer.region))

let test_figure5_detection_when_wrong () =
  (* r1 == r0+4 at runtime: M4 clobbers the forwarded location between
     M2 and M5's original position.  The forwarded value would be
     stale; detection + re-optimization must restore correctness. *)
  let _, _, _, _, _, body = figure5 () in
  let sb = sb_of body in
  let faults =
    run_to_commit
      ~init:[ (r 0, 1000); (r 1, 1004) ]
      sb
  in
  Alcotest.(check bool) "alias detected" true (faults >= 1)

let test_figure5_no_false_positive () =
  (* disjoint addresses: the full pipeline must commit first try, even
     though M1 may-aliases M3 statically *)
  let _, _, _, _, _, body = figure5 () in
  let faults =
    run_to_commit ~init:[ (r 0, 1000); (r 1, 2000) ] (sb_of body)
  in
  Alcotest.(check int) "no faults" 0 faults

(* Figure 9's shape: a store overwritten by a later store to the same
   location, with an intervening may-alias load. *)
let figure9 () =
  reset_ids ();
  let m1 = st (I.Imm 11) (r 4) 0 in  (* eliminated: overwritten by m4 *)
  let m2 = ld (f 1) (r 1) 0 in  (* intervening load, may alias [r4] *)
  let m3 = st (I.Imm 33) (r 2) 0 in
  let m4 = st (I.Imm 44) (r 4) 0 in  (* overwriter *)
  let m5 = ld (f 5) (r 0) 4 in
  (m1, m2, m3, m4, m5, [ m1; m2; m3; m4; m5 ])

let test_figure9_elimination_and_checks () =
  let m1, m2, m3, m4, _, body = figure9 () in
  let o = optimize (sb_of body) in
  Alcotest.(check int) "the store is eliminated" 1
    o.Opt.Optimizer.stats.Opt.Optimizer.stores_eliminated;
  Alcotest.(check bool) "M1 absent from the region" true
    (List.for_all
       (fun (i : I.t) -> i.I.id <> m1.I.id)
       (Ir.Region.instrs o.Opt.Optimizer.region));
  match o.Opt.Optimizer.alloc_result with
  | None -> Alcotest.fail "queue allocation expected"
  | Some res ->
    let has_check f s =
      List.exists
        (fun (e : C.edge) -> e.C.first = f && e.C.second = s)
        (Sched.Smarq_alloc.allocation_tables res).Sched.Smarq_alloc.check_edges
    in
    (* EXTENDED-DEPENDENCE 2: the overwriter checks the intervening
       load, not the intervening store *)
    Alcotest.(check bool) "M4 checks M2" true (has_check m4.I.id m2.I.id);
    Alcotest.(check bool) "no check against the store M3" false
      (has_check m4.I.id m3.I.id || has_check m3.I.id m4.I.id)

let test_figure9_detection_when_wrong () =
  (* r1 == r4: the intervening load reads the location the eliminated
     store wrote.  Original semantics: it must see 11.  Detection plus
     conservative re-optimization must converge to that. *)
  let _, m2, _, _, _, body = figure9 () in
  ignore m2;
  let sb = sb_of body in
  let faults =
    run_to_commit ~init:[ (r 4, 3000); (r 1, 3000); (r 0, 9000); (r 2, 5000) ]
      sb
  in
  Alcotest.(check bool) "alias detected" true (faults >= 1)

(* The paper's asymmetry: an intervening STORE aliasing the overwriter
   is harmless for the elimination (it is itself overwritten), so even
   when M3 truly aliases M4 at runtime, a correct run commits without
   faulting. *)
let test_figure9_store_between_benign () =
  let _, _, _, _, _, body = figure9 () in
  let faults =
    run_to_commit
      ~init:[ (r 4, 3000); (r 2, 3000); (r 1, 7000); (r 0, 9000) ]
      (sb_of body)
  in
  Alcotest.(check int) "benign store-store alias: no fault" 0 faults

(* The ORDERED-ALIAS-DETECTION-RULE under program-order allocation
   (Figure 4): M0 does not check M2 because the compiler proved them
   disjoint; the naive scheme still detects the genuinely reordered
   M3-vs-M2 pair. *)
let test_figure4_naive_detection () =
  reset_ids ();
  let m0 = st (I.Imm 10) (r 0) 4 in
  let m1 = ld (f 1) (r 1) 0 in
  let m2 = st (I.Imm 20) (r 0) 0 in
  let m3 = ld (f 3) (r 2) 0 in
  let body = [ m0; m1; m2; m3 ] in
  ignore m1;
  let faults =
    run_to_commit
      ~policy:(Sched.Policy.naive_order ~ar_count:64)
      ~detector:(Hw.Queue.detector (Hw.Queue.create ~size:64))
      ~init:[ (r 0, 1000); (r 1, 5000); (r 2, 1000) ]
      (sb_of body)
  in
  Alcotest.(check bool) "reordered alias detected under program order"
    true (faults >= 1)

let suite =
  ( "paper-examples",
    [
      case "figure 5/8: forwarding checks (ext dep 1)"
        test_figure5_elimination_and_checks;
      case "figure 5/8: stale forward detected" test_figure5_detection_when_wrong;
      case "figure 5/8: clean run commits" test_figure5_no_false_positive;
      case "figure 9/12: overwrite checks (ext dep 2)"
        test_figure9_elimination_and_checks;
      case "figure 9/12: hidden store detected" test_figure9_detection_when_wrong;
      case "figure 9/12: store-store stays benign"
        test_figure9_store_between_benign;
      case "figure 4: naive program-order detection" test_figure4_naive_detection;
    ] )
