(* Compile-time analyses: may-alias verdicts, the dependence graph with
   extended dependences, constraint validation, cycle detection. *)

open Helpers
module I = Ir.Instr
module MA = Analysis.May_alias
module DG = Analysis.Depgraph
module C = Analysis.Constraints
module CD = Analysis.Cycle_detect

let check_verdict = Alcotest.of_pp MA.pp_verdict

let test_same_base_disjoint () =
  reset_ids ();
  let a = st (I.Imm 1) (r 1) 0 in
  let b = ld (f 0) (r 1) 4 in
  let alias = MA.analyze ~body:[ a; b ] () in
  Alcotest.check check_verdict "same base, disjoint" MA.No_alias
    (MA.verdict alias a b)

let test_same_base_overlap () =
  reset_ids ();
  let a = st ~width:8 (I.Imm 1) (r 1) 0 in
  let b = ld ~width:4 (f 0) (r 1) 4 in
  let alias = MA.analyze ~body:[ a; b ] () in
  Alcotest.check check_verdict "same base, overlapping" MA.Must_alias
    (MA.verdict alias a b)

let test_different_base () =
  reset_ids ();
  let a = st (I.Imm 1) (r 1) 0 in
  let b = ld (f 0) (r 2) 0 in
  let alias = MA.analyze ~body:[ a; b ] () in
  Alcotest.check check_verdict "different bases are unknown" MA.May_alias
    (MA.verdict alias a b)

let test_base_redefinition () =
  reset_ids ();
  let a = ld (f 0) (r 1) 0 in
  let redef = mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 8)) in
  let b = ld (f 1) (r 1) 0 in
  let s = st (I.Imm 0) (r 9) 0 in
  ignore s;
  let alias = MA.analyze ~body:[ a; redef; b ] () in
  Alcotest.check check_verdict "redefined base defeats reasoning" MA.May_alias
    (MA.verdict alias a b)

let test_self_defining_load () =
  reset_ids ();
  (* pointer chase: ld r1 = [r1+8]; the def at the first op means the
     two uses of r1 denote different values *)
  let a =
    mk (I.Load { dst = r 1; addr = { I.base = r 1; disp = 8 }; width = 4;
                 annot = Ir.Annot.none })
  in
  let b = ld (f 0) (r 1) 8 in
  let alias = MA.analyze ~body:[ a; b ] () in
  Alcotest.check check_verdict "self-defining load" MA.May_alias
    (MA.verdict alias a b)

let test_known_alias_override () =
  reset_ids ();
  let a = st (I.Imm 1) (r 1) 0 in
  let b = ld (f 0) (r 2) 0 in
  let alias = MA.analyze ~known_alias:[ (b.I.id, a.I.id) ] ~body:[ a; b ] () in
  Alcotest.check check_verdict "known pair forced to must" MA.Must_alias
    (MA.verdict alias a b);
  let alias2 = MA.analyze ~body:[ a; b ] () in
  MA.add_known_alias alias2 a.I.id b.I.id;
  Alcotest.check check_verdict "added at runtime" MA.Must_alias
    (MA.verdict alias2 b a)

let test_dependence_rule () =
  reset_ids ();
  (* DEPENDENCE: ordered pair, may access same memory, >= 1 store *)
  let l1 = ld (f 0) (r 1) 0 in
  let l2 = ld (f 1) (r 2) 0 in
  let s1 = st (I.Imm 0) (r 3) 0 in
  let body = [ l1; l2; s1 ] in
  let alias = MA.analyze ~body () in
  let dg = DG.build ~body ~alias () in
  let pairs = List.map (fun (e : DG.edge) -> (e.DG.first, e.second)) (DG.edges dg) in
  (* load-load pair carries no dependence *)
  Alcotest.(check bool) "no load-load dep" false
    (List.mem (l1.I.id, l2.I.id) pairs);
  Alcotest.(check bool) "load-store dep" true (List.mem (l1.I.id, s1.I.id) pairs);
  Alcotest.(check bool) "load-store dep 2" true
    (List.mem (l2.I.id, s1.I.id) pairs)

let test_dependence_strengths () =
  reset_ids ();
  let s1 = st ~width:8 (I.Imm 0) (r 1) 0 in
  let l_overlap = ld ~width:4 (f 0) (r 1) 4 in
  let l_far = ld (f 1) (r 1) 32 in
  let l_other = ld (f 2) (r 2) 0 in
  let body = [ s1; l_overlap; l_far; l_other ] in
  let alias = MA.analyze ~body () in
  let dg = DG.build ~body ~alias () in
  let strength a b =
    List.find_map
      (fun (e : DG.edge) ->
        if e.DG.first = a && e.second = b then Some e.strength else None)
      (DG.edges dg)
  in
  Alcotest.(check bool) "must-alias is hard" true
    (strength s1.I.id l_overlap.I.id = Some DG.Hard);
  Alcotest.(check bool) "disjoint has no edge" true
    (strength s1.I.id l_far.I.id = None);
  Alcotest.(check bool) "cross-base is speculative" true
    (strength s1.I.id l_other.I.id = Some DG.Speculative)

let test_extended_dep_load_forward () =
  reset_ids ();
  (* X (store) forwards to Z (load, eliminated); intervening store Y
     may-aliasing X yields the backward edge Y ->dep X *)
  let x = st (I.Imm 5) (r 1) 0 in
  let y = st (I.Imm 6) (r 2) 0 in
  let y_load = ld (f 3) (r 2) 8 in
  let body = [ x; y; y_load ] in
  let alias = MA.analyze ~body () in
  let elim =
    ( DG.Load_forwarded { source = x.I.id; eliminated = 999 },
      [ y; y_load ] )
  in
  let dg = DG.build ~body ~alias ~eliminated:[ elim ] () in
  let ext =
    List.filter (fun (e : DG.edge) -> e.DG.kind = DG.Extended) (DG.edges dg)
  in
  Alcotest.(check int) "one extended edge" 1 (List.length ext);
  (match ext with
  | [ e ] ->
    Alcotest.(check int) "first is intervening store" y.I.id e.DG.first;
    Alcotest.(check int) "second is source" x.I.id e.second
  | _ -> Alcotest.fail "unexpected");
  (* intervening LOADS are exempt in EXTENDED-DEPENDENCE 1 *)
  Alcotest.(check bool) "no edge from intervening load" true
    (List.for_all (fun (e : DG.edge) -> e.DG.first <> y_load.I.id) ext)

let test_extended_dep_store_overwrite () =
  reset_ids ();
  (* X (store) eliminated, overwritten by Z; intervening LOAD Y
     may-aliasing Z yields Z ->dep Y; intervening stores are exempt *)
  let x = st (I.Imm 1) (r 1) 0 in
  let y_load = ld (f 0) (r 2) 0 in
  let y_store = st (I.Imm 2) (r 3) 0 in
  let z = st (I.Imm 3) (r 1) 0 in
  let body = [ y_load; y_store; z ] in
  (* x already removed from body *)
  let alias = MA.analyze ~body () in
  let elim =
    ( DG.Store_overwritten { eliminated = x.I.id; overwriter = z.I.id },
      [ y_load; y_store ] )
  in
  let dg = DG.build ~body ~alias ~eliminated:[ elim ] () in
  let ext =
    List.filter (fun (e : DG.edge) -> e.DG.kind = DG.Extended) (DG.edges dg)
  in
  Alcotest.(check int) "one extended edge" 1 (List.length ext);
  match ext with
  | [ e ] ->
    Alcotest.(check int) "first is overwriter" z.I.id e.DG.first;
    Alcotest.(check int) "second is intervening load" y_load.I.id e.second
  | _ -> Alcotest.fail "unexpected"

let test_constraint_validation () =
  let a = C.empty_allocation () in
  Hashtbl.replace a.C.order 1 0;
  Hashtbl.replace a.C.base 1 0;
  Hashtbl.replace a.C.order 2 1;
  Hashtbl.replace a.C.base 2 0;
  let check = { C.first = 1; second = 2; kind = C.Check } in
  let anti = { C.first = 1; second = 2; kind = C.Anti } in
  Alcotest.(check bool) "satisfied" true
    (Result.is_ok (C.validate a ~edges:[ check; anti ] ~ar_count:4));
  (* violate the anti-constraint: equal orders *)
  Hashtbl.replace a.C.order 2 0;
  Alcotest.(check bool) "check <= still ok alone" true
    (Result.is_ok (C.validate a ~edges:[ check ] ~ar_count:4));
  (match C.validate a ~edges:[ anti ] ~ar_count:4 with
  | Error [ C.Unsatisfied _ ] -> ()
  | _ -> Alcotest.fail "anti < violated: expected one unsatisfied edge");
  (* window discipline: an offset past the window, an order without a
     base *)
  Hashtbl.replace a.C.order 2 9;
  Hashtbl.replace a.C.order 3 0;
  (match C.validate a ~edges:[] ~ar_count:4 with
  | Error [ C.Window _; C.Window _ ] -> ()
  | _ -> Alcotest.fail "window breaches: expected two window problems");
  let back = { C.first = 2; second = 1; kind = C.Check } in
  match C.validate a ~edges:[ back ] ~ar_count:4 with
  | Error [ C.Unsatisfied _; C.Window _; C.Window _ ] -> ()
  | _ -> Alcotest.fail "expected the edge problem, then the two window problems"

let test_topological_order () =
  let edges =
    [
      { C.first = 1; second = 2; kind = C.Check };
      { C.first = 2; second = 3; kind = C.Anti };
    ]
  in
  (match C.topological_order edges ~ids:[ 1; 2; 3 ] with
  | Some order -> Alcotest.(check (list int)) "topo" [ 1; 2; 3 ] order
  | None -> Alcotest.fail "unexpected cycle");
  let cyc = { C.first = 3; second = 1; kind = C.Check } :: edges in
  Alcotest.(check bool) "cycle detected" true (C.has_cycle cyc);
  Alcotest.(check bool) "no order under cycle" true
    (C.topological_order cyc ~ids:[ 1; 2; 3 ] = None)

let test_cycle_detect_invariance () =
  let cd = CD.create () in
  List.iteri (fun i id -> ignore (CD.init_t cd id i)) [ 1; 2; 3 ];
  (* check-constraint 3 -> 1 lowers T 3 below T 1 *)
  CD.lower_for_check cd ~x:3 ~y:1;
  Alcotest.(check bool) "T lowered" true (CD.get_t cd 3 < CD.get_t cd 1);
  (* anti 1 -> 3 would now conflict: T 1 >= T 3, but 1 is not reachable
     from 3... 3 -> 1 edge exists, so 1 IS reachable from 3: cycle *)
  (match CD.try_add_anti cd ~x:1 ~y:3 with
  | CD.Cycle h -> Alcotest.(check bool) "1 in component" true (List.mem 1 h)
  | _ -> Alcotest.fail "expected cycle");
  (* an anti between unrelated nodes shifts the component *)
  ignore (CD.init_t cd 10 0);
  ignore (CD.init_t cd 11 0);
  match CD.try_add_anti cd ~x:10 ~y:11 with
  | CD.Ok_shifted h ->
    Alcotest.(check bool) "11 shifted" true (List.mem 11 h);
    Alcotest.(check bool) "invariance restored" true
      (CD.get_t cd 10 < CD.get_t cd 11)
  | CD.Ok_already -> Alcotest.fail "T was equal, shift expected"
  | CD.Cycle _ -> Alcotest.fail "no cycle exists"

let test_cycle_detect_remove_edge () =
  let cd = CD.create () in
  ignore (CD.init_t cd 1 0);
  ignore (CD.init_t cd 2 1);
  CD.add_edge cd 1 2;
  CD.add_edge cd 1 2;
  CD.remove_edge cd 1 2;
  (* one occurrence removed, one remains *)
  Alcotest.(check bool) "still reachable" true
    (List.mem 2 (CD.reachable_from cd 1));
  CD.remove_edge cd 1 2;
  Alcotest.(check bool) "now unreachable" false
    (List.mem 2 (CD.reachable_from cd 1))

let suite =
  ( "analysis",
    [
      case "may-alias: same base disjoint" test_same_base_disjoint;
      case "may-alias: same base overlap" test_same_base_overlap;
      case "may-alias: different bases" test_different_base;
      case "may-alias: base redefinition" test_base_redefinition;
      case "may-alias: self-defining load" test_self_defining_load;
      case "may-alias: known-alias override" test_known_alias_override;
      case "dependences: DEPENDENCE rule" test_dependence_rule;
      case "dependences: strengths" test_dependence_strengths;
      case "extended dependence 1 (load forward)"
        test_extended_dep_load_forward;
      case "extended dependence 2 (store overwrite)"
        test_extended_dep_store_overwrite;
      case "constraint validation" test_constraint_validation;
      case "topological order and cycles" test_topological_order;
      case "incremental cycle detection" test_cycle_detect_invariance;
      case "cycle detector edge removal" test_cycle_detect_remove_edge;
    ] )
