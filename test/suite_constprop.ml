(* Constant propagation and static disambiguation of direct accesses. *)

open Helpers
module I = Ir.Instr
module CP = Analysis.Const_prop
module MA = Analysis.May_alias

let check_verdict = Alcotest.of_pp MA.pp_verdict

let test_propagation_through_arith () =
  reset_ids ();
  let m1 = movi (r 1) 100 in
  let m2 = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 28)) in
  let l1 = ld (f 0) (r 2) 0 in
  let body = [ m1; m2; l1 ] in
  let facts = CP.analyze ~body in
  Alcotest.(check (option int)) "base of the load known" (Some 128)
    (CP.base_value_at facts ~instr_id:l1.I.id (r 2));
  Alcotest.(check int) "one resolved access" 1 (CP.known_count facts)

let test_kill_on_unknown_def () =
  reset_ids ();
  let m1 = movi (r 1) 100 in
  let clobber = ld (f 9) (r 5) 0 in
  (* load into r1 destroys the fact *)
  let kill =
    mk (I.Load { dst = r 1; addr = { I.base = r 5; disp = 8 }; width = 4;
                 annot = Ir.Annot.none })
  in
  let l1 = ld (f 0) (r 1) 0 in
  let facts = CP.analyze ~body:[ m1; clobber; kill; l1 ] in
  Alcotest.(check (option int)) "fact killed by load def" None
    (CP.base_value_at facts ~instr_id:l1.I.id (r 1))

let test_direct_disambiguation () =
  reset_ids ();
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x2000 in
  let s1 = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let plain = MA.analyze ~body () in
  Alcotest.check check_verdict "heuristic says may" MA.May_alias
    (MA.verdict plain s1 l1);
  let facts = CP.analyze ~body in
  let precise = MA.analyze ~const_facts:facts ~body () in
  Alcotest.check check_verdict "constants say no" MA.No_alias
    (MA.verdict precise s1 l1)

let test_direct_must_alias () =
  reset_ids ();
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x0ffc in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let facts = CP.analyze ~body in
  let precise = MA.analyze ~const_facts:facts ~body () in
  Alcotest.check check_verdict "overlapping constants say must"
    MA.Must_alias (MA.verdict precise s1 l1)

let test_policy_gates_static () =
  reset_ids ();
  (* same-direct-region store/load: only the static policy reorders *)
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x2000 in
  let s1 = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 0) (r 2) 0 in
  let use = fadd (f 1) (f 0) (f 0) in
  let sb = sb_of [ m1; m2; s1; l1; use ] in
  let pos_of o id =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun idx (i : I.t) -> Hashtbl.replace tbl i.I.id idx)
      (Ir.Region.instrs o.Opt.Optimizer.region);
    Hashtbl.find tbl id
  in
  let plain = optimize ~policy:(Sched.Policy.none ()) sb in
  Alcotest.(check bool) "plain none keeps order" true
    (pos_of plain l1.I.id > pos_of plain s1.I.id);
  let static = optimize ~policy:(Sched.Policy.none_with_analysis ()) sb in
  Alcotest.(check bool) "static analysis frees the load" true
    (pos_of static l1.I.id < pos_of static s1.I.id)

let test_static_still_sound () =
  (* the static scheme never speculates, so it must be exact: run a
     direct-heavy random batch against the interpreter *)
  for seed = 0 to 10 do
    let program = Workload.Genprog.program ~seed ~n_loops:2 ~iters:80 in
    let ref_m = Vliw.Machine.create () in
    ignore (Frontend.Interp.run ~fuel:50_000_000 ref_m program);
    let r =
      Smarq.run_program
        ~config:{ Runtime.Config.default with fuel = 50_000_000 }
        ~scheme:Smarq.Scheme.None_static program
    in
    if not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
    then Alcotest.failf "seed %d diverged under none+static" seed
  done

(* Cross-base disambiguation edge cases: both bases must resolve to
   constants, and the byte ranges decide the verdict exactly. *)

let test_cross_base_adjacent_ranges () =
  reset_ids ();
  (* [0x1000, 0x1008) and [0x1008, 0x1010): touching, not overlapping *)
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x1008 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let precise = MA.analyze ~const_facts:(CP.analyze ~body) ~body () in
  Alcotest.check check_verdict "adjacent ranges disjoint" MA.No_alias
    (MA.verdict precise s1 l1);
  (* one byte of overlap through the displacement *)
  reset_ids ();
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x1008 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 1 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let precise = MA.analyze ~const_facts:(CP.analyze ~body) ~body () in
  Alcotest.check check_verdict "one-byte overlap is must" MA.Must_alias
    (MA.verdict precise s1 l1)

let test_cross_base_derived_constants () =
  reset_ids ();
  (* bases built by arithmetic over constants, not straight Movs *)
  let m1 = movi (r 1) 0x1000 in
  let a1 = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 0x100)) in
  let a2 = mk (I.Binop (I.Shl, r 3, I.Reg (r 1), I.Imm 1)) in
  let s1 = st ~width:4 (I.Imm 7) (r 2) 0 in
  let l1 = ld ~width:4 (f 0) (r 3) 0 in
  let body = [ m1; a1; a2; s1; l1 ] in
  let precise = MA.analyze ~const_facts:(CP.analyze ~body) ~body () in
  Alcotest.check check_verdict "derived constant bases disjoint" MA.No_alias
    (MA.verdict precise s1 l1)

let test_cross_base_unknown_side_stays_may () =
  reset_ids ();
  (* r2 is never defined in the body: no constant fact, verdict May *)
  let m1 = movi (r 1) 0x1000 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; s1; l1 ] in
  let precise = MA.analyze ~const_facts:(CP.analyze ~body) ~body () in
  Alcotest.check check_verdict "unknown base stays may" MA.May_alias
    (MA.verdict precise s1 l1)

let test_certified_set_upgrades_only_may () =
  reset_ids ();
  (* set_certified flips a May verdict to No_alias but can never
     override a constant-exact Must_alias *)
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x1000 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let l2 = ld ~width:8 (f 1) (r 3) 0 in
  let body = [ m1; m2; s1; l1; l2 ] in
  let precise = MA.analyze ~const_facts:(CP.analyze ~body) ~body () in
  MA.set_certified precise
    [ (s1.I.id, l1.I.id); (s1.I.id, l2.I.id) ];
  Alcotest.check check_verdict "must-alias immune to certification"
    MA.Must_alias (MA.verdict precise s1 l1);
  Alcotest.check check_verdict "may-alias upgraded by certification"
    MA.No_alias (MA.verdict precise s1 l2);
  Alcotest.(check bool) "certified pair queryable both ways" true
    (MA.certified precise l2.I.id s1.I.id);
  MA.set_certified precise [];
  Alcotest.check check_verdict "reset clears the certified set"
    MA.May_alias (MA.verdict precise s1 l2)

let suite =
  ( "const-prop",
    [
      case "propagation through arithmetic" test_propagation_through_arith;
      case "facts killed by unknown defs" test_kill_on_unknown_def;
      case "direct accesses disambiguated" test_direct_disambiguation;
      case "overlapping constants are must-alias" test_direct_must_alias;
      case "policy gate frees direct reordering" test_policy_gates_static;
      case "static scheme stays exact" test_static_still_sound;
      case "cross-base adjacent ranges" test_cross_base_adjacent_ranges;
      case "cross-base derived constants" test_cross_base_derived_constants;
      case "cross-base unknown side stays may"
        test_cross_base_unknown_side_stays_may;
      case "certified set upgrades only may"
        test_certified_set_upgrades_only_may;
    ] )
