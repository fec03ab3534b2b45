(* Speculative elimination passes and the optimizer pipeline. *)

open Helpers
module I = Ir.Instr
module DG = Analysis.Depgraph

let run_elim ?(policy = Sched.Policy.smarq ~ar_count:64) body =
  let alias = Analysis.May_alias.analyze ~body () in
  let fresh_id = ref 1000 in
  Opt.Elim.run ~policy ~alias ~body ~fresh_id ()

let count_loads body = List.length (List.filter I.is_load body)
let count_stores body = List.length (List.filter I.is_store body)

let test_load_load_forwarding () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let s = st (I.Imm 9) (r 2) 0 in  (* may-alias store in between *)
  let l2 = ld (f 2) (r 1) 0 in
  let res = run_elim [ l1; s; l2 ] in
  Alcotest.(check int) "one load eliminated" 1 res.Opt.Elim.loads_eliminated;
  Alcotest.(check int) "one load remains" 1 (count_loads res.Opt.Elim.body);
  Alcotest.(check bool) "speculation recorded" true
    (List.mem (l1.I.id, s.I.id) res.Opt.Elim.assumed_no_alias);
  match res.Opt.Elim.eliminations with
  | [ (DG.Load_forwarded { source; eliminated }, between) ] ->
    Alcotest.(check int) "source is first load" l1.I.id source;
    Alcotest.(check int) "eliminated is second" l2.I.id eliminated;
    Alcotest.(check bool) "store in between set" true
      (List.exists (fun (i : I.t) -> i.I.id = s.I.id) between)
  | _ -> Alcotest.fail "expected one load forwarding"

let test_store_load_forwarding () =
  reset_ids ();
  let s1 = st (I.Reg (f 5)) (r 1) 8 in
  let l = ld (f 2) (r 1) 8 in
  let res = run_elim [ s1; l ] in
  Alcotest.(check int) "load eliminated" 1 res.Opt.Elim.loads_eliminated;
  (* the captured value flows through a temp; semantics preserved even
     when the source register is clobbered in between *)
  let m = Vliw.Machine.create () in
  Vliw.Machine.set_reg m (r 1) 100;
  Vliw.Machine.set_reg m (f 5) 42;
  List.iter (Vliw.Eval.exec_data m) res.Opt.Elim.body;
  Alcotest.(check int) "forwarded value" 42 (Vliw.Machine.get_reg m (f 2))

let test_forwarding_through_clobbered_source () =
  reset_ids ();
  let s1 = st (I.Reg (f 5)) (r 1) 8 in
  let clobber = mk (I.Mov (f 5, I.Imm 0)) in
  let l = ld (f 2) (r 1) 8 in
  let res = run_elim [ s1; clobber; l ] in
  Alcotest.(check int) "load eliminated" 1 res.Opt.Elim.loads_eliminated;
  let m = Vliw.Machine.create () in
  Vliw.Machine.set_reg m (r 1) 100;
  Vliw.Machine.set_reg m (f 5) 42;
  List.iter (Vliw.Eval.exec_data m) res.Opt.Elim.body;
  Alcotest.(check int) "captured before clobber" 42 (Vliw.Machine.get_reg m (f 2))

let test_no_forwarding_across_must_alias_store () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let killer = st ~width:8 (I.Imm 7) (r 1) 0 in  (* same location *)
  let l2 = ld (f 2) (r 1) 0 in
  let res = run_elim [ l1; killer; l2 ] in
  (* l2 forwards from the store (store-to-load), not from l1 *)
  (match res.Opt.Elim.eliminations with
  | [ (DG.Load_forwarded { source; _ }, _) ] ->
    Alcotest.(check int) "forwards from the store" killer.I.id source
  | [] -> ()  (* also acceptable: width mismatch blocks it *)
  | _ -> Alcotest.fail "unexpected eliminations");
  ignore l1

let test_width_mismatch_blocks_forwarding () =
  reset_ids ();
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l = ld ~width:4 (f 1) (r 1) 0 in
  let res = run_elim [ s1; l ] in
  Alcotest.(check int) "no elimination across widths" 0
    res.Opt.Elim.loads_eliminated

let test_base_redefinition_blocks_forwarding () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let bump = mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 8)) in
  let l2 = ld (f 2) (r 1) 0 in
  let res = run_elim [ l1; bump; l2 ] in
  Alcotest.(check int) "different addresses, kept" 0
    res.Opt.Elim.loads_eliminated

let test_store_elimination () =
  reset_ids ();
  let x = st (I.Imm 1) (r 1) 0 in
  let other = st (I.Imm 2) (r 2) 0 in
  let z = st (I.Imm 3) (r 1) 0 in
  let res = run_elim [ x; other; z ] in
  Alcotest.(check int) "one store eliminated" 1 res.Opt.Elim.stores_eliminated;
  Alcotest.(check int) "two stores remain" 2 (count_stores res.Opt.Elim.body);
  match res.Opt.Elim.eliminations with
  | [ (DG.Store_overwritten { eliminated; overwriter }, _) ] ->
    Alcotest.(check int) "eliminated X" x.I.id eliminated;
    Alcotest.(check int) "overwriter Z" z.I.id overwriter
  | _ -> Alcotest.fail "expected one store elimination"

let test_store_elim_blocked_by_must_alias_load () =
  reset_ids ();
  let x = st (I.Imm 1) (r 1) 0 in
  let reader = ld (f 1) (r 1) 0 in  (* must read X's value *)
  let z = st (I.Imm 3) (r 1) 0 in
  let res = run_elim [ x; reader; z ] in
  Alcotest.(check int) "blocked" 0 res.Opt.Elim.stores_eliminated

let test_store_elim_blocked_by_side_exit () =
  reset_ids ();
  let x = st (I.Imm 1) (r 1) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "out" }) in
  let z = st (I.Imm 3) (r 1) 0 in
  let res = run_elim [ x; br; z ] in
  Alcotest.(check int) "no elimination across exits" 0
    res.Opt.Elim.stores_eliminated

let test_store_elim_speculates_past_may_alias_load () =
  reset_ids ();
  let x = st (I.Imm 1) (r 1) 0 in
  let spec_load = ld (f 1) (r 2) 0 in  (* may alias *)
  let z = st (I.Imm 3) (r 1) 0 in
  let res = run_elim [ x; spec_load; z ] in
  Alcotest.(check int) "eliminated speculatively" 1
    res.Opt.Elim.stores_eliminated;
  Alcotest.(check bool) "assumption recorded" true
    (List.mem (z.I.id, spec_load.I.id) res.Opt.Elim.assumed_no_alias);
  match res.Opt.Elim.eliminations with
  | [ (DG.Store_overwritten _, between) ] ->
    Alcotest.(check bool) "load in between set" true
      (List.exists (fun (i : I.t) -> i.I.id = spec_load.I.id) between)
  | _ -> Alcotest.fail "expected store elimination"

let test_overwriter_never_eliminated () =
  reset_ids ();
  (* chain x1; x2; z all same location: at most the first two go and z
     stays (locked as an overwriter) *)
  let x1 = st (I.Imm 1) (r 1) 0 in
  let x2 = st (I.Imm 2) (r 1) 0 in
  let z = st (I.Imm 3) (r 1) 0 in
  let res = run_elim [ x1; x2; z ] in
  Alcotest.(check bool) "z survives" true
    (List.exists (fun (i : I.t) -> i.I.id = z.I.id) res.Opt.Elim.body);
  Alcotest.(check bool) "at least one eliminated" true
    (res.Opt.Elim.stores_eliminated >= 1)

let test_checking_store_never_eliminated () =
  reset_ids ();
  (* the intervening store of a load forwarding owes a check; it must
     not be store-eliminated even if overwritten later *)
  let l1 = ld (f 1) (r 1) 0 in
  let w = st (I.Imm 9) (r 2) 0 in  (* intervening may-alias store *)
  let l2 = ld (f 2) (r 1) 0 in  (* forwarded from l1 *)
  let z = st (I.Imm 10) (r 2) 0 in  (* overwrites w *)
  let res = run_elim [ l1; w; l2; z ] in
  Alcotest.(check int) "load forwarded" 1 res.Opt.Elim.loads_eliminated;
  Alcotest.(check bool) "checking store kept" true
    (List.exists (fun (i : I.t) -> i.I.id = w.I.id) res.Opt.Elim.body);
  Alcotest.(check int) "no store elimination" 0 res.Opt.Elim.stores_eliminated

let test_policy_gates () =
  reset_ids ();
  let s1 = st (I.Reg (f 5)) (r 1) 8 in
  let l = ld (f 2) (r 1) 8 in
  let res = run_elim ~policy:(Sched.Policy.alat ()) [ s1; l ] in
  Alcotest.(check int) "ALAT: no store-load forwarding" 0
    res.Opt.Elim.loads_eliminated;
  reset_ids ();
  let x = st (I.Imm 1) (r 1) 0 in
  let z = st (I.Imm 3) (r 1) 0 in
  let res2 = run_elim ~policy:(Sched.Policy.alat ()) [ x; z ] in
  Alcotest.(check int) "ALAT: no store elimination" 0
    res2.Opt.Elim.stores_eliminated;
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let l2 = ld (f 2) (r 1) 0 in
  let res3 = run_elim ~policy:(Sched.Policy.alat ()) [ l1; l2 ] in
  Alcotest.(check int) "ALAT: load-load forwarding allowed" 1
    res3.Opt.Elim.loads_eliminated;
  let res4 = run_elim ~policy:(Sched.Policy.none ()) [ l1; l2 ] in
  Alcotest.(check int) "none: nothing" 0 res4.Opt.Elim.loads_eliminated

let test_elim_semantics_preserved () =
  reset_ids ();
  (* a mixed body: run original and transformed on identical machines
     and compare (no runtime aliasing among cross-base ops here) *)
  let body =
    [
      st (I.Imm 11) (r 1) 0;
      ld (f 1) (r 1) 0;
      st (I.Reg (f 1)) (r 2) 8;
      ld (f 2) (r 2) 8;
      st (I.Imm 22) (r 1) 0;
      ld (f 3) (r 1) 0;
      fadd (f 4) (f 2) (f 3);
    ]
  in
  let res = run_elim body in
  Alcotest.(check bool) "something was eliminated" true
    (res.Opt.Elim.loads_eliminated + res.Opt.Elim.stores_eliminated > 0);
  let init m =
    Vliw.Machine.set_reg m (r 1) 1000;
    Vliw.Machine.set_reg m (r 2) 2000
  in
  let m1 = Vliw.Machine.create () and m2 = Vliw.Machine.create () in
  init m1;
  init m2;
  List.iter (Vliw.Eval.exec_data m1) body;
  List.iter (Vliw.Eval.exec_data m2) res.Opt.Elim.body;
  Alcotest.(check bool) "same final state" true
    (Vliw.Machine.equal_guest_state m1 m2)

let test_optimizer_fallback () =
  reset_ids ();
  (* 1 alias register cannot host any speculation; the optimizer must
     fall back rather than emit an overflowing region *)
  let body =
    List.concat
      (List.init 10 (fun k ->
           [ ld (f (k mod 8)) (r (10 + (k mod 8))) (k * 8);
             st (I.Imm k) (r (20 + (k mod 8))) (k * 8) ]))
  in
  let sb = sb_of body in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:1) sb in
  Alcotest.(check bool) "window fits" true
    (o.Opt.Optimizer.region.Ir.Region.ar_window <= 1)

(* The fallback ladder picks the first tier that builds.  Twenty
   stores forwarded to twenty later loads across one may-alias store
   leave twenty extended dependences the store must check in program
   order: non-speculation mode cannot help, so smarq16 overflows, while
   without the eliminations the hoisted loads throttle into program
   order and fit (tier 2).  Twenty loads hoisted above a store that
   waits on a long FP chain need twenty mask registers at once, past
   Efficeon's fifteen with or without eliminations (tier 3). *)
let test_fallback_tier_selection () =
  reset_ids ();
  let n = 20 in
  let sources = List.init n (fun k -> st (I.Reg (f k)) (r 1) (k * 8)) in
  let clobber = st (I.Imm 0) (r 2) 0 in
  let sinks = List.init n (fun k -> ld (f (n + k)) (r 1) (k * 8)) in
  let smarq16 = Sched.Policy.smarq ~ar_count:16 in
  let o = optimize ~policy:smarq16 (sb_of (sources @ [ clobber ] @ sinks)) in
  Alcotest.(check bool) "eliminations overflow: reorder-only tier" true
    (o.Opt.Optimizer.policy_used
    = {
        smarq16 with
        Sched.Policy.allow_load_load_forward = false;
        allow_store_load_forward = false;
        allow_store_elim = false;
      });
  Alcotest.(check bool) "tier 2 reported as a fallback" true
    o.Opt.Optimizer.stats.Opt.Optimizer.fell_back;
  reset_ids ();
  let chain =
    List.init 8 (fun k -> mk (I.Fbinop (I.Fmul, f 40, I.Reg (f 40), I.Reg (f k))))
  in
  let late_store = st (I.Reg (f 40)) (r 2) 0 in
  let loads = List.init n (fun k -> ld (f (n + k)) (r (3 + k)) 0) in
  let o =
    optimize ~policy:(Sched.Policy.efficeon ())
      (sb_of (chain @ [ late_store ] @ loads))
  in
  Alcotest.(check bool) "even reorder-only overflows: no-speculation tier"
    true
    (o.Opt.Optimizer.policy_used = Sched.Policy.none ())

let test_optimizer_known_alias_conservative () =
  reset_ids ();
  let s1 = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let body = [ s1; l1 ] in
  let sb = sb_of body in
  let o = optimize sb in
  let pos_tbl o =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun idx (i : I.t) -> Hashtbl.replace tbl i.I.id idx)
      (Ir.Region.instrs o.Opt.Optimizer.region);
    tbl
  in
  let p1 = pos_tbl o in
  Alcotest.(check bool) "speculated above" true
    (Hashtbl.find p1 l1.I.id < Hashtbl.find p1 s1.I.id);
  let o2 = optimize ~known_alias:[ (s1.I.id, l1.I.id) ] sb in
  let p2 = pos_tbl o2 in
  Alcotest.(check bool) "conservative after learning" true
    (Hashtbl.find p2 l1.I.id > Hashtbl.find p2 s1.I.id)

(* ---- allocation budgets ---- *)

(* [n] memory operations over two bases with distinct displacements:
   every load/store pair across the bases may alias, but no two touch
   exactly the same location, so nothing is eliminated *)
let unchanged_body n =
  reset_ids ();
  List.init n (fun k ->
      match k mod 3 with
      | 0 -> ld ~width:8 (f (k mod 8)) (r 2) (8 * k)
      | 1 -> st ~width:8 (I.Reg (f (k mod 8))) (r 3) (8 * k)
      | _ -> fadd (f ((k + 1) mod 8)) (f (k mod 8)) (f ((k + 3) mod 8)))

(* Words one [Elim.run] allocates on a warm arena, after a first run. *)
let elim_words body =
  let policy = Sched.Policy.smarq ~ar_count:64 in
  let alias = Analysis.May_alias.analyze ~body () in
  let arena = Analysis.Arena.create () in
  let run () = Opt.Elim.run ~policy ~alias ~arena ~body ~fresh_id:(ref 100_000) () in
  ignore (run ());
  let out = ref None in
  let words = words_of (fun () -> out := Some (run ())) in
  (words, Option.get !out)

let test_elim_unchanged_allocates_nothing () =
  let measure n =
    let body = unchanged_body n in
    let words, res = elim_words body in
    Alcotest.(check int) "nothing eliminated" 0
      (res.Opt.Elim.loads_eliminated + res.Opt.Elim.stores_eliminated);
    Alcotest.(check bool) "the input body itself" true (res.Opt.Elim.body == body);
    words
  in
  let w1 = measure 100 and w4 = measure 400 in
  (* the pass's state and result records and the harness's boxes:
     nothing per instruction *)
  Alcotest.(check bool)
    (Printf.sprintf "%d words for 100 instructions, %d for 400" w1 w4)
    true
    (w1 = w4 && w4 <= 48)

(* [groups] copies of: a store, a load of the same location (forwarded
   from the store), a may-alias store through another base, and a
   store the next group's store overwrites *)
let eliminating_body groups =
  reset_ids ();
  List.concat
    (List.init groups (fun g ->
         [
           st ~width:8 (I.Reg (f 1)) (r 3) (16 * g);
           st ~width:8 (I.Imm g) (r 4) 0;
           ld ~width:8 (f 2) (r 3) (16 * g);
           st ~width:8 (I.Reg (f 2)) (r 5) 8;
           fadd (f 1) (f 2) (f 2);
         ]))

let test_elim_per_elimination_budget () =
  List.iter
    (fun groups ->
      let words, res = elim_words (eliminating_body groups) in
      let elims = res.Opt.Elim.loads_eliminated + res.Opt.Elim.stores_eliminated in
      let survivors = List.length res.Opt.Elim.body in
      let between =
        List.fold_left (fun acc (_, l) -> acc + List.length l) 0 res.Opt.Elim.eliminations
      in
      let assumed = List.length res.Opt.Elim.assumed_no_alias in
      Alcotest.(check bool) "eliminates" true (elims >= groups);
      (* what the result holds — a cons per surviving and per
         intervening instruction, a pair per assumption — plus a fixed
         cost per elimination (its records, the replacement move and
         the edited slot's cell), and nothing per instruction besides *)
      let budget = (3 * (survivors + between)) + (6 * assumed) + (40 * elims) in
      Alcotest.(check bool)
        (Printf.sprintf "%d groups: %d words within %d (%d eliminations)" groups
           words budget elims)
        true (words <= budget))
    [ 20; 80 ]

let suite =
  ( "opt",
    [
      case "load-load forwarding" test_load_load_forwarding;
      case "store-to-load forwarding" test_store_load_forwarding;
      case "forwarding captures before clobber"
        test_forwarding_through_clobbered_source;
      case "must-alias store fences forwarding"
        test_no_forwarding_across_must_alias_store;
      case "width mismatch blocks forwarding" test_width_mismatch_blocks_forwarding;
      case "base redefinition blocks forwarding"
        test_base_redefinition_blocks_forwarding;
      case "store elimination" test_store_elimination;
      case "store elim blocked by must-alias load"
        test_store_elim_blocked_by_must_alias_load;
      case "store elim blocked by side exit" test_store_elim_blocked_by_side_exit;
      case "store elim speculates past may-alias load"
        test_store_elim_speculates_past_may_alias_load;
      case "overwriters are locked" test_overwriter_never_eliminated;
      case "checking stores are locked" test_checking_store_never_eliminated;
      case "per-scheme policy gates" test_policy_gates;
      case "elimination preserves semantics" test_elim_semantics_preserved;
      case "optimizer falls back on overflow" test_optimizer_fallback;
      case "fallback ladder picks the first tier that builds"
        test_fallback_tier_selection;
      case "known aliases disable speculation"
        test_optimizer_known_alias_conservative;
      case "Elim allocates nothing for a body it leaves unchanged"
        test_elim_unchanged_allocates_nothing;
      case "Elim allocates per elimination" test_elim_per_elimination_budget;
    ] )
