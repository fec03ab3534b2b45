(* Constant-address facts from [Analysis.Absint] and the static
   disambiguation of direct accesses built on them. *)

open Helpers
module I = Ir.Instr
module MA = Analysis.May_alias

let check_verdict = Alcotest.of_pp MA.pp_verdict

let with_consts body =
  MA.analyze ~const_facts:(Analysis.Absint.analyze ~body ()) ~body ()

let test_propagation_through_arith () =
  reset_ids ();
  let m1 = movi (r 1) 100 in
  let m2 = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 28)) in
  let l1 = ld (f 0) (r 2) 4 in
  let body = [ m1; m2; l1 ] in
  Alcotest.(check (option int)) "absolute address of the load known"
    (Some 132) (MA.const_address (with_consts body) l1);
  Alcotest.(check (option int)) "no facts, no address" None
    (MA.const_address (MA.analyze ~body ()) l1)

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
  let body = [ m1; clobber; kill; l1 ] in
  Alcotest.(check (option int)) "fact killed by load def" None
    (MA.const_address (with_consts body) l1)

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
  let precise = with_consts body in
  Alcotest.check check_verdict "constants say no" MA.No_alias
    (MA.verdict precise s1 l1)

let test_direct_must_alias () =
  reset_ids ();
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x0ffc in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let precise = with_consts body in
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
    ignore (interp_run ~fuel:50_000_000 ref_m program);
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
  let precise = with_consts body in
  Alcotest.check check_verdict "adjacent ranges disjoint" MA.No_alias
    (MA.verdict precise s1 l1);
  (* one byte of overlap through the displacement *)
  reset_ids ();
  let m1 = movi (r 1) 0x1000 in
  let m2 = movi (r 2) 0x1008 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 1 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; m2; s1; l1 ] in
  let precise = with_consts body in
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
  let precise = with_consts body in
  Alcotest.check check_verdict "derived constant bases disjoint" MA.No_alias
    (MA.verdict precise s1 l1)

let test_cross_base_unknown_side_stays_may () =
  reset_ids ();
  (* r2 is never defined in the body: no constant fact, verdict May *)
  let m1 = movi (r 1) 0x1000 in
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 0 in
  let body = [ m1; s1; l1 ] in
  let precise = with_consts body in
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
  let precise = with_consts body in
  MA.set_certified precise
    (Analysis.Pair_key.of_pairs
       [ (min s1.I.id l1.I.id, max s1.I.id l1.I.id);
         (min s1.I.id l2.I.id, max s1.I.id l2.I.id) ]);
  Alcotest.check check_verdict "must-alias immune to certification"
    MA.Must_alias (MA.verdict precise s1 l1);
  Alcotest.check check_verdict "may-alias upgraded by certification"
    MA.No_alias (MA.verdict precise s1 l2);
  Alcotest.(check bool) "certified pair queryable both ways" true
    (MA.certified precise l2.I.id s1.I.id);
  MA.set_certified precise [||];
  Alcotest.check check_verdict "reset clears the certified set"
    MA.May_alias (MA.verdict precise s1 l2)

(* A base built as [r1 - r1] is the constant 0 whatever [r1] holds at
   entry: the abstract interpreter proves it, where plain constant
   propagation over known integers could not. *)
let test_self_difference_base () =
  reset_ids ();
  let zero = mk (I.Binop (I.Sub, r 2, I.Reg (r 1), I.Reg (r 1))) in
  let m3 = movi (r 3) 0x2000 in
  let s1 = st ~width:8 (I.Imm 1) (r 2) 0x1000 in
  let l1 = ld ~width:8 (f 0) (r 3) 0 in
  let body = [ zero; m3; s1; l1 ] in
  let precise = with_consts body in
  Alcotest.(check (option int)) "r1 - r1 + 0x1000" (Some 0x1000)
    (MA.const_address precise s1);
  Alcotest.check check_verdict "self difference disambiguates" MA.No_alias
    (MA.verdict precise s1 l1)

(* The 2^50 magnitude guard bounds every constant the optimizer
   trusts.  Over random Mov/Binop/Neg chains with immediates near
   +-2^50 (loads clobber their destination with an arbitrary value):

   - every singleton constant address [Absint.address] reports is the
     concrete address under two independent entry register files,
     evaluated with [Vliw.Eval]'s integer semantics;
   - no reported offset bound lies outside [-2^50, 2^50]. *)
let guard = 1 lsl 50

let guard_case_gen =
  let open QCheck.Gen in
  let reg = map (fun n -> Ir.Reg.R n) (int_range 1 4) in
  let imm =
    frequency
      [
        (3, int_range (-16) 16);
        (2, map (fun d -> guard + d) (int_range (-4) 4));
        (2, map (fun d -> d - guard) (int_range (-4) 4));
        (2, oneofl [ 1 lsl 12; 1 lsl 25; 1 lsl 31; 1 lsl 49 ]);
      ]
  in
  let operand = oneof [ map (fun r -> I.Reg r) reg; map (fun n -> I.Imm n) imm ] in
  let binop =
    oneofl I.[ Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr ]
  in
  let addr = map2 (fun base disp -> { I.base; disp }) reg imm in
  let op =
    frequency
      [
        (3, map2 (fun d s -> I.Mov (d, s)) reg operand);
        (1, map2 (fun d s -> I.Unop_neg (d, s)) reg operand);
        ( 6,
          map3 (fun (o, d) a b -> I.Binop (o, d, a, b)) (pair binop reg)
            operand operand );
        ( 2,
          map2
            (fun dst addr ->
              I.Load { dst; addr; width = 8; annot = Ir.Annot.none })
            reg addr );
        ( 2,
          map2
            (fun src addr ->
              I.Store { src; addr; width = 8; annot = Ir.Annot.none })
            operand addr );
      ]
  in
  let entry = list_repeat 4 int in
  triple (list_size (int_range 1 24) op) entry entry

let guard_case_arb =
  QCheck.make
    ~print:(fun (ops, _, _) ->
      List.mapi (fun id op -> I.make ~id op) ops
      |> List.map (Format.asprintf "%a" I.pp)
      |> String.concat "; ")
    guard_case_gen

(* Concrete address of every memory op, from the given entry values. *)
let concrete_addresses body entry =
  let m = Vliw.Machine.create () in
  List.iteri (fun k v -> Vliw.Machine.set_reg m (Ir.Reg.R (k + 1)) v) entry;
  let addrs = Hashtbl.create 16 in
  List.iter
    (fun (i : I.t) ->
      match i.I.op with
      | I.Load { dst; addr; _ } ->
        Hashtbl.replace addrs i.I.id (Vliw.Eval.addr_of m addr);
        Vliw.Machine.set_reg m dst (Hashtbl.hash (i.I.id, entry))
      | I.Store { addr; _ } ->
        Hashtbl.replace addrs i.I.id (Vliw.Eval.addr_of m addr)
      | _ -> Vliw.Eval.exec_data m i)
    body;
  addrs

let prop_guard_bounds_constants (ops, entry1, entry2) =
  let body = List.mapi (fun id op -> I.make ~id op) ops in
  let facts = Analysis.Absint.analyze ~body () in
  let a1 = concrete_addresses body entry1 in
  let a2 = concrete_addresses body entry2 in
  let in_guard n = n >= -guard && n <= guard in
  List.for_all
    (fun (i : I.t) ->
      match Analysis.Absint.address facts i.I.id with
      | None -> true
      | Some (v, _) ->
        let off = v.Analysis.Absint.off in
        if not (in_guard off.Analysis.Absint.lo && in_guard off.Analysis.Absint.hi)
        then
          QCheck.Test.fail_reportf "#%d: offset %a outside the guard" i.I.id
            Analysis.Absint.pp_cset off
        else
          match v.Analysis.Absint.origin, off.Analysis.Absint.stride with
          | Analysis.Absint.Const, 0 ->
            let c = off.Analysis.Absint.lo in
            let c1 = Hashtbl.find a1 i.I.id and c2 = Hashtbl.find a2 i.I.id in
            c1 = c && c2 = c
            || QCheck.Test.fail_reportf
                 "#%d: constant address %d, concrete %d and %d" i.I.id c c1 c2
          | _ -> true)
    body

(* [x land 2^50] is 0 or 2^50; scaled by 2^12 the second value wraps
   to [min_int], whose [abs] is negative.  The product must become
   opaque instead of passing the guard as the range [0, min_int] —
   which would "prove" a store through it disjoint from address 4,
   though it writes address 0 whenever bit 50 of [r1] is clear. *)
let test_wrapped_product_dropped () =
  reset_ids ();
  let mask = mk (I.Binop (I.And, r 2, I.Reg (r 1), I.Imm guard)) in
  let wrap = mk (I.Binop (I.Mul, r 3, I.Reg (r 2), I.Imm (1 lsl 12))) in
  let const = mk (I.Binop (I.Mul, r 4, I.Imm (1 lsl 31), I.Imm (1 lsl 31))) in
  let m5 = movi (r 5) 4 in
  let s1 = st ~width:8 (I.Imm 1) (r 3) 0 in
  let s2 = st ~width:8 (I.Imm 1) (r 4) 0 in
  let l1 = ld ~width:8 (f 0) (r 5) 0 in
  let body = [ mask; wrap; const; m5; s1; s2; l1 ] in
  let facts = Analysis.Absint.analyze ~body () in
  let opaque (i : I.t) =
    match Analysis.Absint.address facts i.I.id with
    | Some ({ Analysis.Absint.origin = Analysis.Absint.Opaque _; _ }, _) ->
      true
    | _ -> false
  in
  Alcotest.(check bool) "wrapped range is opaque" true (opaque s1);
  Alcotest.(check bool) "wrapped constant is opaque" true (opaque s2);
  let cert = Analysis.Disamb.certify ~alias:(MA.analyze ~body ()) ~body () in
  Alcotest.(check bool) "no certificate for the wrapped store" false
    (Analysis.Disamb.no_alias cert s1.I.id l1.I.id)

(* The static ablation's direct-heavy loop is the one workload on which
   [none+static] differs from [none]: pin all three cycle counts of
   [bench static] so a change to constant-address disambiguation shows
   up here. *)
let test_static_ablation_cycles () =
  let program = Workload.Kernels.direct_heavy ~iters:8000 in
  List.iter
    (fun (scheme, cycles) ->
      let r = Smarq.run_program ~scheme program in
      Alcotest.(check int) (Smarq.Scheme.name scheme) cycles
        r.Runtime.Driver.stats.Runtime.Stats.total_cycles)
    Smarq.Scheme.[ (None_, 635622); (None_static, 587922); (Smarq 64, 405072) ]

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
      case "self-difference base is a constant" test_self_difference_base;
      case "static ablation cycles pinned" test_static_ablation_cycles;
      case "wrapped products leave the domain" test_wrapped_product_dropped;
      qcase ~count:2000 "magnitude guard bounds every constant address"
        guard_case_arb prop_guard_bounds_constants;
    ] )
