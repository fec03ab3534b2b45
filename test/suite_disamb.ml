(* Static alias certifier: abstract domain precision, disambiguator
   verdicts and witnesses, and the oracle-backed soundness property —
   a certified pair must never overlap at runtime, under any scheme. *)

open Helpers
module I = Ir.Instr
module AI = Analysis.Absint
module D = Analysis.Disamb
module MA = Analysis.May_alias

let check_verdict = Alcotest.of_pp MA.pp_verdict

(* ---- abstract domain ---- *)

let test_absint_const_folding () =
  reset_ids ();
  let m1 = movi (r 1) 100 in
  let a1 = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 28)) in
  let l1 = ld (f 0) (r 2) 0 in
  let t = AI.analyze ~body:[ m1; a1; l1 ] in
  match AI.address t l1.I.id with
  | None -> Alcotest.fail "address not computed"
  | Some (v, w) ->
    Alcotest.(check int) "width" 4 w;
    Alcotest.(check bool) "const origin" true
      (AI.origin_equal v.AI.origin AI.Const);
    Alcotest.(check int) "lo" 128 v.AI.off.AI.lo;
    Alcotest.(check int) "hi" 128 v.AI.off.AI.hi

let test_absint_entry_bump () =
  reset_ids ();
  (* the unrolled-iteration shape: same base register, bumped between *)
  let l1 = ld (f 0) (r 1) 8 in
  let b1 = mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 64)) in
  let l2 = ld (f 1) (r 1) 8 in
  let t = AI.analyze ~body:[ l1; b1; l2 ] in
  (match AI.address t l1.I.id, AI.address t l2.I.id with
  | Some (v1, _), Some (v2, _) ->
    Alcotest.(check bool) "same entry origin" true
      (AI.origin_equal v1.AI.origin v2.AI.origin);
    Alcotest.(check int) "first offset" 8 v1.AI.off.AI.lo;
    Alcotest.(check int) "second offset" 72 v2.AI.off.AI.lo
  | _ -> Alcotest.fail "addresses not computed")

let test_absint_mask_stride () =
  reset_ids ();
  (* And with 0xf8 leaves a multiple of 8 in [0, 0xf8] *)
  let a1 = mk (I.Binop (I.And, r 2, I.Reg (r 4), I.Imm 0xf8)) in
  let a2 = mk (I.Binop (I.Add, r 3, I.Reg (r 1), I.Reg (r 2))) in
  let l1 = ld (f 0) (r 3) 0 in
  let t = AI.analyze ~body:[ a1; a2; l1 ] in
  match AI.address t l1.I.id with
  | None -> Alcotest.fail "address not computed"
  | Some (v, _) ->
    Alcotest.(check int) "lo" 0 v.AI.off.AI.lo;
    Alcotest.(check int) "hi" 0xf8 v.AI.off.AI.hi;
    Alcotest.(check int) "stride" 8 v.AI.off.AI.stride;
    Alcotest.(check int) "rem" 0 v.AI.off.AI.rem

let test_separated_cases () =
  let entry = AI.Entry (r 1) in
  let v off = { AI.origin = entry; scale = 1; off } in
  let pt n = AI.point n in
  (* range separation: [0,8) vs [8,16) *)
  (match AI.separated (v (pt 0)) 8 (v (pt 8)) 8 with
  | Some AI.Ranges -> ()
  | _ -> Alcotest.fail "adjacent ranges should separate");
  (* overlap: [0,8) vs [4,12) *)
  (match AI.separated (v (pt 0)) 8 (v (pt 4)) 8 with
  | None -> ()
  | Some _ -> Alcotest.fail "overlapping ranges must not separate");
  (* congruence: multiples of 16 vs the byte range [8, 16) *)
  let strided = { AI.lo = 0; hi = 240; stride = 16; rem = 0 } in
  (match AI.separated (v strided) 8 (v (pt 8)) 8 with
  | Some (AI.Congruence _) -> ()
  | Some AI.Ranges -> Alcotest.fail "ranges cannot prove this one"
  | None -> Alcotest.fail "congruence should separate");
  (* same residue class: multiples of 16 vs offset 16 *)
  (match AI.separated (v strided) 8 (v (pt 16)) 8 with
  | None -> ()
  | Some _ -> Alcotest.fail "residue hit must not separate");
  (* different origins prove nothing *)
  let other = { AI.origin = AI.Entry (r 2); scale = 1; off = pt 64 } in
  match AI.separated (v (pt 0)) 8 other 8 with
  | None -> ()
  | Some _ -> Alcotest.fail "cross-origin separation is unsound"

(* ---- disambiguator ---- *)

(* Two rmw iterations around a base bump: the cross-iteration pairs
   are May (the base register is redefined between them) and exactly
   the ones the certifier proves. *)
let bump_body () =
  reset_ids ();
  let l1 = ld ~width:8 (f 0) (r 1) 0 in
  let s1 = st ~width:8 (I.Reg (f 0)) (r 1) 0 in
  let b1 = mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 64)) in
  let l2 = ld ~width:8 (f 1) (r 1) 0 in
  let s2 = st ~width:8 (I.Reg (f 1)) (r 1) 0 in
  ([ l1; s1; b1; l2; s2 ], l1, s1, l2, s2)

let test_certify_bump_pairs () =
  let body, l1, s1, l2, s2 = bump_body () in
  let alias = MA.analyze ~body () in
  Alcotest.check check_verdict "cross-iteration pair starts may"
    MA.May_alias (MA.verdict alias s1 l2);
  let cert = D.certify ~alias ~body in
  Alcotest.(check bool) "store1/load2 certified" true
    (D.no_alias cert s1.I.id l2.I.id);
  Alcotest.(check bool) "store1/store2 certified" true
    (D.no_alias cert s1.I.id s2.I.id);
  Alcotest.(check bool) "load1/store2 certified" true
    (D.no_alias cert l1.I.id s2.I.id);
  (* same-iteration pairs are base-exact, never May, never certified *)
  Alcotest.(check bool) "same-iteration pair not certified" false
    (D.no_alias cert l1.I.id s1.I.id);
  (* witnesses carry range separation anchored on the same origin *)
  Array.iter
    (fun (w : D.witness) ->
      Alcotest.(check bool) "witness origins match" true
        (AI.origin_equal w.D.x.D.origin w.D.y.D.origin);
      match w.D.reason with
      | D.Ranges -> ()
      | D.Congruence _ -> Alcotest.fail "bump pairs separate by range")
    (D.witnesses cert);
  (* installing the certificate upgrades the verdicts *)
  MA.set_certified alias (D.keys cert);
  Alcotest.check check_verdict "verdict upgraded to no-alias" MA.No_alias
    (MA.verdict alias s1 l2)

let test_certify_congruence_probe () =
  reset_ids ();
  (* store to [base+8, base+16); probe at base + 16k: disjoint mod 16 *)
  let s1 = st ~width:8 (I.Reg (f 28)) (r 1) 8 in
  let a1 = mk (I.Binop (I.And, r 26, I.Reg (r 4), I.Imm 127)) in
  let a2 = mk (I.Binop (I.Mul, r 26, I.Reg (r 26), I.Imm 16)) in
  let a3 = mk (I.Binop (I.Add, r 25, I.Reg (r 1), I.Reg (r 26))) in
  let l1 = ld ~width:8 (f 30) (r 25) 0 in
  let body = [ s1; a1; a2; a3; l1 ] in
  let alias = MA.analyze ~body () in
  Alcotest.check check_verdict "probe pair starts may" MA.May_alias
    (MA.verdict alias s1 l1);
  let cert = D.certify ~alias ~body in
  Alcotest.(check bool) "probe certified" true
    (D.no_alias cert s1.I.id l1.I.id);
  match D.witnesses cert with
  | [| w |] ->
    (match w.D.reason with
    | D.Congruence g ->
      Alcotest.(check bool) "gcd divides the probe stride" true
        (g > 1 && 16 mod g = 0)
    | D.Ranges -> Alcotest.fail "expected a congruence witness")
  | ws -> Alcotest.failf "expected one witness, got %d" (Array.length ws)

let test_cross_base_not_certified () =
  reset_ids ();
  (* two unrelated entry bases: nothing relates them, no certificate *)
  let s1 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l1 = ld ~width:8 (f 0) (r 2) 4096 in
  let body = [ s1; l1 ] in
  let alias = MA.analyze ~body () in
  let cert = D.certify ~alias ~body in
  Alcotest.(check int) "no pair certified" 0 (D.count cert);
  Alcotest.check check_verdict "verdict still may" MA.May_alias
    (MA.verdict alias s1 l1)

let test_known_alias_never_certified () =
  let body, _, s1, l2, _ = bump_body () in
  (* a rollback taught the runtime this pair aliased: even though the
     engine could prove the addresses apart (it cannot — the pair
     genuinely never overlaps — but the point is precedence), known
     pairs are excluded from certification *)
  let alias = MA.analyze ~known_alias:[ (s1.I.id, l2.I.id) ] ~body () in
  let cert = D.certify ~alias ~body in
  Alcotest.(check bool) "known pair not certified" false
    (D.no_alias cert s1.I.id l2.I.id)

(* ---- soundness: certified pairs never overlap when executed ---- *)

let overlap_of_trace (tr : Frontend.Interp.trace) cert =
  let events = tr.Frontend.Interp.events in
  List.exists
    (fun (e1 : Frontend.Interp.mem_event) ->
      List.exists
        (fun (e2 : Frontend.Interp.mem_event) ->
          e1.Frontend.Interp.instr_id < e2.Frontend.Interp.instr_id
          && (e1.Frontend.Interp.is_store || e2.Frontend.Interp.is_store)
          && D.no_alias cert e1.Frontend.Interp.instr_id
               e2.Frontend.Interp.instr_id
          && Hw.Access.overlap e1.Frontend.Interp.range
               e2.Frontend.Interp.range)
        events)
    events

let certify_soundness_prop seed =
  let params =
    {
      Workload.Genprog.default_params with
      Workload.Genprog.n_instrs = 60;
      mem_fraction = 0.45;
      collide_fraction = 0.3;
      n_bases = 3;
    }
  in
  let sb, bases = Workload.Genprog.superblock ~seed ~params in
  let body = sb.Ir.Superblock.body in
  let alias = MA.analyze ~body () in
  let cert = D.certify ~alias ~body in
  let machine = Vliw.Machine.create () in
  List.iter
    (fun (reg, v) -> Vliw.Machine.set_reg machine reg v)
    (Workload.Genprog.setup_machine_regs ~params ~bases);
  let tr = Frontend.Interp.trace_superblock machine sb in
  if overlap_of_trace tr cert then
    QCheck.Test.fail_report
      (Printf.sprintf "seed %d: certified pair overlapped at runtime" seed)
  else true

(* End-to-end: every scheme, certification on, final state must match
   the interpreter and no alias fault may land on a certified pair. *)
let all_schemes =
  [
    Smarq.Scheme.Smarq 64;
    Smarq.Scheme.Smarq 16;
    Smarq.Scheme.Smarq_no_store_reorder 64;
    Smarq.Scheme.Naive_order 64;
    Smarq.Scheme.Alat;
    Smarq.Scheme.Efficeon;
    Smarq.Scheme.None_static;
  ]

let certify_all_schemes_prop seed =
  let program = Workload.Genprog.program ~seed ~n_loops:2 ~iters:100 in
  let ref_m = Vliw.Machine.create () in
  ignore (interp_run ~fuel:50_000_000 ref_m program);
  List.for_all
    (fun scheme ->
      let r =
        Smarq.run_program
          ~config:
            { Runtime.Config.default with fuel = 50_000_000; unroll = 4; certify = true }
          ~scheme program
      in
      let st = r.Runtime.Driver.stats in
      if st.Runtime.Stats.certified_alias_faults > 0 then
        QCheck.Test.fail_report
          (Printf.sprintf "seed %d under %s: %d faults on certified pairs"
             seed (Smarq.Scheme.name scheme)
             st.Runtime.Stats.certified_alias_faults)
      else if
        not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
      then
        QCheck.Test.fail_report
          (Printf.sprintf "seed %d under %s: diverged with certification"
             seed (Smarq.Scheme.name scheme))
      else true)
    all_schemes

let suite =
  ( "disamb",
    [
      case "absint folds constants" test_absint_const_folding;
      case "absint tracks bumped entry bases" test_absint_entry_bump;
      case "absint derives mask strides" test_absint_mask_stride;
      case "separation arguments" test_separated_cases;
      case "bump pairs certified" test_certify_bump_pairs;
      case "congruence probe certified" test_certify_congruence_probe;
      case "cross-base pairs not certified" test_cross_base_not_certified;
      case "known-alias pairs never certified"
        test_known_alias_never_certified;
      qcase ~count:60 "certified pairs disjoint in execution"
        QCheck.(int_bound 10_000)
        certify_soundness_prop;
      qcase ~count:6 "all schemes sound under certification"
        QCheck.(int_bound 1_000)
        certify_all_schemes_prop;
    ] )
