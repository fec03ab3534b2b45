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
  let t = AI.analyze ~body:[ m1; a1; l1 ] () in
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
  let t = AI.analyze ~body:[ l1; b1; l2 ] () in
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
  let t = AI.analyze ~body:[ a1; a2; l1 ] () in
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
  let cert = D.certify ~alias ~body () in
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
  let cert = D.certify ~alias ~body () in
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
  let cert = D.certify ~alias ~body () in
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
  let cert = D.certify ~alias ~body () in
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
  let cert = D.certify ~alias ~body () in
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


(* ---- the flat evaluator against the record-and-table oracle ---- *)

module O = Oracle_absint
module W = Check.Witness

(* the checker's replayed address of memory op [k], decoded *)
let replayed out k : AI.value option =
  let b = k * W.cell_size in
  let anchor = out.(b + W.f_anchor) in
  if anchor = W.a_none then None
  else
    let code = out.(b + W.f_arg) in
    let origin =
      if anchor = W.a_const then AI.Const
      else if anchor = W.a_opaque then AI.Opaque code
      else
        AI.Entry
          (match code mod 3 with
          | 0 -> Ir.Reg.R (code / 3)
          | 1 -> Ir.Reg.F (code / 3)
          | _ -> Ir.Reg.T (code / 3))
    in
    Some
      {
        AI.origin;
        scale = out.(b + W.f_mul);
        off =
          {
            AI.lo = out.(b + W.f_rlo);
            hi = out.(b + W.f_rhi);
            stride = out.(b + W.f_rstep);
            rem = out.(b + W.f_rres);
          };
      }

(* [None] when the body agrees everywhere, else what differs *)
let absint_mismatch ?(known_alias = []) body =
  let flat = AI.analyze ~body () and slow = O.analyze ~body in
  let out = W.replay_addresses (Array.of_list body) in
  let k = ref 0 in
  let bad =
    List.find_map
      (fun (i : I.t) ->
        let a = AI.address flat i.I.id and b = O.address slow i.I.id in
        let mem = I.is_memory i in
        let replay_ok =
          (not mem)
          ||
          let x = !k in
          incr k;
          replayed out x = Option.map fst b
        in
        if a <> b then Some (Printf.sprintf "address of #%d differs from the oracle's" i.I.id)
        else if not replay_ok then
          Some (Printf.sprintf "checker replay of #%d differs from the oracle's" i.I.id)
        else None)
      body
  in
  match bad with
  | Some _ -> bad
  | None ->
    (* the certificate, with the facts reused and computed afresh *)
    let cert_differs alias =
      let cert = D.certify ~alias ~body () in
      let o = O.certify ~alias ~body in
      D.keys cert <> o.O.keys || D.witnesses cert <> o.O.ws
    in
    if cert_differs (MA.analyze ~known_alias ~const_facts:flat ~body ()) then
      Some "certificate (shared facts) differs from the oracle's"
    else if cert_differs (MA.analyze ~known_alias ~body ()) then
      Some "certificate differs from the oracle's"
    else None

let report = function
  | None -> true
  | Some why -> QCheck.Test.fail_report why

(* Straight-line bodies built to reach every transfer rule: ALU ops of
   every kind over a few registers, with immediates near the masks,
   shift counts and magnitude guard the rules test, and loads and
   stores through those registers. *)
let arith_body_gen =
  let open QCheck.Gen in
  let reg = oneofl [ r 1; r 2; r 3; Ir.Reg.T 0; Ir.Reg.T 1; f 0 ] in
  let imm =
    oneofl
      [ 0; 1; 2; 3; 4; 8; 16; 24; 31; 33; 49; 50; 63; -8; -1; 0xf8; 0xff0; 127;
        1 lsl 49; (1 lsl 50) + 1; -(1 lsl 50); max_int; min_int ]
  in
  let operand = frequency [ (3, map (fun r -> I.Reg r) reg); (2, map (fun n -> I.Imm n) imm) ] in
  let binop = oneofl I.[ Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr ] in
  let width = oneofl [ 4; 8 ] in
  let disp = oneofl [ 0; 4; 8; 16; 64; -8; 1 lsl 49 ] in
  let op =
    frequency
      [
        (2, map2 (fun d s -> I.Mov (d, s)) reg operand);
        (1, map2 (fun d s -> I.Unop_neg (d, s)) reg operand);
        (8, map4 (fun o d a b -> I.Binop (o, d, a, b)) binop reg operand operand);
        (1, map3 (fun d a b -> I.Cmp (I.Lt, d, a, b)) reg operand operand);
        (1, map3 (fun d a b -> I.Fbinop (I.Fadd, d, a, b)) reg operand operand);
        ( 3,
          map4
            (fun dst base disp width ->
              I.Load { dst; addr = { I.base; disp }; width; annot = Ir.Annot.none })
            reg reg disp width );
        ( 3,
          map4
            (fun src base disp width ->
              I.Store { src; addr = { I.base; disp }; width; annot = Ir.Annot.none })
            operand reg disp width );
      ]
  in
  map (List.mapi (fun id op -> I.make ~id op)) (list_size (int_range 5 60) op)

let arith_body_arb =
  QCheck.make ~print:(fun body -> String.concat "\n" (List.map I.to_string body)) arith_body_gen

let prop_arith_matches_oracle body = report (absint_mismatch body)

let prop_genprog_matches_oracle (seed, n_instrs) =
  let params =
    { Workload.Genprog.default_params with n_instrs; mem_fraction = 0.45; n_bases = 3 }
  in
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  report (absint_mismatch sb.Ir.Superblock.body)

(* Every region the suite translates under the eight campaign schemes,
   with the campaign's configuration and certification on: the
   superblock body and the final (post-
   elimination) body agree with the oracle, and the artifact's own
   certificate is the oracle's for its final body. *)
let test_captured_regions_match_oracle () =
  let bodies = ref 0 in
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      List.iter
        (fun scheme ->
          let _, config, requests =
            Exec.Translate.capture_program
              ~config:{ Runtime.Config.default with certify = true }
              ~scheme (Workload.Specfp.program b)
          in
          List.iter
            (fun (req : Opt.Optimizer.request) ->
              let o =
                Opt.Optimizer.run_request ~issue_width:config.Vliw.Config.issue_width
                  ~mem_ports:config.Vliw.Config.mem_ports
                  ~latency:(Vliw.Config.latency config) req
              in
              let final = o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
              let known_alias = req.Opt.Optimizer.known_alias in
              let where = Printf.sprintf "%s under %s" b.Workload.Specfp.name (Smarq.Scheme.name scheme) in
              List.iter
                (fun body ->
                  incr bodies;
                  match absint_mismatch ~known_alias body with
                  | None -> ()
                  | Some why -> Alcotest.failf "%s: %s" where why)
                [ req.Opt.Optimizer.sb.Ir.Superblock.body; final ];
              match o.Opt.Optimizer.cert with
              | None -> ()
              | Some cert ->
                let policy = o.Opt.Optimizer.policy_used in
                let const_facts =
                  if policy.Sched.Policy.static_disambiguation then Some (AI.analyze ~body:final ())
                  else None
                in
                let alias = MA.analyze ~known_alias ?const_facts ~body:final () in
                let oracle = O.certify ~alias ~body:final in
                if D.keys cert <> oracle.O.keys || D.witnesses cert <> oracle.O.ws then
                  Alcotest.failf "%s: the artifact's certificate differs from the oracle's" where)
            requests)
        Verify.Campaign.schemes)
    Workload.Specfp.suite;
  Alcotest.(check bool) "regions compared" true (!bodies > 0)

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
      qcase ~count:300 "flat absint = oracle on arithmetic bodies" arith_body_arb
        prop_arith_matches_oracle;
      qcase ~count:100 "flat absint = oracle on generated superblocks"
        QCheck.(pair (int_bound 1_000_000) (int_range 10 150))
        prop_genprog_matches_oracle;
      case "flat absint = oracle on captured regions, all schemes"
        test_captured_regions_match_oracle;
    ] )
