(* Translation validation: the static region verifier, its mutation
   harness, and the driver/campaign wiring.

   - Clean-verify property: every region any scheme produces from a
     random program must verify [Pass] — the verifier may be
     conservative but must never reject an honestly built region.
   - Mutation kill tests: every mutation class the harness can apply
     must be rejected, with (at least one of) its expected rule ids.
   - Driver wiring: --verify-regions counts verified regions, leaves
     execution results untouched, and degrades rejected regions.
   - Campaign wiring: the JSON verdict stream carries the static
     counters and the cross-check verdict; the fault-free cells
     mutate every class; the one gate fails on a surviving mutant or a
     divergence. *)

open Helpers
module V = Check.Verifier
module M = Check.Mutate

let verify o =
  V.verify ~issue_width:4 ~mem_ports:2 ~latency:default_latency o

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun (v : V.violation) -> V.rule_name v.V.rule ^ ": " ^ v.V.detail)
       vs)

(* the seven schemes of the acceptance matrix, as scheduler policies *)
let scheme_policies =
  [
    ("smarq64", fun () -> Sched.Policy.smarq ~ar_count:64);
    ("smarq16", fun () -> Sched.Policy.smarq ~ar_count:16);
    ("smarq64-nosr", fun () -> Sched.Policy.smarq_no_store_reorder ~ar_count:64);
    ("naive64", fun () -> Sched.Policy.naive_order ~ar_count:64);
    ("alat", fun () -> Sched.Policy.alat ());
    ("efficeon", fun () -> Sched.Policy.efficeon ());
    ("none", fun () -> Sched.Policy.none ());
  ]

(* ---- clean-verify: honest artifacts always pass ---- *)

let prop_verifies_clean (seed, params) =
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  List.for_all
    (fun (name, mk) ->
      let o = optimize ~policy:(mk ()) sb in
      match verify o with
      | V.Pass -> true
      | V.Reject vs ->
        QCheck.Test.fail_reportf "%s rejected an honest region: %s" name
          (pp_violations vs))
    scheme_policies

(* a fixed deterministic sweep on top of the property, so a verifier
   regression fails even with QCheck seeds shuffled *)
let test_clean_fixed_seeds () =
  let params =
    Workload.Genprog.
      {
        n_instrs = 60;
        mem_fraction = 0.6;
        store_fraction = 0.5;
        n_bases = 3;
        collide_fraction = 0.3;
        side_exit_every = Some 12;
      }
  in
  for seed = 1 to 12 do
    let sb, _ = Workload.Genprog.superblock ~seed ~params in
    List.iter
      (fun (name, mk) ->
        let o = optimize ~policy:(mk ()) sb in
        match verify o with
        | V.Pass -> ()
        | V.Reject vs ->
          Alcotest.failf "%s seed %d rejected: %s" name seed (pp_violations vs))
      scheme_policies
  done

(* ---- mutation testing: every class generated, every mutant killed
   with an expected rule ---- *)

let mutation_classes =
  [
    M.Drop_check;
    M.Swap_orders;
    M.Widen_offset;
    M.Delete_amov;
    M.Drop_advanced;
    M.Clear_mask_bit;
    M.Hoist_across_hazard;
    M.Delete_instr;
    M.Over_rotate;
  ]

let test_mutants_killed () =
  let params =
    Workload.Genprog.
      {
        n_instrs = 60;
        mem_fraction = 0.6;
        store_fraction = 0.5;
        n_bases = 3;
        collide_fraction = 0.3;
        side_exit_every = Some 12;
      }
  in
  let seen : (M.mutation, unit) Hashtbl.t = Hashtbl.create 16 in
  for seed = 1 to 25 do
    let sb, _ = Workload.Genprog.superblock ~seed ~params in
    List.iter
      (fun (name, mk) ->
        let o = optimize ~policy:(mk ()) sb in
        let s =
          M.run ~issue_width:4 ~mem_ports:2 ~latency:default_latency o
        in
        if not s.M.baseline_pass then
          Alcotest.failf "%s seed %d: baseline rejected" name seed;
        List.iter
          (fun (oc : M.outcome) ->
            Hashtbl.replace seen oc.M.mutation ();
            if not oc.M.killed then
              Alcotest.failf "%s seed %d: mutant %s SURVIVED (rules hit: %s)"
                name seed
                (M.mutation_name oc.M.mutation)
                (String.concat ", " (List.map V.rule_name oc.M.rules_hit));
            (* killed means an expected rule fired — re-assert the rule
               id mapping explicitly so it can't drift silently *)
            if
              not
                (List.exists
                   (fun r -> List.mem r (M.expected_rules oc.M.mutation))
                   oc.M.rules_hit)
            then
              Alcotest.failf "%s seed %d: mutant %s killed by wrong rule" name
                seed
                (M.mutation_name oc.M.mutation))
          s.M.outcomes)
      scheme_policies
  done;
  List.iter
    (fun m ->
      if not (Hashtbl.mem seen m) then
        Alcotest.failf "mutation class %s was never generated" (M.mutation_name m))
    mutation_classes

(* ---- driver wiring: --verify-regions ---- *)

let counting_program ~iters =
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
        I.Load { dst = f 1; addr = { I.base = a; disp = 0 }; width = 8;
                 annot = Ir.Annot.none };
        I.Store { src = I.Reg (f 1); addr = { I.base = b; disp = 0 };
                  width = 8; annot = Ir.Annot.none };
        I.Load { dst = f 2; addr = { I.base = a; disp = 8 }; width = 8;
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

let test_driver_verify_all () =
  let program = counting_program ~iters:400 in
  let off = Smarq.run_program ~scheme:(Smarq.Scheme.Smarq 64) program in
  let all =
    Smarq.run_program
      ~config:{ Runtime.Config.default with verify = V.All }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  let off_st = off.Runtime.Driver.stats and all_st = all.Runtime.Driver.stats in
  Alcotest.(check int) "off mode verifies nothing" 0
    off_st.Runtime.Stats.verified_regions;
  Alcotest.(check bool) "all mode verifies every built region" true
    (all_st.Runtime.Stats.verified_regions
    = all_st.Runtime.Stats.regions_built
    + all_st.Runtime.Stats.reoptimizations);
  Alcotest.(check int) "no honest region is rejected" 0
    all_st.Runtime.Stats.rejected_regions;
  Alcotest.(check (list (pair string int))) "empty histogram" []
    (Runtime.Stats.reject_histogram all_st);
  Alcotest.(check int) "verification does not change simulated time"
    off_st.Runtime.Stats.total_cycles all_st.Runtime.Stats.total_cycles;
  Alcotest.(check bool) "final states agree" true
    (Vliw.Machine.equal_guest_state off.Runtime.Driver.machine
       all.Runtime.Driver.machine)

let test_stats_note_reject () =
  let st = Runtime.Stats.create () in
  Runtime.Stats.note_reject st [ "b_rule"; "a_rule"; "b_rule" ];
  Runtime.Stats.note_reject st [ "b_rule" ];
  Alcotest.(check int) "two regions rejected" 2
    st.Runtime.Stats.rejected_regions;
  Alcotest.(check (list (pair string int)))
    "histogram dedups per region and sorts"
    [ ("a_rule", 1); ("b_rule", 2) ]
    (Runtime.Stats.reject_histogram st)

(* ---- campaign verdict stream ---- *)

let counting_bench =
  {
    Workload.Specfp.name = "counting";
    default_iters = 300;
    make = (fun ~iters -> counting_program ~iters);
    description = "a streaming copy loop";
  }

let test_campaign_static_verdicts () =
  let runs =
    (Verify.Campaign.run ~domains:1
       { Verify.Campaign.default_config with Verify.Campaign.seeds = [ 1 ] }
       [ counting_bench ])
      .Verify.Campaign.runs
  in
  Alcotest.(check int)
    "one run per (scheme, certify, fault plan), then per (scheme, fault \
     plan) on a shared shard"
    (3 * 2 * List.length Verify.Campaign.schemes)
    (List.length runs);
  List.iter
    (fun (c : Verify.Campaign.run) ->
      let e = c.Verify.Campaign.entry in
      Alcotest.(check bool) "campaign verifies regions" true
        (e.Verify.Oracle.stats.Runtime.Stats.verified_regions > 0);
      Alcotest.(check bool) "static verdict clean" true
        (Verify.Oracle.entry_static_ok e);
      Alcotest.(check bool) "cross-check agrees" true
        (Verify.Campaign.cross_check_of_entry e = Verify.Campaign.Both_ok);
      let line = Verify.Campaign.json_line c in
      let contains field =
        let n = String.length line and m = String.length field in
        let rec scan i =
          i + m <= n && (String.sub line i m = field || scan (i + 1))
        in
        scan 0
      in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "json has %s" field)
            true (contains field))
        [
          "\"verified_regions\":";
          "\"rejected_regions\":0";
          "\"static_ok\":true";
          "\"cross_check\":\"both_ok\"";
        ])
    runs

(* ---- the campaign's one gate ---- *)

(* Every constructor, through an exhaustive match: a new mutation class
   fails to compile here until the campaign test below covers it. *)
let every_mutation =
  let next : M.mutation -> M.mutation option = function
    | M.Drop_check -> Some M.Swap_orders
    | M.Swap_orders -> Some M.Widen_offset
    | M.Widen_offset -> Some M.Delete_amov
    | M.Delete_amov -> Some M.Drop_advanced
    | M.Drop_advanced -> Some M.Clear_mask_bit
    | M.Clear_mask_bit -> Some M.Hoist_across_hazard
    | M.Hoist_across_hazard -> Some M.Delete_instr
    | M.Delete_instr -> Some M.Over_rotate
    | M.Over_rotate -> Some M.Shift_witness_range
    | M.Shift_witness_range -> Some M.Widen_witness_range
    | M.Widen_witness_range -> Some M.Swap_witness_origin
    | M.Swap_witness_origin -> Some M.Drop_witness
    | M.Drop_witness -> Some M.Forge_witness
    | M.Forge_witness -> Some M.Desync_region_cert
    | M.Desync_region_cert -> Some M.Bogus_witness_endpoint
    | M.Bogus_witness_endpoint -> None
  in
  let rec from m = m :: Option.fold ~none:[] ~some:from (next m) in
  from M.Drop_check

let fault_free_campaign benches =
  Verify.Campaign.run ~domains:1
    { Verify.Campaign.default_config with Verify.Campaign.seeds = [] }
    benches

let test_campaign_every_mutation_class () =
  let result = fault_free_campaign [ Workload.Specfp.find "ammp" ] in
  Alcotest.(check bool) "campaign gate holds" true (Verify.Campaign.ok result);
  let outcomes =
    List.concat_map
      (fun (c : Verify.Campaign.run) ->
        List.concat_map
          (fun (s : M.summary) -> s.M.outcomes)
          c.Verify.Campaign.mutations)
      result.Verify.Campaign.runs
  in
  List.iter
    (fun m ->
      let of_class =
        List.filter (fun (o : M.outcome) -> o.M.mutation = m) outcomes
      in
      if of_class = [] then
        Alcotest.failf "mutation class %s was never generated"
          (M.mutation_name m);
      List.iter
        (fun (o : M.outcome) ->
          if not o.M.killed then
            Alcotest.failf "a %s mutant SURVIVED" (M.mutation_name m))
        of_class)
    every_mutation

let test_campaign_gate () =
  let result = fault_free_campaign [ counting_bench ] in
  Alcotest.(check bool) "clean campaign passes" true
    (Verify.Campaign.ok result);
  (* [f] rewrites the first run it applies to *)
  let with_first_run f =
    let rec go = function
      | [] -> Alcotest.fail "no run to corrupt"
      | r :: rest -> (
        match f r with Some r' -> r' :: rest | None -> r :: go rest)
    in
    { result with Verify.Campaign.runs = go result.Verify.Campaign.runs }
  in
  let survivor =
    with_first_run (fun (r : Verify.Campaign.run) ->
        match r.Verify.Campaign.mutations with
        | ({ M.outcomes = o :: os; _ } as s) :: rest ->
          let s =
            {
              s with
              M.killed = s.M.killed - 1;
              outcomes = { o with M.killed = false } :: os;
            }
          in
          Some { r with Verify.Campaign.mutations = s :: rest }
        | _ -> None)
  in
  Alcotest.(check bool) "a surviving mutant fails the gate" false
    (Verify.Campaign.ok survivor);
  let diverged =
    with_first_run (fun (r : Verify.Campaign.run) ->
        let e = r.Verify.Campaign.entry in
        Some
          {
            r with
            Verify.Campaign.entry =
              { e with Verify.Oracle.divergence = [ "reg r1: 1 vs 2" ] };
          })
  in
  Alcotest.(check bool) "a divergence fails the gate" false
    (Verify.Campaign.ok diverged)

(* Dependence completeness runs without a certificate too: a
   certify-off smarq64 artifact whose dependence graph lost one
   may-alias edge (rebuilt here with that pair marked certified, but no
   certificate in the artifact) is rejected with [dep_missing].  The
   store consumes the load's value, so the schedule keeps the pair in
   order, and the hazards are rebuilt from the lossy graph: no
   scheduling rule can notice the missing edge. *)
let test_lost_edge_rejected_without_cert () =
  reset_ids ();
  let l1 = ld (f 0) (r 2) 0 in
  let use = fadd (f 1) (f 0) (f 0) in
  let s1 = st (I.Reg (f 1)) (r 1) 0 in
  let body = [ l1; use; s1 ] in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) (sb_of body) in
  Alcotest.(check bool) "certify off" true (o.Opt.Optimizer.cert = None);
  (match verify o with
  | V.Pass -> ()
  | V.Reject vs -> Alcotest.failf "honest artifact rejected: %s" (pp_violations vs));
  let alias = Analysis.May_alias.analyze ~body () in
  Analysis.May_alias.set_certified alias
    [| Analysis.Pair_key.norm l1.I.id s1.I.id |];
  let deps = Analysis.Depgraph.build ~body ~alias () in
  Alcotest.(check int) "the may-alias edge is gone" 0
    (List.length (Analysis.Depgraph.edges deps));
  let hazards =
    Sched.Hazards.build ~sb:o.Opt.Optimizer.region.Ir.Region.source ~deps
      ~policy:o.Opt.Optimizer.policy_used ()
  in
  match verify { o with Opt.Optimizer.deps; hazards } with
  | V.Pass -> Alcotest.fail "lost dependence edge passed"
  | V.Reject vs ->
    Alcotest.(check (list string)) "rejected for the missing edge only"
      [ "dep_missing" ]
      (List.map (fun (v : V.violation) -> V.rule_name v.V.rule) vs)

(* ---- the dropped-pair rule: each way a dropped key can be illegal *)

(* [o] with its hazard graph's dropped keys replaced by [keys] (sorted:
   the record's keys are ascending) *)
let with_dropped (o : Opt.Optimizer.t) keys =
  let keys = Array.of_list (List.sort_uniq compare keys) in
  { o with Opt.Optimizer.hazards = { o.Opt.Optimizer.hazards with Sched.Hazards.dropped = keys } }

let expect_dropped_illegal what o =
  match verify o with
  | V.Pass -> Alcotest.failf "%s passed" what
  | V.Reject vs ->
    Alcotest.(check (list string))
      (what ^ ": rejected by the dropped-pair rule only")
      [ "dropped_illegal" ]
      (List.sort_uniq compare
         (List.map (fun (v : V.violation) -> V.rule_name v.V.rule) vs))

(* a store and two loads through other bases: two droppable
   speculative store->load dependences, and no dependence between the
   loads *)
let store_two_loads () =
  reset_ids ();
  let s = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 0) (r 2) 0 in
  let l2 = ld (f 1) (r 3) 0 in
  (s, l1, l2, sb_of [ s; l1; l2 ])

let honest what o =
  match verify o with
  | V.Pass -> ()
  | V.Reject vs -> Alcotest.failf "%s: honest artifact rejected: %s" what (pp_violations vs)

let test_dropped_not_speculative () =
  let _, l1, l2, sb = store_two_loads () in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
  honest "smarq64" o;
  let genuine = Array.to_list o.Opt.Optimizer.hazards.Sched.Hazards.dropped in
  Alcotest.(check int) "both store->load pairs dropped" 2 (List.length genuine);
  expect_dropped_illegal "load-load key"
    (with_dropped o (Analysis.Pair_key.pack l1.I.id l2.I.id :: genuine))

let test_dropped_endpoint_missing () =
  let s, _, _, sb = store_two_loads () in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
  let genuine = Array.to_list o.Opt.Optimizer.hazards.Sched.Hazards.dropped in
  expect_dropped_illegal "key to an id outside the body"
    (with_dropped o (Analysis.Pair_key.pack s.I.id 9_999 :: genuine))

let test_dropped_policy_forbids () =
  let s, l1, _, sb = store_two_loads () in
  let o = optimize ~policy:(Sched.Policy.none ()) sb in
  honest "none" o;
  Alcotest.(check int) "nothing dropped under none" 0
    (Array.length o.Opt.Optimizer.hazards.Sched.Hazards.dropped);
  expect_dropped_illegal "speculative pair dropped under none"
    (with_dropped o [ Analysis.Pair_key.pack s.I.id l1.I.id ])

(* A body that names two instructions by one id is rejected by the
   verifier's own uniqueness rule: the honest artifact of a two-load
   body, with a [Nop] that reuses the first load's id appended to the
   region's source.  Nothing is rebuilt, so the hazard builder (which
   refuses such a body) never sees it. *)
let test_repeated_body_id_rejected () =
  reset_ids ();
  let l1 = ld (f 0) (r 1) 0 in
  let l2 = ld (f 1) (r 2) 0 in
  let sb = sb_of [ l1; l2 ] in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
  honest "two loads" o;
  let dup = I.make ~id:l1.I.id I.Nop in
  let region =
    {
      o.Opt.Optimizer.region with
      Ir.Region.source = { sb with Ir.Superblock.body = [ l1; l2; dup ] };
    }
  in
  match verify { o with Opt.Optimizer.region } with
  | V.Pass -> Alcotest.fail "a body with a repeated id passed"
  | V.Reject vs ->
    Alcotest.(check (list string)) "rejected as incomplete only"
      [ "sched_complete" ]
      (List.map (fun (v : V.violation) -> V.rule_name v.V.rule) vs)

(* [add_anti] as a no-op, in unit form.  An honest smarq64 artifact
   in which an anti-constrained op [y] takes the order of its in-order
   dependence predecessor [x]: in [y]'s annotation and in the
   allocation record, with the anti edge deleted from the record.  The
   first such edge is used whose [x] is still in [y]'s window, keeps
   its range in place (no AMOV moves it) and whose deletion leaves
   every other recorded constraint satisfied: every record still
   agrees with the region, but [y] now compares [x]'s register, a
   false positive on a may-alias pair the region itself shows. *)
let test_spurious_compare_rejected () =
  let params =
    Workload.Genprog.
      {
        n_instrs = 60;
        mem_fraction = 0.6;
        store_fraction = 0.5;
        n_bases = 3;
        collide_fraction = 0.3;
        side_exit_every = Some 12;
      }
  in
  let module C = Analysis.Constraints in
  let real_edge (o : Opt.Optimizer.t) x y =
    List.exists
      (fun (e : Analysis.Depgraph.edge) ->
        e.kind = Analysis.Depgraph.Real && e.first = x && e.second = y)
      (Analysis.Depgraph.edges o.Opt.Optimizer.deps)
  in
  (* the artifact with anti edge [e] dropped and [y] at order [ox] *)
  let without_anti (o : Opt.Optimizer.t) (res : Sched.Smarq_alloc.result) e ox by =
    let y = e.C.second in
    let ids = res.Sched.Smarq_alloc.slot_ids in
    let orders = Array.copy res.Sched.Smarq_alloc.orders in
    for s = 0 to res.Sched.Smarq_alloc.slots - 1 do
      if ids.(s) = y then orders.(s) <- ox
    done;
    let antis = res.Sched.Smarq_alloc.antis in
    let kept =
      List.filter
        (fun k -> ids.(antis.(2 * k)) <> e.C.first || ids.(antis.((2 * k) + 1)) <> y)
        (List.init (Array.length antis / 2) Fun.id)
    in
    let antis =
      Array.of_list (List.concat_map (fun k -> [ antis.(2 * k); antis.((2 * k) + 1) ]) kept)
    in
    let res = { res with Sched.Smarq_alloc.orders; antis } in
    let retarget (i : I.t) =
      match Ir.Instr.annot i with
      | Ir.Annot.Queue { p; c; _ } when i.I.id = y ->
        Ir.Instr.with_annot i (Ir.Annot.queue ~offset:(ox - by) ~p ~c)
      | _ -> i
    in
    let region = o.Opt.Optimizer.region in
    let region =
      { region with Ir.Region.bundles = Array.map (List.map retarget) region.Ir.Region.bundles }
    in
    let consistent =
      let a, edges = allocation_of res in
      C.validate a ~edges ~ar_count:64 = Ok ()
    in
    if consistent then Some { o with Opt.Optimizer.region; alloc_result = Some res } else None
  in
  let candidate seed =
    let sb, _ = Workload.Genprog.superblock ~seed ~params in
    let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
    match o.Opt.Optimizer.alloc_result with
    | None -> None
    | Some res ->
      let v = Sched.Smarq_alloc.allocation_tables res in
      let a = v.Sched.Smarq_alloc.allocation in
      let moved x =
        List.exists
          (fun (m : Sched.Smarq_alloc.amov_insertion) -> m.src_instr = x)
          res.Sched.Smarq_alloc.amovs
      in
      List.find_map
        (fun (e : C.edge) ->
          match Hashtbl.find_opt a.C.order e.C.first, Hashtbl.find_opt a.C.base e.C.second with
          | Some ox, Some by
            when by <= ox && real_edge o e.C.first e.C.second && not (moved e.C.first) ->
            Option.map (fun o' -> (o, o')) (without_anti o res e ox by)
          | _ -> None)
        v.Sched.Smarq_alloc.anti_edges
  in
  match List.find_map candidate (List.init 25 succ) with
  | None -> Alcotest.fail "no smarq64 artifact has a usable anti edge"
  | Some (o, o') ->
    honest "smarq64" o;
    match verify o' with
    | V.Pass -> Alcotest.fail "a region comparing an in-order may-alias pair passed"
    | V.Reject vs ->
      Alcotest.(check (list string)) "rejected as a spurious comparison only"
        [ "queue_spurious" ]
        (List.sort_uniq compare
           (List.map (fun (v : V.violation) -> V.rule_name v.V.rule) vs))

let suite =
  ( "check",
    [
      qcase ~count:60 "every scheme's regions verify clean"
        Suite_props.sb_arb prop_verifies_clean;
      case "fixed-seed clean sweep over 7 schemes" test_clean_fixed_seeds;
      case "every mutation class generated and killed" test_mutants_killed;
      case "driver --verify-regions=all" test_driver_verify_all;
      case "stats reject histogram" test_stats_note_reject;
      case "campaign static verdict stream" test_campaign_static_verdicts;
      case "campaign mutates every class on ammp"
        test_campaign_every_mutation_class;
      case "campaign gate fails on a survivor or a divergence"
        test_campaign_gate;
      case "lost dependence edge rejected without a certificate"
        test_lost_edge_rejected_without_cert;
      case "dropped key that is no speculative dependence rejected"
        test_dropped_not_speculative;
      case "dropped key with an endpoint outside the body rejected"
        test_dropped_endpoint_missing;
      case "dropped pair the policy may not drop rejected"
        test_dropped_policy_forbids;
      case "a body that repeats an id rejected"
        test_repeated_body_id_rejected;
      case "queue region comparing an in-order may-alias pair rejected"
        test_spurious_compare_rejected;
    ] )
