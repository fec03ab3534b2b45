(* Scheduler and alias-register allocation tests, including the
   paper's worked examples (Figures 2/4/6/7) and cross-validation of
   the integrated allocator against the standalone FAST algorithm. *)

open Helpers
module I = Ir.Instr
module C = Analysis.Constraints

let build ?(policy = Sched.Policy.smarq ~ar_count:64) body =
  let sb = sb_of body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let fresh_id = ref (Ir.Superblock.max_instr_id sb + 100) in
  let outcome =
    scheduled
      (Sched.List_sched.schedule ~sb ~deps ~policy ~issue_width:4
         ~mem_ports:2 ~latency:default_latency ~fresh_id ())
  in
  (outcome, deps)

(* The Figure 2 program: st [r0+4]; ld [r1]; st [r0]; ld [r2]. *)
let figure2 () =
  reset_ids ();
  let m0 = st (I.Imm 10) (r 0) 4 in
  let m1 = ld (f 1) (r 1) 0 in
  let m2 = st (I.Imm 20) (r 0) 0 in
  let m3 = ld (f 3) (r 2) 0 in
  (m0, m1, m2, m3, [ m0; m1; m2; m3 ])

let issue_pos (outcome : Sched.List_sched.outcome) =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun idx (i : I.t) -> Hashtbl.replace tbl i.I.id idx)
    (Ir.Region.instrs outcome.Sched.List_sched.region);
  fun id -> Hashtbl.find tbl id

let test_figure2_reordering () =
  let m0, m1, m2, m3, body = figure2 () in
  let outcome, _ = build body in
  let pos = issue_pos outcome in
  (* loads hoist above the may-alias stores *)
  Alcotest.(check bool) "ld [r1] above st [r0]" true (pos m1.I.id < pos m2.I.id);
  Alcotest.(check bool) "ld [r2] above st [r0+4]" true
    (pos m3.I.id < pos m0.I.id);
  (* annotations: both loads protected, both stores check *)
  let annot_of id =
    List.find_map
      (fun (i : I.t) -> if i.I.id = id then Some (I.annot i) else None)
      (Ir.Region.instrs outcome.Sched.List_sched.region)
  in
  (match annot_of m1.I.id with
  | Some (Ir.Annot.Queue q) ->
    Alcotest.(check bool) "M1 has P" true q.Ir.Annot.p
  | _ -> Alcotest.fail "M1 lacks queue annotation");
  (match annot_of m3.I.id with
  | Some (Ir.Annot.Queue q) -> Alcotest.(check bool) "M3 has P" true q.Ir.Annot.p
  | _ -> Alcotest.fail "M3 lacks queue annotation");
  (match annot_of m2.I.id with
  | Some (Ir.Annot.Queue q) -> Alcotest.(check bool) "M2 has C" true q.Ir.Annot.c
  | _ -> Alcotest.fail "M2 lacks queue annotation");
  match annot_of m0.I.id with
  | Some (Ir.Annot.Queue q) -> Alcotest.(check bool) "M0 has C" true q.Ir.Annot.c
  | _ -> Alcotest.fail "M0 lacks queue annotation"

let test_figure4_no_unnecessary_check () =
  (* M0 (st [r0+4]) and M2 (st [r0]) are compiler-disambiguated: no
     constraint between them even though reordered. *)
  let m0, _, m2, _, body = figure2 () in
  let outcome, _ = build body in
  match outcome.Sched.List_sched.alloc_result with
  | None -> Alcotest.fail "queue scheme expected"
  | Some r ->
    let between a b =
      List.exists
        (fun (e : C.edge) ->
          (e.C.first = a && e.C.second = b)
          || (e.C.first = b && e.C.second = a))
        (snd (allocation_of r))
    in
    Alcotest.(check bool) "no M0/M2 constraint" false
      (between m0.I.id m2.I.id)

let test_constraints_validate () =
  let _, _, _, _, body = figure2 () in
  let outcome, _ = build body in
  match outcome.Sched.List_sched.alloc_result with
  | None -> Alcotest.fail "queue scheme expected"
  | Some r ->
    (match
       let a, edges = allocation_of r in
       C.validate a ~edges ~ar_count:64
     with
    | Ok () -> ()
    | Error problems ->
      Alcotest.fail
        (String.concat "; "
           (List.map (function C.Unsatisfied m | C.Window m -> m) problems)))

let test_register_deps_respected () =
  reset_ids ();
  let a = mk (I.Binop (I.Add, r 1, I.Imm 1, I.Imm 2)) in
  let b = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 3)) in
  let c = mk (I.Binop (I.Add, r 1, I.Imm 9, I.Imm 9)) in
  (* RAW a->b, WAR b->c, WAW a->c *)
  let outcome, _ = build [ a; b; c ] in
  let pos = issue_pos outcome in
  Alcotest.(check bool) "RAW" true (pos a.I.id < pos b.I.id);
  Alcotest.(check bool) "WAR" true (pos b.I.id < pos c.I.id)

let test_latency_respected () =
  reset_ids ();
  (* a load feeding an add: the add issues at least load_latency later *)
  let l = ld (f 1) (r 1) 0 in
  let a = mk (I.Fbinop (I.Fadd, f 2, I.Reg (f 1), I.Reg (f 1))) in
  let outcome, _ = build [ l; a ] in
  let region = outcome.Sched.List_sched.region in
  let cycle_of id =
    let found = ref (-1) in
    Array.iteri
      (fun c bundle ->
        if List.exists (fun (i : I.t) -> i.I.id = id) bundle then found := c)
      region.Ir.Region.bundles;
    !found
  in
  Alcotest.(check bool) "load-to-use latency" true
    (cycle_of a.I.id - cycle_of l.I.id >= Vliw.Config.default.Vliw.Config.load_latency)

let test_issue_width_respected () =
  reset_ids ();
  let body = List.init 12 (fun k -> movi (r (k mod 8)) k) in
  (* 8 independent movs (into r0..r7) but WAW on repeats serializes
     some; check no bundle exceeds width 4 *)
  let outcome, _ = build body in
  Array.iter
    (fun bundle ->
      Alcotest.(check bool) "bundle within width" true (List.length bundle <= 4))
    outcome.Sched.List_sched.region.Ir.Region.bundles

let test_mem_ports_respected () =
  reset_ids ();
  let body = List.init 8 (fun k -> ld (f k) (r 1) (k * 8)) in
  let outcome, _ = build body in
  Array.iter
    (fun bundle ->
      let mems = List.filter I.is_memory bundle in
      Alcotest.(check bool) "memory ports" true (List.length mems <= 2))
    outcome.Sched.List_sched.region.Ir.Region.bundles

let test_none_policy_preserves_memory_order () =
  let _, _, _, _, body = figure2 () in
  let outcome, _ = build ~policy:(Sched.Policy.none ()) body in
  let mems =
    List.filter I.is_memory (Ir.Region.instrs outcome.Sched.List_sched.region)
  in
  let ids = List.map (fun (i : I.t) -> i.I.id) mems in
  (* may-alias pairs keep program order; the only compiler-disjoint
     pair is (m0, m2), so loads stay below earlier stores *)
  Alcotest.(check bool) "no speculation annotations" true
    (List.for_all
       (fun (i : I.t) -> I.annot i = Ir.Annot.No_annot)
       (Ir.Region.instrs outcome.Sched.List_sched.region));
  (* m1 (id 2) after m0 (id 1); m3 (id 4) after m2 (id 3) *)
  let posn id = Option.get (List.find_index (Int.equal id) ids) in
  Alcotest.(check bool) "ld [r1] stays below st [r0+4]" true
    (posn 2 > posn 1);
  Alcotest.(check bool) "ld [r2] stays below st [r0]" true (posn 4 > posn 3)

let test_store_reorder_policy () =
  reset_ids ();
  (* two cross-base stores: reorderable only with store-store support *)
  let i1 = ld (f 1) (r 3) 0 in
  let i2 = fadd (f 1) (f 1) (f 1) in
  let i3 = fadd (f 1) (f 1) (f 1) in
  let slow_st = st (I.Reg (f 1)) (r 1) 0 in
  let cheap_st = st (I.Imm 7) (r 2) 0 in
  let chain = [ i1; i2; i3; slow_st; cheap_st ] in
  let with_sr, _ = build chain in
  let without, _ =
    build ~policy:(Sched.Policy.smarq_no_store_reorder ~ar_count:64) chain
  in
  let pos_with = issue_pos with_sr and pos_without = issue_pos without in
  let slow = slow_st.I.id and cheap = cheap_st.I.id in
  Alcotest.(check bool) "reordered with support" true
    (pos_with cheap < pos_with slow);
  Alcotest.(check bool) "ordered without support" true
    (pos_without cheap > pos_without slow)

let test_side_exit_fences_stores () =
  reset_ids ();
  let s1 = st (I.Imm 1) (r 1) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "out" }) in
  let s2 = st (I.Imm 2) (r 2) 0 in
  let outcome, _ = build [ s1; br; s2 ] in
  let pos = issue_pos outcome in
  Alcotest.(check bool) "store above exit stays above" true
    (pos s1.I.id < pos br.I.id);
  Alcotest.(check bool) "store below exit stays below" true
    (pos s2.I.id > pos br.I.id)

let test_side_exit_allows_dead_load_hoist () =
  reset_ids ();
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "out" }) in
  let l = ld (f 1) (r 1) 0 in
  let use = fadd (f 2) (f 1) (f 1) in
  let live_out = Ir.Reg.Set.of_list [ r 5 ] in
  let sb =
    Ir.Superblock.make ~entry:"t" ~body:[ br; l; use ] ~final_exit:None
      ~source_blocks:[ "t" ]
      ~live_out:[ (br.I.id, live_out) ]
      ()
  in
  let alias = Analysis.May_alias.analyze ~body:sb.Ir.Superblock.body () in
  let deps = Analysis.Depgraph.build ~body:sb.Ir.Superblock.body ~alias () in
  let fresh_id = ref 1000 in
  let outcome =
    scheduled
      (Sched.List_sched.schedule ~sb ~deps
         ~policy:(Sched.Policy.smarq ~ar_count:64)
         ~issue_width:4 ~mem_ports:2 ~latency:default_latency ~fresh_id ())
  in
  let pos = issue_pos outcome in
  Alcotest.(check bool) "dead-at-exit load hoists above the exit" true
    (pos l.I.id < pos br.I.id)

let test_side_exit_blocks_live_def_hoist () =
  reset_ids ();
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "out" }) in
  let l = ld (f 1) (r 1) 0 in
  let live_out = Ir.Reg.Set.of_list [ r 5; f 1 ] in
  let sb =
    Ir.Superblock.make ~entry:"t" ~body:[ br; l ] ~final_exit:None
      ~source_blocks:[ "t" ]
      ~live_out:[ (br.I.id, live_out) ]
      ()
  in
  let alias = Analysis.May_alias.analyze ~body:sb.Ir.Superblock.body () in
  let deps = Analysis.Depgraph.build ~body:sb.Ir.Superblock.body ~alias () in
  let fresh_id = ref 1000 in
  let outcome =
    scheduled
      (Sched.List_sched.schedule ~sb ~deps
         ~policy:(Sched.Policy.smarq ~ar_count:64)
         ~issue_width:4 ~mem_ports:2 ~latency:default_latency ~fresh_id ())
  in
  let pos = issue_pos outcome in
  Alcotest.(check bool) "live-at-exit def stays below" true
    (pos l.I.id > pos br.I.id)

(* Rotation keeps every executed offset within a small window even when
   many registers are allocated over the region's lifetime (Figure 7's
   point).  Side exits fence reordering into segments, so register
   lifetimes are short; the total P count keeps growing while the
   offset window stays segment-sized. *)
let test_rotation_compacts_window () =
  reset_ids ();
  let segment k =
    (* store first, then loads that hoist above it: two protected
       registers per segment, all dead once the segment's store checks *)
    let s1 = st (I.Reg (f 7)) (r 3) (k * 32) in
    let l1 = ld (f (k mod 4)) (r 1) (k * 32) in
    let l2 = ld (f (4 + (k mod 3))) (r 2) (k * 32) in
    let br = mk (I.Branch { cond = I.Reg (r 9); target = "out" }) in
    [ s1; l1; l2; br ]
  in
  let body = List.concat_map segment [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let outcome, _ = build body in
  let ws = outcome.Sched.List_sched.stats.Sched.List_sched.ar_working_set in
  let p = outcome.Sched.List_sched.stats.Sched.List_sched.p_bits in
  Alcotest.(check bool) "many protected ops" true (p >= 8);
  Alcotest.(check bool)
    (Printf.sprintf "window (%d) far below P count (%d)" ws p)
    true
    (ws * 2 <= p)

let test_order_base_offset_invariant () =
  let _, _, _, _, body = figure2 () in
  let outcome, _ = build body in
  match outcome.Sched.List_sched.alloc_result with
  | None -> Alcotest.fail "queue scheme expected"
  | Some res ->
    let a, _ = allocation_of res in
    Hashtbl.iter
      (fun id order ->
        match C.offset a id with
        | Some off ->
          let base = Hashtbl.find a.C.base id in
          Alcotest.(check int) "order = base + offset" order (base + off)
        | None -> Alcotest.fail "allocated op lacks offset")
      a.C.order

let test_overflow_raises () =
  reset_ids ();
  (* more simultaneously-live protected registers than the machine has:
     20 loads all checked by one final store that may alias all *)
  let loads = List.init 20 (fun k -> ld (f (k mod 8)) (r (10 + (k mod 10))) (k * 8)) in
  let final = st (I.Imm 0) (r 9) 0 in
  let body = loads @ [ final ] in
  let sb = sb_of body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let fresh_id = ref 1000 in
  (* with only 2 registers, either the non-speculation mode saved us
     (fine) or the allocator reported the overflow (also fine); what
     must not happen is a region claiming a window beyond the register
     count, or an overflow blamed on anything but the SMARQ allocator *)
  match
    Sched.List_sched.schedule ~sb ~deps
      ~policy:(Sched.Policy.smarq ~ar_count:2)
      ~issue_width:4 ~mem_ports:2 ~latency:default_latency ~fresh_id ()
  with
  | Ok outcome ->
    Alcotest.(check bool) "window within 2 registers" true
      (outcome.Sched.List_sched.region.Ir.Region.ar_window <= 2)
  | Error
      (Sched.List_sched.Out_of_alias_registers
        { scheme = Sched.Policy.Queue_scheme; _ }) ->
    ()
  | Error f -> Alcotest.fail (Sched.List_sched.failure_to_string f)

let test_nonspec_mode_engages () =
  reset_ids ();
  (* many cross-base load/store pairs: with 4 registers the scheduler
     must fall into non-speculation mode rather than overflow *)
  let body =
    List.concat
      (List.init 12 (fun k ->
           [
             ld (f (k mod 8)) (r (10 + (k mod 8))) (k * 16);
             st (I.Imm k) (r (18 + (k mod 8))) (k * 16);
           ]))
  in
  let outcome, _ = build ~policy:(Sched.Policy.smarq ~ar_count:4) body in
  Alcotest.(check bool) "nonspec mode used" true
    outcome.Sched.List_sched.stats.Sched.List_sched.used_nonspec_mode;
  Alcotest.(check bool) "window within 4" true
    (outcome.Sched.List_sched.region.Ir.Region.ar_window <= 4)

let test_fast_alloc_agrees () =
  (* On a reorder-only region the integrated allocator's working set
     matches the standalone FAST ALGORITHM's. *)
  let _, _, _, _, body = figure2 () in
  let outcome, _ = build body in
  match outcome.Sched.List_sched.alloc_result with
  | None -> Alcotest.fail "queue scheme expected"
  | Some res ->
    let a, edges = allocation_of res in
    let issue_order =
      List.filter_map
        (fun (i : I.t) -> if I.is_memory i then Some i.I.id else None)
        (Ir.Region.instrs outcome.Sched.List_sched.region)
    in
    (match
       Sched.Fast_alloc.allocate ~issue_order
         ~p_bit:(Hashtbl.mem a.C.p_bit)
         ~c_bit:(Hashtbl.mem a.C.c_bit)
         ~edges
     with
    | Error { Sched.Fast_alloc.cycle } ->
      Alcotest.failf "fast alloc found a cycle: %d witness edges"
        (List.length cycle)
    | Ok fa ->
      Alcotest.(check int) "same working set"
        res.Sched.Smarq_alloc.max_offset fa.Sched.Fast_alloc.max_offset)

let test_mask_annotations () =
  let m0, m1, m2, m3, body = figure2 () in
  ignore (m0, m2);
  let outcome, _ = build ~policy:(Sched.Policy.efficeon ()) body in
  let instrs = Ir.Region.instrs outcome.Sched.List_sched.region in
  let annot id =
    List.find_map
      (fun (i : I.t) -> if i.I.id = id then Some (I.annot i) else None)
      instrs
  in
  (* the hoisted loads take registers; the stores carry check masks *)
  (match annot m1.I.id with
  | Some (Ir.Annot.Mask { set_index = Some _; _ }) -> ()
  | _ -> Alcotest.fail "M1 should set a mask register");
  match annot m3.I.id with
  | Some (Ir.Annot.Mask { set_index = Some _; _ }) -> ()
  | _ -> Alcotest.fail "M3 should set a mask register"

let test_alat_annotations () =
  let _, m1, _, m3, body = figure2 () in
  let outcome, _ = build ~policy:(Sched.Policy.alat ()) body in
  let instrs = Ir.Region.instrs outcome.Sched.List_sched.region in
  let advanced id =
    List.exists
      (fun (i : I.t) ->
        i.I.id = id
        &&
        match I.annot i with
        | Ir.Annot.Alat { advanced } -> advanced
        | _ -> false)
      instrs
  in
  Alcotest.(check bool) "hoisted loads advanced" true
    (advanced m1.I.id && advanced m3.I.id)

let test_working_set_measures () =
  let _, _, _, _, body = figure2 () in
  let outcome, _ = build body in
  let ws = Sched.Working_set.measure ~sb:(sb_of body) ~outcome in
  Alcotest.(check int) "program order = memops" 4
    ws.Sched.Working_set.program_order;
  Alcotest.(check bool) "lower bound <= smarq" true
    (ws.Sched.Working_set.lower_bound <= ws.Sched.Working_set.smarq);
  Alcotest.(check bool) "smarq <= p-bit count" true
    (ws.Sched.Working_set.smarq <= max 1 ws.Sched.Working_set.p_bit_order)

let test_fast_alloc_cycle_witness () =
  (* two memory ops with a constraint edge each way: unschedulable
     without an AMOV, so the topological pass must fail and name the
     cycle *)
  reset_ids ();
  let a = ld (f 1) (r 1) 0 in
  let b = st (I.Reg (f 1)) (r 2) 0 in
  let edges =
    [
      { C.first = a.I.id; second = b.I.id; kind = C.Anti };
      { C.first = b.I.id; second = a.I.id; kind = C.Anti };
    ]
  in
  match
    Sched.Fast_alloc.allocate ~issue_order:[ a.I.id; b.I.id ]
      ~p_bit:(fun _ -> true)
      ~c_bit:(fun _ -> true)
      ~edges
  with
  | Ok _ -> Alcotest.fail "cyclic constraint graph allocated"
  | Error { Sched.Fast_alloc.cycle } ->
    Alcotest.(check bool) "witness is non-empty" true (cycle <> []);
    List.iter
      (fun (e : C.edge) ->
        Alcotest.(check bool) "witness edges are on the cycle" true
          (List.mem e.C.first [ a.I.id; b.I.id ]
          && List.mem e.C.second [ a.I.id; b.I.id ]))
      cycle

let suite =
  ( "sched",
    [
      case "figure 2: loads hoist, bits assigned" test_figure2_reordering;
      case "figure 4: no unnecessary detection" test_figure4_no_unnecessary_check;
      case "allocation satisfies all constraints" test_constraints_validate;
      case "register dependences respected" test_register_deps_respected;
      case "latencies respected" test_latency_respected;
      case "issue width respected" test_issue_width_respected;
      case "memory ports respected" test_mem_ports_respected;
      case "none policy: program-order memory" test_none_policy_preserves_memory_order;
      case "store-reorder policy gate" test_store_reorder_policy;
      case "side exits fence stores" test_side_exit_fences_stores;
      case "dead-at-exit load hoists over exit" test_side_exit_allows_dead_load_hoist;
      case "live-at-exit def stays below exit" test_side_exit_blocks_live_def_hoist;
      case "rotation compacts the window (Fig 7)" test_rotation_compacts_window;
      case "order = base + offset invariant" test_order_base_offset_invariant;
      case "tiny register file: overflow or fit" test_overflow_raises;
      case "non-speculation mode engages" test_nonspec_mode_engages;
      case "integrated = FAST algorithm (reorder-only)" test_fast_alloc_agrees;
      case "efficeon mask annotations" test_mask_annotations;
      case "ALAT advanced-load annotations" test_alat_annotations;
      case "working-set measurement sanity" test_working_set_measures;
      case "fast alloc reports a cycle witness" test_fast_alloc_cycle_witness;
    ] )
