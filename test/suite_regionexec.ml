(* The VLIW region executor: atomic commit/rollback, side exits, cycle
   accounting, AMOV insertion under cycles. *)

open Helpers
module I = Ir.Instr
module RE = Vliw.Region_exec

let detector () = Hw.Queue.detector (Hw.Queue.create ~size:64)

let run_region ?(init = []) region =
  let machine = Vliw.Machine.create () in
  List.iter (fun (reg, v) -> Vliw.Machine.set_reg machine reg v) init;
  let r = RE.make_result () in
  RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine region r;
  (r, machine)

let test_commit_full_region () =
  reset_ids ();
  let body = [ movi (r 1) 5; st (I.Reg (r 1)) (r 2) 0 ] in
  let sb = sb_of body in
  let o = optimize sb in
  let res, machine = run_region ~init:[ (r 2, 100) ] o.Opt.Optimizer.region in
  (match res.RE.outcome, next_label res o.Opt.Optimizer.region with
  | RE.Committed, None -> ()
  | _ -> Alcotest.fail "expected final-exit commit");
  Alcotest.(check int) "store visible" 5
    (Vliw.Machine.load machine ~addr:100 ~width:4);
  Alcotest.(check bool) "not mid-region" false (Vliw.Machine.in_region machine)

let test_side_exit_commits_prefix () =
  reset_ids ();
  let pre = st (I.Imm 1) (r 2) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "elsewhere" }) in
  let post = st (I.Imm 2) (r 2) 8 in
  let sb = sb_of [ pre; br; post ] in
  let o = optimize sb in
  let res, machine =
    run_region ~init:[ (r 2, 200); (r 5, 1) ] o.Opt.Optimizer.region
  in
  (match res.RE.outcome, next_label res o.Opt.Optimizer.region with
  | RE.Committed, Some "elsewhere" -> ()
  | _ -> Alcotest.fail "expected the side exit");
  Alcotest.(check int) "pre-exit store committed" 1
    (Vliw.Machine.load machine ~addr:200 ~width:4);
  Alcotest.(check int) "post-exit store suppressed" 0
    (Vliw.Machine.load machine ~addr:208 ~width:4)

let test_fault_rolls_everything_back () =
  reset_ids ();
  (* store then later load through another base; aliased at runtime *)
  let s1 = st (I.Imm 77) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let consume = fadd (f 2) (f 1) (f 1) in
  let sb = sb_of [ s1; l1; consume ] in
  let o = optimize sb in
  (* the load hoists above the store; make them truly alias *)
  let res, machine =
    run_region ~init:[ (r 1, 300); (r 2, 300) ] o.Opt.Optimizer.region
  in
  (match res.RE.outcome with
  | RE.Alias_fault v ->
    Alcotest.(check int) "setter is the load" l1.I.id v.Hw.Detector.setter;
    Alcotest.(check int) "checker is the store" s1.I.id v.Hw.Detector.checker
  | RE.Committed -> Alcotest.fail "expected a fault");
  Alcotest.(check int) "memory rolled back" 0
    (Vliw.Machine.load machine ~addr:300 ~width:4);
  Alcotest.(check int) "register rolled back" 0
    (Vliw.Machine.get_reg machine (f 1))

let test_fault_costs_rollback_penalty () =
  reset_ids ();
  let s1 = st (I.Imm 77) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let sb = sb_of [ s1; l1 ] in
  let o = optimize sb in
  let res, _ =
    run_region ~init:[ (r 1, 300); (r 2, 300) ] o.Opt.Optimizer.region
  in
  Alcotest.(check bool) "penalty charged" true
    (res.RE.cycles >= Vliw.Config.default.Vliw.Config.rollback_cycles)

let test_window_guard () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let sb = sb_of [ l1 ] in
  let region =
    Ir.Region.make ~entry:"t" ~bundles:[| [ l1 ] |] ~final_exit:None
      ~ar_window:100 ~assumed_no_alias:[] ~source:sb ()
  in
  let machine = Vliw.Machine.create () in
  Alcotest.check_raises "window too large"
    (Invalid_argument
       "Region_exec: region needs 100 alias registers, machine has 64")
    (fun () ->
      RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine
        region (RE.make_result ()))

(* A deterministic generated superblock that forces AMOV insertion
   (found by search over Genprog seeds; kept as a regression anchor for
   the Figure 12 cycle-breaking machinery). *)
let amov_superblock () =
  let params =
    Workload.Genprog.
      {
        n_instrs = 24;
        mem_fraction = 0.6;
        store_fraction = 0.5;
        n_bases = 3;
        collide_fraction = 0.0;
        side_exit_every = None;
      }
  in
  fst (Workload.Genprog.superblock ~seed:12 ~params)

let test_amov_cycle_breaking () =
  let sb = amov_superblock () in
  let o = optimize sb in
  let st = o.Opt.Optimizer.stats.Opt.Optimizer.sched_stats in
  Alcotest.(check bool) "AMOVs inserted" true
    (st.Sched.List_sched.amov_fresh + st.Sched.List_sched.amov_clear > 0);
  (* the region contains actual Amov instructions *)
  let amovs =
    List.filter
      (fun (i : I.t) ->
        match i.I.op with
        | I.Amov _ -> true
        | _ -> false)
      (Ir.Region.instrs o.Opt.Optimizer.region)
  in
  Alcotest.(check bool) "Amov in the code" true (List.length amovs > 0);
  (* and the constraint graph is acyclic after breaking *)
  match o.Opt.Optimizer.alloc_result with
  | Some res ->
    Alcotest.(check bool) "acyclic" false
      (Analysis.Constraints.has_cycle
         (res.Sched.Smarq_alloc.check_edges @ res.Sched.Smarq_alloc.anti_edges))
  | None -> Alcotest.fail "queue allocation expected"

let test_amov_region_executes_correctly () =
  let sb = amov_superblock () in
  let init =
    Workload.Genprog.setup_machine_regs
      ~params:
        Workload.Genprog.
          {
            n_instrs = 24;
            mem_fraction = 0.6;
            store_fraction = 0.5;
            n_bases = 3;
            collide_fraction = 0.0;
            side_exit_every = None;
          }
      ~bases:(fun k -> 0x10000 * (k + 1))
  in
  let faults = run_to_commit ~init sb in
  Alcotest.(check int) "no faults despite AMOVs (no genuine aliases)" 0 faults

let test_rotate_amov_are_free_slots () =
  (* Rotate/Amov do not consume issue slots: the region executes them
     inline without extending bundles *)
  let sb = amov_superblock () in
  let o = optimize sb in
  let region = o.Opt.Optimizer.region in
  Array.iter
    (fun bundle ->
      let real =
        List.filter
          (fun (i : I.t) ->
            match i.I.op with
            | I.Rotate _ | I.Amov _ -> false
            | _ -> true)
          bundle
      in
      Alcotest.(check bool) "real ops within width" true
        (List.length real <= 4))
    region.Ir.Region.bundles

(* ---- host allocation: the executor allocates per region execution,
   not per executed instruction ---- *)

(* words the minor heap saw while [f ()] ran *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* one instruction per bundle, no alias annotations *)
let straight_region body =
  Ir.Region.make ~entry:"t"
    ~bundles:(Array.of_list (List.map (fun i -> [ i ]) body))
    ~final_exit:None ~ar_window:0 ~assumed_no_alias:[] ~source:(sb_of body) ()

let run_words machine region =
  let detector = Hw.No_detect.detector () in
  let res = RE.make_result () in
  minor_words_of (fun () ->
      RE.run ~config:Vliw.Config.default ~detector ~machine region res)

(* a machine whose journal and pages a first run has already grown *)
let warm_words region =
  let machine = Vliw.Machine.create () in
  Vliw.Machine.set_reg machine (r 2) 4000;
  ignore (run_words machine region);
  run_words machine region

(* writes r3..r10; r2 stays the store base *)
let reg_ops n =
  List.init n (fun k ->
      mk (I.Binop (I.Add, r (3 + (k mod 8)), I.Reg (r 1), I.Imm k)))

let store_ops n = List.init n (fun k -> st ~width:8 (I.Imm k) (r 2) (8 * k))

(* slack for allocations that do not grow with the region: a committing
   run makes none (see "a committing run allocates nothing"), a faulting
   one reports its violation *)
let fixed_words = 48

let test_register_ops_allocate_nothing () =
  reset_ids ();
  let n = 50 in
  let small = warm_words (straight_region (reg_ops n)) in
  let large = warm_words (straight_region (reg_ops (4 * n))) in
  Alcotest.(check bool)
    (Printf.sprintf "4N register ops (%d words) within %d of N (%d words)"
       large fixed_words small)
    true
    (large - small <= fixed_words)

let test_store_ops_allocate_only_ranges () =
  reset_ids ();
  let n = 50 in
  let small = warm_words (straight_region (store_ops n)) in
  let large = warm_words (straight_region (store_ops (4 * n))) in
  (* the range reaches the detector as two ints: nothing per op *)
  let budget = fixed_words in
  Alcotest.(check bool)
    (Printf.sprintf "4N stores (%d words) within %d of N (%d words)" large
       budget small)
    true
    (large - small <= budget)

let test_journal_reused_after_rollback () =
  reset_ids ();
  (* enough journaled writes to grow the buffer past its first size,
     then a load the detector faults on *)
  let body = reg_ops 200 @ store_ops 50 @ [ ld (f 1) (r 2) 0 ] in
  let faulting = (List.nth body (List.length body - 1)).I.id in
  let violation =
    Hw.Detector.{ checker = faulting; setter = faulting; false_positive_prone = false }
  in
  let detector =
    Hw.Detector.wrap
      ~on_mem:(fun next (i : I.t) ~lo ~hi ->
        if i.I.id = faulting then Error violation else next i ~lo ~hi)
      (Hw.No_detect.detector ())
  in
  let region = straight_region body in
  let machine = Vliw.Machine.create () in
  Vliw.Machine.set_reg machine (r 2) 4000;
  let res = RE.make_result () in
  let run () =
    let words =
      minor_words_of (fun () ->
          RE.run ~config:Vliw.Config.default ~detector ~machine region res)
    in
    (match res.RE.outcome with
    | RE.Alias_fault _ -> ()
    | RE.Committed -> Alcotest.fail "expected the injected fault");
    words
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool)
    (Printf.sprintf "second run (%d words) allocates no more than the first (%d)"
       second first)
    true (second <= first);
  let budget = fixed_words in
  Alcotest.(check bool)
    (Printf.sprintf "second run (%d words) within %d: nothing per op" second
       budget)
    true (second <= budget);
  Alcotest.(check int) "rolled back: stores undone" 0
    (Vliw.Machine.load machine ~addr:4008 ~width:8);
  Alcotest.(check int) "rolled back: registers undone" 0
    (Vliw.Machine.get_reg machine (r 3))

(* Alternating stores and loads, each checking and setting a queue
   register at a falling offset, so each checks the registers the ops
   before it set (offsets wrap around the 64-register window); the
   addresses are disjoint, so nothing conflicts. *)
let queue_ops n =
  List.init n (fun k ->
      let annot = Ir.Annot.queue ~offset:(63 - (k mod 64)) ~p:true ~c:true in
      let i =
        if k mod 2 = 0 then st ~width:8 (I.Imm k) (r 2) (8 * k)
        else ld ~width:8 (f (k mod 8)) (r 2) (8 * k)
      in
      I.with_annot i annot)

let queue_region body =
  Ir.Region.make ~entry:"t"
    ~bundles:(Array.of_list (List.map (fun i -> [ i ]) body))
    ~final_exit:None ~ar_window:64 ~assumed_no_alias:[] ~source:(sb_of body) ()

let test_queue_checks_allocate_nothing () =
  reset_ids ();
  let n = 50 in
  let warm region =
    let detector = Hw.Queue.detector (Hw.Queue.create ~size:64) in
    let machine = Vliw.Machine.create () in
    Vliw.Machine.set_reg machine (r 2) 4000;
    let res = RE.make_result () in
    let run () =
      minor_words_of (fun () ->
          RE.run ~config:Vliw.Config.default ~detector ~machine region res;
          match res.RE.outcome with
          | RE.Committed ->
            if res.RE.alias_checks = 0 then
              Alcotest.fail "expected alias checks"
          | RE.Alias_fault _ -> Alcotest.fail "unexpected alias fault")
    in
    ignore (run ());
    run ()
  in
  let small = warm (queue_region (queue_ops n)) in
  let large = warm (queue_region (queue_ops (4 * n))) in
  Alcotest.(check bool)
    (Printf.sprintf
       "smarq64: 4N checking ops (%d words) within %d of N (%d words)" large
       fixed_words small)
    true
    (large - small <= fixed_words)

(* A warm run that commits allocates nothing at all: the outcome goes
   into the caller's record, and a taken side exit tests its condition
   in place.  One region falls off its end under the smarq64 detector's
   checks; the other leaves by a side exit after its stores. *)
let test_commit_allocates_nothing () =
  reset_ids ();
  let exit_region =
    straight_region
      (reg_ops 20 @ store_ops 10
      @ [ mk (I.Branch { cond = I.Reg (r 1); target = "out" }) ]
      @ reg_ops 5)
  in
  let final_region = queue_region (queue_ops 50) in
  List.iter
    (fun (label, region, detector, side_exit) ->
      let machine = Vliw.Machine.create () in
      Vliw.Machine.set_reg machine (r 1) 1;
      Vliw.Machine.set_reg machine (r 2) 4000;
      let res = RE.make_result () in
      let run () =
        minor_words_of (fun () ->
            RE.run ~config:Vliw.Config.default ~detector ~machine region res)
      in
      ignore (run ());
      let words = run () in
      (match res.RE.outcome with
      | RE.Committed -> ()
      | RE.Alias_fault _ -> Alcotest.fail "unexpected alias fault");
      Alcotest.(check bool) (label ^ ": exit kind") side_exit res.RE.side_exit;
      Alcotest.(check int) (label ^ ": words") 0 words)
    [
      ("side exit", exit_region, Hw.No_detect.detector (), true);
      ( "final exit",
        final_region,
        Hw.Queue.detector (Hw.Queue.create ~size:64),
        false );
    ]

let suite =
  ( "region-exec",
    [
      case "full region commits" test_commit_full_region;
      case "side exit commits the prefix" test_side_exit_commits_prefix;
      case "alias fault rolls back everything" test_fault_rolls_everything_back;
      case "fault pays the rollback penalty" test_fault_costs_rollback_penalty;
      case "window guard" test_window_guard;
      case "cycles break via AMOV (Fig 12)" test_amov_cycle_breaking;
      case "AMOV regions execute correctly" test_amov_region_executes_correctly;
      case "rotate/amov cost no issue slots" test_rotate_amov_are_free_slots;
      case "register ops allocate nothing per op"
        test_register_ops_allocate_nothing;
      case "store ops allocate only their ranges"
        test_store_ops_allocate_only_ranges;
      case "journal buffer reused after rollback"
        test_journal_reused_after_rollback;
      case "smarq64 checks allocate nothing per op"
        test_queue_checks_allocate_nothing;
      case "a committing run allocates nothing" test_commit_allocates_nothing;
    ] )
