(* The VLIW region executor: atomic commit/rollback, side exits, cycle
   accounting, AMOV insertion under cycles. *)

open Helpers
module I = Ir.Instr
module RE = Vliw.Region_exec

let detector () = Hw.Queue.detector (Hw.Queue.create ~size:64)

let run_region ?(init = []) region =
  let machine = Vliw.Machine.create () in
  List.iter (fun (reg, v) -> Vliw.Machine.set_reg machine reg v) init;
  let r =
    RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine region
  in
  (r, machine)

let test_commit_full_region () =
  reset_ids ();
  let body = [ movi (r 1) 5; st (I.Reg (r 1)) (r 2) 0 ] in
  let sb = sb_of body in
  let o = optimize sb in
  let res, machine = run_region ~init:[ (r 2, 100) ] o.Opt.Optimizer.region in
  (match res.RE.outcome with
  | RE.Committed None -> ()
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
  (match res.RE.outcome with
  | RE.Committed (Some "elsewhere") -> ()
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
  | RE.Committed _ -> Alcotest.fail "expected a fault");
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
      ignore
        (RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine
           region))

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
  minor_words_of (fun () ->
      ignore (RE.run ~config:Vliw.Config.default ~detector ~machine region))

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

(* the slack for the run's fixed allocations: the result record, the
   outcome, the bundle iterator and the boxed float the counter returns *)
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
  (* one [Hw.Access.t] (two fields and a header) per extra memory op *)
  let budget = (3 * 3 * n) + fixed_words in
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
      ~on_mem:(fun next (i : I.t) range ->
        if i.I.id = faulting then Error violation else next i range)
      (Hw.No_detect.detector ())
  in
  let region = straight_region body in
  let machine = Vliw.Machine.create () in
  Vliw.Machine.set_reg machine (r 2) 4000;
  let run () =
    let res = ref None in
    let words =
      minor_words_of (fun () ->
          res :=
            Some (RE.run ~config:Vliw.Config.default ~detector ~machine region))
    in
    (match !res with
    | Some { RE.outcome = RE.Alias_fault _; _ } -> ()
    | _ -> Alcotest.fail "expected the injected fault");
    words
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool)
    (Printf.sprintf "second run (%d words) allocates no more than the first (%d)"
       second first)
    true (second <= first);
  let budget = (3 * 51) + fixed_words in
  Alcotest.(check bool)
    (Printf.sprintf "second run (%d words) within %d: ranges only" second
       budget)
    true (second <= budget);
  Alcotest.(check int) "rolled back: stores undone" 0
    (Vliw.Machine.load machine ~addr:4008 ~width:8);
  Alcotest.(check int) "rolled back: registers undone" 0
    (Vliw.Machine.get_reg machine (r 3))

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
    ] )
