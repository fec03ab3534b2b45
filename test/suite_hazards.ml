(* Direct tests of the hazard-edge builder and the priority function. *)

open Helpers
module I = Ir.Instr

let build_hazards ?(policy = Sched.Policy.smarq ~ar_count:64) body =
  let sb = sb_of body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  Sched.Hazards.build ~sb ~deps ~policy ()

(* The default builder prunes transitively redundant edges, so what
   these tests assert is enforcement: a hazard holds iff the earlier
   instruction still reaches the later one through kept edges. *)
let has_edge h a b =
  let rec reaches x =
    x = b || List.exists reaches (Sched.Hazards.succs h x)
  in
  reaches a

let test_register_edges () =
  reset_ids ();
  let w1 = mk (I.Binop (I.Add, r 1, I.Imm 1, I.Imm 2)) in
  let rd = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 0)) in
  let w2 = mk (I.Binop (I.Add, r 1, I.Imm 5, I.Imm 5)) in
  let h = build_hazards [ w1; rd; w2 ] in
  Alcotest.(check bool) "RAW w1->rd" true (has_edge h w1.I.id rd.I.id);
  Alcotest.(check bool) "WAR rd->w2" true (has_edge h rd.I.id w2.I.id);
  Alcotest.(check bool) "WAW w1->w2" true (has_edge h w1.I.id w2.I.id);
  Alcotest.(check bool) "no spurious back edge" false
    (has_edge h w2.I.id w1.I.id)

let test_memory_edge_strengths () =
  reset_ids ();
  let s_must = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l_must = ld ~width:4 (f 1) (r 1) 4 in  (* overlaps: hard *)
  let l_may = ld (f 2) (r 2) 0 in  (* cross-base: droppable *)
  let h = build_hazards [ s_must; l_must; l_may ] in
  Alcotest.(check bool) "must-alias edge kept" true
    (has_edge h s_must.I.id l_must.I.id);
  Alcotest.(check bool) "may-alias edge dropped under smarq" false
    (has_edge h s_must.I.id l_may.I.id);
  Alcotest.(check bool) "dropped pair recorded" true
    (List.mem (s_must.I.id, l_may.I.id) Sched.Hazards.(h.dropped));
  (* under the none policy the same edge is a hard fence *)
  reset_ids ();
  let s2 = st ~width:8 (I.Imm 1) (r 1) 0 in
  let l2m = ld ~width:4 (f 1) (r 1) 4 in
  let l2 = ld (f 2) (r 2) 0 in
  let h2 = build_hazards ~policy:(Sched.Policy.none ()) [ s2; l2m; l2 ] in
  Alcotest.(check bool) "kept under none" true (has_edge h2 s2.I.id l2.I.id);
  Alcotest.(check int) "nothing dropped" 0
    (List.length Sched.Hazards.(h2.dropped))

let test_branch_ordering () =
  reset_ids ();
  let b1 = mk (I.Branch { cond = I.Reg (r 1); target = "a" }) in
  let b2 = mk (I.Branch { cond = I.Reg (r 2); target = "b" }) in
  let h = build_hazards [ b1; b2 ] in
  Alcotest.(check bool) "branches stay ordered" true
    (has_edge h b1.I.id b2.I.id)

let test_priority_prefers_long_chains () =
  reset_ids ();
  (* a load feeding a 3-deep FP chain must outrank an isolated mov *)
  let l1 = ld (f 1) (r 1) 0 in
  let a1 = fadd (f 1) (f 1) (f 1) in
  let a2 = fadd (f 1) (f 1) (f 1) in
  let a3 = fadd (f 2) (f 1) (f 1) in
  let lone = movi (r 9) 1 in
  let body = [ l1; a1; a2; a3; lone ] in
  let h = build_hazards body in
  let heights =
    Sched.List_sched.heights ~body ~hazards:h ~latency:default_latency
  in
  let height id = heights.(Hashtbl.find h.Sched.Hazards.index id) in
  Alcotest.(check bool) "chain head tallest" true
    (height l1.I.id > height lone.I.id);
  Alcotest.(check bool) "monotone along the chain" true
    (height l1.I.id > height a1.I.id && height a1.I.id > height a3.I.id)

(* A body can carry one id twice (a superblock re-optimized from a
   shared cache); every occurrence then takes the height the id-keyed
   memo gives the id, which is its last occurrence's. *)
let test_duplicate_id_heights () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let a1 = fadd (f 2) (f 1) (f 1) in
  let a2 = fadd (f 3) (f 2) (f 2) in
  let dup = I.make ~id:a1.I.id (I.Mov (r 5, I.Imm 1)) in
  let body = [ l1; a1; a2; dup ] in
  let h = build_hazards body in
  let heights =
    Sched.List_sched.heights ~body ~hazards:h ~latency:default_latency
  in
  let memo = Oracle_sched.heights ~body ~hazards:h ~latency:default_latency in
  List.iteri
    (fun p (i : I.t) ->
      Alcotest.(check int)
        (Printf.sprintf "position %d" p)
        (Hashtbl.find memo i.I.id) heights.(p))
    body;
  Alcotest.(check int) "the first occurrence takes the last one's height"
    heights.(3) heights.(1)

let test_queue_wraparound () =
  (* a 4-register queue serving 10 sequential lifetimes via rotation:
     logical orders exceed the physical size but offsets never do *)
  let q = Hw.Queue.create ~size:4 in
  for k = 0 to 9 do
    let set =
      I.make ~id:(100 + k)
        (I.Load
           {
             dst = f 0;
             addr = { I.base = r 0; disp = 0 };
             width = 4;
             annot = Ir.Annot.queue ~offset:0 ~p:true ~c:false;
           })
    in
    (match on_range Hw.Queue.on_mem q set (Hw.Access.make ~addr:(k * 100) ~width:4) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "set cannot fault");
    (* a store checking at offset 0 sees exactly this entry *)
    let chk =
      I.make ~id:(200 + k)
        (I.Store
           {
             src = I.Imm 0;
             addr = { I.base = r 0; disp = 0 };
             width = 4;
             annot = Ir.Annot.queue ~offset:0 ~p:false ~c:true;
           })
    in
    (match on_range Hw.Queue.on_mem q chk (Hw.Access.make ~addr:(k * 100) ~width:4) with
    | Error v -> Alcotest.(check int) "hits the current setter" (100 + k)
                   v.Hw.Detector.setter
    | Ok () -> Alcotest.fail "expected a hit");
    Hw.Queue.rotate q 1
  done;
  Alcotest.(check int) "base advanced past the physical size" 10
    (Hw.Queue.base q);
  Alcotest.(check int) "queue drained" 0
    (List.length (Hw.Queue.live_entries q))

(* ---- allocation budgets: the hazard builder and the scheduler
   allocate per result, never per operand, per edge or per cycle ---- *)

(* words allocated while [f ()] ran: the minor heap's exact count plus
   the arrays too large for it, which go straight to the major heap
   (major words not promoted from the minor heap) *)
let words_of f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  int_of_float
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let deps_of body =
  let alias = Analysis.May_alias.analyze ~body () in
  Analysis.Depgraph.build ~body ~alias ()

(* [n] instructions writing r3..r10 in turn, with a side exit every 16:
   the same WAW chains and exit fences whatever [every] is.  Every
   [every]-th instruction reads r1 twice; the body never defines r1, so
   those reads add operands but no edge. *)
let operand_body ~n ~every =
  reset_ids ();
  List.init n (fun k ->
      if k mod 16 = 15 then
        mk (I.Branch { cond = I.Imm 0; target = Printf.sprintf "x%d" k })
      else
        let a = if k mod every = 0 then I.Reg (r 1) else I.Imm 1 in
        mk (I.Binop (I.Add, r (3 + (k mod 8)), a, a)))

let count_uses body =
  List.fold_left (fun acc i -> acc + List.length (I.uses i)) 0 body

let test_hazards_alloc_independent_of_uses () =
  let policy = Sched.Policy.smarq ~ar_count:64 in
  let arena = Analysis.Arena.create () in
  let prepare every =
    let body = operand_body ~n:256 ~every in
    (body, sb_of body, deps_of body)
  in
  let few_body, few_sb, few_deps = prepare 8 in
  let many_body, many_sb, many_deps = prepare 1 in
  let build sb deps = Sched.Hazards.build ~sb ~deps ~policy ~arena () in
  let words sb deps =
    words_of (fun () -> ignore (Sys.opaque_identity (build sb deps)))
  in
  (* warm the arena to both bodies' high-water marks *)
  ignore (words few_sb few_deps);
  ignore (words many_sb many_deps);
  let few = words few_sb few_deps and many = words many_sb many_deps in
  Alcotest.(check bool) "4x the register uses" true
    (count_uses many_body >= 4 * count_uses few_body);
  Alcotest.(check int) "same edges"
    (Array.length (build few_sb few_deps).Sched.Hazards.succ)
    (Array.length (build many_sb many_deps).Sched.Hazards.succ);
  Alcotest.(check int)
    (Printf.sprintf "4x the uses (%d words) = the same body with fewer (%d)"
       many few)
    few many

(* loads, FP arithmetic on the loaded values and stores, over eight
   registers and two bases: register, memory and exit edges together *)
let sched_body n =
  reset_ids ();
  List.init n (fun k ->
      match k mod 5 with
      | 0 -> ld ~width:8 (f (k mod 8)) (r 2) (8 * k)
      | 1 -> fadd (f ((k + 1) mod 8)) (f (k mod 8)) (f ((k + 3) mod 8))
      | 2 -> st ~width:8 (I.Reg (f (k mod 8))) (r 3) (8 * k)
      | 3 -> mk (I.Binop (I.Add, r (4 + (k mod 4)), I.Reg (r 2), I.Imm k))
      | _ -> mk (I.Branch { cond = I.Reg (r (4 + (k mod 4))); target = "out" }))

(* what a schedule returns: one hazard edge per endpoint in each
   direction, the instructions of the region and the issue sequence, and
   one bundle per cycle *)
let result_size (o : Sched.List_sched.outcome) =
  Array.length o.Sched.List_sched.hazards.Sched.Hazards.succ
  + o.Sched.List_sched.stats.Sched.List_sched.instr_count
  + o.Sched.List_sched.stats.Sched.List_sched.schedule_length

(* words per unit of result size: the id, position, row and issue
   arrays, the bundle lists and the region's own tables *)
let per_unit = 32

let test_schedule_alloc_per_result () =
  let policy = Sched.Policy.none () in
  let arena = Analysis.Arena.create () in
  let measure n =
    let body = sched_body n in
    let sb = sb_of body and deps = deps_of body in
    let run () =
      scheduled
        (Sched.List_sched.schedule ~sb ~deps ~policy ~issue_width:4
           ~mem_ports:2 ~latency:default_latency
           ~fresh_id:(ref 100_000) ~arena ())
    in
    ignore (run ());
    let out = ref None in
    let words = words_of (fun () -> out := Some (run ())) in
    (words, result_size (Option.get !out))
  in
  let w1, s1 = measure 100 and w4, s4 = measure 400 in
  List.iter
    (fun (label, w, size) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s body: %d words within %d per unit of %d" label w
           per_unit size)
        true
        (w <= per_unit * size))
    [ ("1x", w1, s1); ("4x", w4, s4) ]

let suite =
  ( "hazards",
    [
      case "register hazard edges" test_register_edges;
      case "memory edge strengths and drops" test_memory_edge_strengths;
      case "branch ordering" test_branch_ordering;
      case "critical-path priority" test_priority_prefers_long_chains;
      case "a duplicated id takes its last occurrence's height"
        test_duplicate_id_heights;
      case "queue wraparound across rotations" test_queue_wraparound;
      case "hazard build allocates nothing per register use"
        test_hazards_alloc_independent_of_uses;
      case "schedule allocates per result size" test_schedule_alloc_per_result;
    ] )
