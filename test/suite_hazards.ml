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
    Sched.Priority.heights ~body ~hazards:h ~latency:default_latency
  in
  let height id = Hashtbl.find heights id in
  Alcotest.(check bool) "chain head tallest" true
    (height l1.I.id > height lone.I.id);
  Alcotest.(check bool) "monotone along the chain" true
    (height l1.I.id > height a1.I.id && height a1.I.id > height a3.I.id)

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

let suite =
  ( "hazards",
    [
      case "register hazard edges" test_register_edges;
      case "memory edge strengths and drops" test_memory_edge_strengths;
      case "branch ordering" test_branch_ordering;
      case "critical-path priority" test_priority_prefers_long_chains;
      case "queue wraparound across rotations" test_queue_wraparound;
    ] )
