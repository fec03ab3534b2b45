(* Reference interpreter and shared evaluation semantics. *)

open Helpers
module I = Ir.Instr
module M = Vliw.Machine
module E = Vliw.Eval

let test_eval_arith () =
  let m = M.create () in
  M.set_reg m (r 1) 10;
  E.exec_data m (mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 5)));
  Alcotest.(check int) "add" 15 (M.get_reg m (r 2));
  E.exec_data m (mk (I.Binop (I.Div, r 3, I.Reg (r 2), I.Imm 0)));
  Alcotest.(check int) "div by zero yields 0" 0 (M.get_reg m (r 3));
  E.exec_data m (mk (I.Binop (I.Shl, r 4, I.Imm 1, I.Imm 35)));
  Alcotest.(check int) "shift masked to 0..31" 8 (M.get_reg m (r 4));
  E.exec_data m (mk (I.Cmp (I.Le, r 5, I.Imm 3, I.Imm 3)));
  Alcotest.(check int) "cmp true is 1" 1 (M.get_reg m (r 5));
  E.exec_data m (mk (I.Unop_neg (r 6, I.Imm 9)));
  Alcotest.(check int) "neg" (-9) (M.get_reg m (r 6))

let test_eval_memory () =
  let m = M.create () in
  M.set_reg m (r 1) 1000;
  E.exec_data m (st ~width:8 (I.Imm 0xABCD) (r 1) 16);
  E.exec_data m (ld ~width:8 (f 1) (r 1) 16);
  Alcotest.(check int) "store/load roundtrip" 0xABCD (M.get_reg m (f 1));
  Alcotest.(check int) "effective address" 1016
    (E.addr_of m { I.base = r 1; disp = 16 })

let test_eval_control () =
  let m = M.create () in
  M.set_reg m (r 1) 0;
  let br = mk (I.Branch { cond = I.Reg (r 1); target = "t" }) in
  (match E.exec_control m br with
  | E.Fall_through -> ()
  | _ -> Alcotest.fail "branch on 0 falls through");
  M.set_reg m (r 1) 1;
  (match E.exec_control m br with
  | E.Leave_region "t" -> ()
  | _ -> Alcotest.fail "branch on 1 leaves");
  match E.exec_control m (mk (I.Jump "j")) with
  | E.Goto "j" -> ()
  | _ -> Alcotest.fail "jump goes to label"

let counting_program () =
  reset_ids ();
  (* r1 = 5; loop: r2 += r1; r1 -= 1; if r1 > 0 goto loop; halt *)
  let init =
    Ir.Block.make ~label:"init"
      ~body:[ movi (r 1) 5 ]
      (Ir.Block.Fallthrough "loop")
  in
  let body =
    [
      mk (I.Binop (I.Add, r 2, I.Reg (r 2), I.Reg (r 1)));
      mk (I.Binop (I.Sub, r 1, I.Reg (r 1), I.Imm 1));
      mk (I.Cmp (I.Gt, r 3, I.Reg (r 1), I.Imm 0));
    ]
  in
  let loop =
    Ir.Block.make ~label:"loop" ~body
      (Ir.Block.Cond
         {
           cond = I.Reg (r 3);
           taken = "loop";
           fallthrough = "end";
           taken_probability = 0.8;
         })
  in
  let halt = Ir.Block.make ~label:"end" ~body:[] Ir.Block.Halt in
  Ir.Program.make ~entry:"init" [ init; loop; halt ]

let test_run_program () =
  let p = counting_program () in
  let m = M.create () in
  let stats = interp_run m p in
  Alcotest.(check int) "sum 5+4+3+2+1" 15 (M.get_reg m (r 2));
  Alcotest.(check int) "loop executed 5 times" 5
    (Option.value (Hashtbl.find_opt stats.Frontend.Interp.block_counts "loop")
       ~default:0)

let test_out_of_fuel () =
  reset_ids ();
  let spin =
    Ir.Block.make ~label:"spin" ~body:[] (Ir.Block.Fallthrough "spin")
  in
  let p = Ir.Program.make ~entry:"spin" [ spin ] in
  Alcotest.(check bool) "fuel exhausted" true
    (match Frontend.Interp.run ~fuel:100 (M.create ()) p with
    | Error Frontend.Interp.Out_of_fuel -> true
    | Ok _ -> false)

let test_trace_superblock () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let s1 = st (I.Reg (f 1)) (r 2) 4 in
  let br = mk (I.Branch { cond = I.Reg (r 3); target = "out" }) in
  let l2 = ld (f 2) (r 1) 8 in
  let sb = sb_of [ l1; s1; br; l2 ] in
  let m = M.create () in
  M.set_reg m (r 1) 100;
  M.set_reg m (r 2) 200;
  (* not taken: all four execute, three memory events *)
  let t = Frontend.Interp.trace_superblock (M.copy m) sb in
  Alcotest.(check (option string)) "ran through" None t.Frontend.Interp.taken_exit;
  Alcotest.(check int) "three events" 3 (List.length t.Frontend.Interp.events);
  (match t.Frontend.Interp.events with
  | e1 :: _ ->
    Alcotest.(check bool) "first is the load at 100" true
      (Hw.Access.equal e1.Frontend.Interp.range
         (Hw.Access.make ~addr:100 ~width:4));
    Alcotest.(check bool) "load flagged" false e1.Frontend.Interp.is_store
  | [] -> Alcotest.fail "no events");
  (* taken: execution stops at the branch *)
  M.set_reg m (r 3) 1;
  let t2 = Frontend.Interp.trace_superblock m sb in
  Alcotest.(check (option string)) "exit taken" (Some "out")
    t2.Frontend.Interp.taken_exit;
  Alcotest.(check int) "two events before exit" 2
    (List.length t2.Frontend.Interp.events)

let test_interp_matches_eval_on_overlap () =
  (* byte-level aliasing through different widths *)
  let m = M.create () in
  M.set_reg m (r 1) 64;
  E.exec_data m (st ~width:8 (I.Imm 0x0102030405060708) (r 1) 0);
  E.exec_data m (ld ~width:4 (f 1) (r 1) 2);
  Alcotest.(check int) "unaligned sub-read" 0x03040506 (M.get_reg m (f 1))

let suite =
  ( "interp",
    [
      case "arithmetic semantics" test_eval_arith;
      case "memory semantics" test_eval_memory;
      case "control semantics" test_eval_control;
      case "whole-program run" test_run_program;
      case "fuel bound" test_out_of_fuel;
      case "superblock tracing" test_trace_superblock;
      case "byte-level overlap" test_interp_matches_eval_on_overlap;
    ] )
