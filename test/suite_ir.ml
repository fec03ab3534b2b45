(* IR-level tests: instructions, blocks, programs, superblocks. *)

open Helpers
module I = Ir.Instr

let test_defs_uses () =
  reset_ids ();
  let i = ld (f 1) (r 2) 8 in
  Alcotest.(check (list string))
    "load defs" [ "f1" ]
    (List.map Ir.Reg.to_string (I.defs i));
  Alcotest.(check (list string))
    "load uses" [ "r2" ]
    (List.map Ir.Reg.to_string (I.uses i));
  let s = st (I.Reg (f 3)) (r 4) 0 in
  Alcotest.(check (list string)) "store defs" [] (List.map Ir.Reg.to_string (I.defs s));
  Alcotest.(check (list string))
    "store uses" [ "f3"; "r4" ]
    (List.map Ir.Reg.to_string (I.uses s));
  let b = mk (I.Binop (I.Add, r 1, I.Reg (r 2), I.Imm 3)) in
  Alcotest.(check (list string)) "binop defs" [ "r1" ] (List.map Ir.Reg.to_string (I.defs b));
  Alcotest.(check (list string)) "binop uses" [ "r2" ] (List.map Ir.Reg.to_string (I.uses b))

let test_classification () =
  reset_ids ();
  let l = ld (f 0) (r 0) 0 and s = st (I.Imm 1) (r 0) 0 in
  Alcotest.(check bool) "load is memory" true (I.is_memory l);
  Alcotest.(check bool) "load is load" true (I.is_load l);
  Alcotest.(check bool) "load not store" false (I.is_store l);
  Alcotest.(check bool) "store is store" true (I.is_store s);
  let br = mk (I.Branch { cond = I.Reg (r 1); target = "x" }) in
  Alcotest.(check bool) "branch is branch" true (I.is_branch br);
  Alcotest.(check bool) "branch is side exit" true (I.is_side_exit br);
  Alcotest.(check bool) "branch not memory" false (I.is_memory br);
  let rot = mk (I.Rotate 2) and am = mk (I.Amov { src_offset = 1; dst_offset = 0 }) in
  Alcotest.(check bool) "rotate not memory" false (I.is_memory rot);
  Alcotest.(check bool) "amov not memory" false (I.is_memory am)

let test_with_annot () =
  reset_ids ();
  let l = ld (f 0) (r 0) 0 in
  let a = Ir.Annot.queue ~offset:3 ~p:true ~c:false in
  let l' = I.with_annot l a in
  Alcotest.(check bool) "annot applied" true (Ir.Annot.equal (I.annot l') a);
  Alcotest.(check int) "id preserved" l.I.id l'.I.id;
  (* non-memory unchanged *)
  let n = mk I.Nop in
  let n' = I.with_annot n a in
  Alcotest.(check bool) "nop annot stays none" true
    (Ir.Annot.equal (I.annot n') Ir.Annot.No_annot)

let test_reg_basics () =
  Alcotest.(check bool) "R equal" true (Ir.Reg.equal (r 3) (r 3));
  Alcotest.(check bool) "R/F distinct" false (Ir.Reg.equal (r 3) (f 3));
  Alcotest.(check bool) "temp" true (Ir.Reg.is_temp (Ir.Reg.T 1));
  Alcotest.(check bool) "guest not temp" false (Ir.Reg.is_temp (r 1));
  Alcotest.(check int) "all guest count"
    (Ir.Reg.int_count + Ir.Reg.float_count)
    (List.length Ir.Reg.all_guest);
  Alcotest.(check bool) "ordering total" true
    (Ir.Reg.compare (r 1) (f 0) < 0 && Ir.Reg.compare (f 0) (Ir.Reg.T 0) < 0)

let test_program_validation () =
  reset_ids ();
  let b1 = Ir.Block.make ~label:"a" ~body:[ movi (r 1) 5 ] (Ir.Block.Fallthrough "b") in
  let b2 = Ir.Block.make ~label:"b" ~body:[] Ir.Block.Halt in
  let p = Ir.Program.make ~entry:"a" [ b1; b2 ] in
  Alcotest.(check bool) "valid" true (Result.is_ok (Ir.Program.validate p));
  Alcotest.(check int) "instr count" 1 (Ir.Program.instr_count p);
  Alcotest.check_raises "duplicate labels rejected"
    (Invalid_argument "Program.make: duplicate label a") (fun () ->
      ignore (Ir.Program.make ~entry:"a" [ b1; b1; b2 ]));
  Alcotest.check_raises "unknown successor rejected"
    (Invalid_argument "Program.make: a branches to unknown label b") (fun () ->
      ignore (Ir.Program.make ~entry:"a" [ b1 ]));
  Alcotest.check_raises "missing entry rejected"
    (Invalid_argument "Program.make: missing entry block z") (fun () ->
      ignore (Ir.Program.make ~entry:"z" [ b2 ]))

let test_block_successors () =
  reset_ids ();
  let cond =
    Ir.Block.Cond
      {
        cond = I.Reg (r 1);
        taken = "t";
        fallthrough = "f";
        taken_probability = 0.9;
      }
  in
  let b = Ir.Block.make ~label:"x" ~body:[] cond in
  Alcotest.(check (list string)) "cond successors" [ "t"; "f" ]
    (Ir.Block.successors b);
  let h = Ir.Block.make ~label:"y" ~body:[] Ir.Block.Halt in
  Alcotest.(check (list string)) "halt successors" [] (Ir.Block.successors h)

let test_superblock_utils () =
  reset_ids ();
  let l1 = ld (f 0) (r 1) 0 in
  let s1 = st (I.Reg (f 0)) (r 2) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 3); target = "out" }) in
  let sb =
    Ir.Superblock.make ~entry:"e" ~body:[ l1; br; s1 ] ~final_exit:(Some "n")
      ~source_blocks:[ "e" ] ()
  in
  Alcotest.(check int) "memory ops" 2 (List.length (Ir.Superblock.memory_ops sb));
  Alcotest.(check int) "side exits" 1 (List.length (Ir.Superblock.side_exits sb));
  let pos = Ir.Superblock.program_position sb in
  Alcotest.(check int) "position of store" 2 (Hashtbl.find pos s1.I.id);
  (* default liveness is conservative: every guest register live *)
  let live = Ir.Superblock.exit_live_out sb br.I.id in
  Alcotest.(check bool) "conservative live" true
    (Ir.Reg.Set.mem (r 0) live && Ir.Reg.Set.mem (f 31) live)

let test_region_utils () =
  reset_ids ();
  let l1 = ld (f 0) (r 1) 0 in
  let sb = sb_of [ l1 ] in
  let region =
    Ir.Region.make ~entry:"e" ~bundles:[| [ l1 ]; []; [ mk I.Nop ] |]
      ~final_exit:None ~ar_window:0 ~assumed_no_alias:[] ~source:sb ()
  in
  Alcotest.(check int) "schedule length" 3 (Ir.Region.schedule_length region);
  Alcotest.(check int) "instr count" 2 (Ir.Region.instr_count region);
  Alcotest.(check int) "memory ops" 1 (Ir.Region.memory_op_count region)

let test_annot_pp_roundtrip () =
  let a = Ir.Annot.queue ~offset:5 ~p:true ~c:true in
  Alcotest.(check string) "queue annot rendering" "@5PC"
    (Format.asprintf "%a" Ir.Annot.pp a);
  let m = Ir.Annot.mask ~set_index:(Some 2) ~check_mask:0b101 in
  Alcotest.(check bool) "mask annot equal" true (Ir.Annot.equal m m);
  Alcotest.(check bool) "mask/queue differ" false (Ir.Annot.equal m a)

(* ---- in-place operand iteration ---- *)

(* every [Ir.Instr.op] constructor, over a handful of registers of all
   three classes and both operand kinds; stores sometimes take their
   own base as the source *)
let op_gen =
  let open QCheck.Gen in
  let reg =
    oneof
      [
        map (fun i -> Ir.Reg.R i) (int_bound 3);
        map (fun i -> Ir.Reg.F i) (int_bound 3);
        map (fun i -> Ir.Reg.T i) (int_bound 3);
      ]
  in
  let operand =
    oneof [ map (fun r -> I.Reg r) reg; map (fun n -> I.Imm n) (int_bound 9) ]
  in
  let addr = map2 (fun base disp -> { I.base; disp }) reg (int_bound 64) in
  let width = oneofl [ 4; 8 ] in
  let binop = oneofl I.[ Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr ] in
  let fbinop = oneofl I.[ Fadd; Fsub; Fmul; Fdiv ] in
  let cmp = oneofl I.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  oneof
    [
      return I.Nop;
      map2 (fun d s -> I.Mov (d, s)) reg operand;
      map2 (fun d s -> I.Unop_neg (d, s)) reg operand;
      map4 (fun b d x y -> I.Binop (b, d, x, y)) binop reg operand operand;
      map4 (fun b d x y -> I.Fbinop (b, d, x, y)) fbinop reg operand operand;
      map4 (fun c d x y -> I.Cmp (c, d, x, y)) cmp reg operand operand;
      map3
        (fun dst addr width -> I.Load { dst; addr; width; annot = Ir.Annot.none })
        reg addr width;
      map3
        (fun src addr width -> I.Store { src; addr; width; annot = Ir.Annot.none })
        operand addr width;
      map2
        (fun addr width ->
          I.Store { src = I.Reg addr.I.base; addr; width; annot = Ir.Annot.none })
        addr width;
      map (fun cond -> I.Branch { cond; target = "t" }) operand;
      return (I.Jump "j");
      return (I.Exit "x");
      map (fun n -> I.Rotate n) (int_bound 4);
      map2
        (fun src_offset dst_offset -> I.Amov { src_offset; dst_offset })
        (int_bound 8) (int_bound 8);
    ]

let instr_arb =
  QCheck.make ~print:I.to_string (QCheck.Gen.map (I.make ~id:1) op_gen)

let visited iter i =
  let seen = ref [] in
  iter (fun r -> seen := r :: !seen) i;
  List.rev !seen

let prop_iterators_match_lists i =
  List.equal Ir.Reg.equal (visited I.iter_uses i) (I.uses i)
  && List.equal Ir.Reg.equal (visited I.iter_defs i) (I.defs i)

let suite =
  ( "ir",
    [
      case "defs and uses" test_defs_uses;
      qcase ~count:500 "iter_uses/iter_defs visit uses/defs in order"
        instr_arb prop_iterators_match_lists;
      case "instruction classification" test_classification;
      case "with_annot" test_with_annot;
      case "registers" test_reg_basics;
      case "program validation" test_program_validation;
      case "block successors" test_block_successors;
      case "superblock utilities" test_superblock_utils;
      case "region utilities" test_region_utils;
      case "annotation printing/equality" test_annot_pp_roundtrip;
    ] )
