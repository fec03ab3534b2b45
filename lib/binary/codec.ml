module I = Ir.Instr

exception Unencodable of string

(* ---- opcodes ---- *)

let op_nop = 0
let op_mov = 1
let op_neg = 2
let op_binop_base = 10  (* + binop ordinal *)
let op_fbinop_base = 20
let op_cmp_base = 30
let op_load = 40
let op_store = 41
let op_br = 50
let op_jmp = 51
let op_halt = 52

let binop_ord = function
  | I.Add -> 0
  | I.Sub -> 1
  | I.Mul -> 2
  | I.Div -> 3
  | I.And -> 4
  | I.Or -> 5
  | I.Xor -> 6
  | I.Shl -> 7
  | I.Shr -> 8

let binops = [| I.Add; I.Sub; I.Mul; I.Div; I.And; I.Or; I.Xor; I.Shl; I.Shr |]

let fbinop_ord = function
  | I.Fadd -> 0
  | I.Fsub -> 1
  | I.Fmul -> 2
  | I.Fdiv -> 3

let fbinops = [| I.Fadd; I.Fsub; I.Fmul; I.Fdiv |]

let cmp_ord = function
  | I.Eq -> 0
  | I.Ne -> 1
  | I.Lt -> 2
  | I.Le -> 3
  | I.Gt -> 4
  | I.Ge -> 5

let cmps = [| I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge |]

(* ---- register and operand encoding ---- *)

let imm_marker = 0xff

let encode_reg = function
  | Ir.Reg.R i when i >= 0 && i < 64 -> i
  | Ir.Reg.F i when i >= 0 && i < 64 -> 0x40 lor i
  | Ir.Reg.R _ | Ir.Reg.F _ ->
    raise (Unencodable "register index out of range")
  | Ir.Reg.T _ ->
    raise (Unencodable "optimizer temporaries have no binary encoding")

(* ---- record encoding ---- *)

let blank () = Bytes.make Image.record_bytes '\000'

let set_op r v = Bytes.set_uint8 r 0 v
let set_dst r v = Bytes.set_uint8 r 1 v
let set_a r v = Bytes.set_uint8 r 2 v
let set_b r v = Bytes.set_uint8 r 3 v
let set_width r v = Bytes.set_uint8 r 5 v
let set_imm_a r v =
  if v < -32768 || v > 32767 then
    raise (Unencodable "operand-a immediate outside 16 bits");
  Bytes.set_int16_le r 6 v
let set_imm_b r v = Bytes.set_int64_le r 8 (Int64.of_int v)

let get_op r = Bytes.get_uint8 r 0
let get_dst r = Bytes.get_uint8 r 1
let get_a r = Bytes.get_uint8 r 2
let get_b r = Bytes.get_uint8 r 3
let get_width r = Bytes.get_uint8 r 5
let get_imm_a r = Bytes.get_int16_le r 6
let get_imm_b r = Int64.to_int (Bytes.get_int64_le r 8)

let encode_operand_a rec_ = function
  | I.Reg r -> set_a rec_ (encode_reg r)
  | I.Imm n ->
    set_a rec_ imm_marker;
    set_imm_a rec_ n

let encode_operand_b rec_ = function
  | I.Reg r -> set_b rec_ (encode_reg r)
  | I.Imm n ->
    set_b rec_ imm_marker;
    set_imm_b rec_ n

let encode_instr (i : I.t) =
  let r = blank () in
  (match i.I.op with
  | I.Nop -> set_op r op_nop
  | I.Mov (d, src) ->
    set_op r op_mov;
    set_dst r (encode_reg d);
    encode_operand_b r src
  | I.Unop_neg (d, src) ->
    set_op r op_neg;
    set_dst r (encode_reg d);
    encode_operand_b r src
  | I.Binop (op, d, a, b) ->
    set_op r (op_binop_base + binop_ord op);
    set_dst r (encode_reg d);
    encode_operand_a r a;
    encode_operand_b r b
  | I.Fbinop (op, d, a, b) ->
    set_op r (op_fbinop_base + fbinop_ord op);
    set_dst r (encode_reg d);
    encode_operand_a r a;
    encode_operand_b r b
  | I.Cmp (op, d, a, b) ->
    set_op r (op_cmp_base + cmp_ord op);
    set_dst r (encode_reg d);
    encode_operand_a r a;
    encode_operand_b r b
  | I.Load { dst; addr; width; annot } ->
    if annot <> Ir.Annot.No_annot then
      raise (Unencodable "annotated memory operation in guest code");
    set_op r op_load;
    set_dst r (encode_reg dst);
    set_a r (encode_reg addr.I.base);
    set_width r width;
    set_imm_b r addr.I.disp
  | I.Store { src; addr; width; annot } ->
    if annot <> Ir.Annot.No_annot then
      raise (Unencodable "annotated memory operation in guest code");
    set_op r op_store;
    set_dst r (encode_reg addr.I.base);
    encode_operand_a r src;
    set_width r width;
    set_imm_b r addr.I.disp
  | I.Branch _ | I.Jump _ ->
    raise (Unencodable "raw branches are emitted from terminators")
  | I.Exit _ | I.Rotate _ | I.Amov _ ->
    raise (Unencodable "region-only instruction in guest code"));
  r

(* store instructions put the source in operand-a: immediates must fit
   16 bits there, so wide store immediates go through the b slot...
   they cannot: b holds the displacement.  Reject them instead. *)

let encode_br ~target =
  fun cond ->
   let r = blank () in
   set_op r op_br;
   encode_operand_a r cond;
   set_imm_b r target;
   r

let encode_jmp target =
  let r = blank () in
  set_op r op_jmp;
  set_imm_b r target;
  r

let encode_halt () =
  let r = blank () in
  set_op r op_halt;
  r

(* ---- assembling a program ---- *)

let assemble (p : Ir.Program.t) =
  let labels = Ir.Program.labels p in
  let ordered =
    p.Ir.Program.entry
    :: List.filter (fun l -> not (String.equal l p.Ir.Program.entry)) labels
  in
  (* first pass: index of each block's first instruction *)
  let index_of = Hashtbl.create 64 in
  let next = ref 0 in
  List.iter
    (fun l ->
      Hashtbl.replace index_of l !next;
      let b = Ir.Program.block p l in
      next := !next + List.length b.Ir.Block.body;
      next :=
        !next
        +
        match b.Ir.Block.terminator with
        | Ir.Block.Fallthrough _ | Ir.Block.Halt -> 1
        | Ir.Block.Cond _ -> 2)
    ordered;
  let image = Image.create ~entry_index:0 ~count:!next in
  let pos = ref 0 in
  let emit r =
    Image.set_record image !pos r;
    incr pos
  in
  List.iter
    (fun l ->
      let b = Ir.Program.block p l in
      List.iter (fun i -> emit (encode_instr i)) b.Ir.Block.body;
      match b.Ir.Block.terminator with
      | Ir.Block.Halt -> emit (encode_halt ())
      | Ir.Block.Fallthrough l' ->
        emit (encode_jmp (Hashtbl.find index_of l'))
      | Ir.Block.Cond { cond; taken; fallthrough; taken_probability = _ } ->
        emit (encode_br ~target:(Hashtbl.find index_of taken) cond);
        emit (encode_jmp (Hashtbl.find index_of fallthrough)))
    ordered;
  Image.to_bytes image

(* ---- disassembling ---- *)

type raw =
  | Plain of I.op
  | Br of I.operand * int
  | Jmp of int
  | Halt_r

type error =
  | Bad_image of Image.error
  | Empty_image
  | Unknown_opcode of { index : int; opcode : int }
  | Bad_register of { index : int; byte : int }
  | Bad_width of { index : int; width : int }
  | Target_out_of_range of { index : int; target : int }
  | Branch_at_end of { index : int }

let error_to_string = function
  | Bad_image e -> "bad image: " ^ Image.error_to_string e
  | Empty_image -> "image has no instruction records"
  | Unknown_opcode { index; opcode } ->
    Printf.sprintf "record %d: unknown opcode %d" index opcode
  | Bad_register { index; byte } ->
    Printf.sprintf "record %d: bad register byte 0x%02x" index byte
  | Bad_width { index; width } ->
    Printf.sprintf "record %d: memory width %d (want 4 or 8)" index width
  | Target_out_of_range { index; target } ->
    Printf.sprintf "record %d: target %d out of range" index target
  | Branch_at_end { index } ->
    Printf.sprintf "record %d: branch at end of image" index

(* raised by the decoder, caught by [disassemble] *)
exception Malformed of error

let decode_record index r =
  let fail e = raise (Malformed e) in
  (* a register byte is [kind lsl 6 lor index]: bit 7 is never set *)
  let reg b =
    if b land 0x80 <> 0 then fail (Bad_register { index; byte = b });
    let idx = b land 0x3f in
    if b land 0x40 <> 0 then Ir.Reg.F idx else Ir.Reg.R idx
  in
  let operand byte imm =
    if byte = imm_marker then I.Imm (imm r) else I.Reg (reg byte)
  in
  let operand_a () = operand (get_a r) get_imm_a in
  let operand_b () = operand (get_b r) get_imm_b in
  let dst () = reg (get_dst r) in
  let width () =
    match get_width r with
    | (4 | 8) as w -> w
    | w -> fail (Bad_width { index; width = w })
  in
  let op = get_op r in
  let in_table base table = op >= base && op - base < Array.length table in
  if op = op_nop then Plain I.Nop
  else if op = op_mov then Plain (I.Mov (dst (), operand_b ()))
  else if op = op_neg then Plain (I.Unop_neg (dst (), operand_b ()))
  else if in_table op_binop_base binops then
    Plain
      (I.Binop
         (binops.(op - op_binop_base), dst (), operand_a (), operand_b ()))
  else if in_table op_fbinop_base fbinops then
    Plain
      (I.Fbinop
         (fbinops.(op - op_fbinop_base), dst (), operand_a (), operand_b ()))
  else if in_table op_cmp_base cmps then
    Plain (I.Cmp (cmps.(op - op_cmp_base), dst (), operand_a (), operand_b ()))
  else if op = op_load then
    Plain
      (I.Load
         {
           dst = dst ();
           addr = { I.base = reg (get_a r); disp = get_imm_b r };
           width = width ();
           annot = Ir.Annot.none;
         })
  else if op = op_store then
    Plain
      (I.Store
         {
           src = operand_a ();
           addr = { I.base = reg (get_dst r); disp = get_imm_b r };
           width = width ();
           annot = Ir.Annot.none;
         })
  else if op = op_br then Br (operand_a (), get_imm_b r)
  else if op = op_jmp then Jmp (get_imm_b r)
  else if op = op_halt then Halt_r
  else fail (Unknown_opcode { index; opcode = op })

let label_of idx = Printf.sprintf "L%d" idx

let build image =
  let n = Image.count image in
  let raws = Array.init n (fun i -> decode_record i (Image.get_record image i)) in
  let check_target i t =
    if t < 0 || t >= n then
      raise (Malformed (Target_out_of_range { index = i; target = t }))
  in
  (* leaders: entry, branch targets, successors of control records *)
  let is_leader = Array.make n false in
  is_leader.(Image.entry_index image) <- true;
  Array.iteri
    (fun i raw ->
      match raw with
      | Br (_, t) | Jmp t ->
        check_target i t;
        is_leader.(t) <- true;
        if i + 1 < n then is_leader.(i + 1) <- true
      | Halt_r -> if i + 1 < n then is_leader.(i + 1) <- true
      | Plain _ -> ())
    raws;
  (* build blocks *)
  let next_id = ref 1 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let blocks = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let body = ref [] in
    let terminator = ref None in
    let continue = ref true in
    while !continue && !i < n do
      (match raws.(!i) with
      | Plain op ->
        body := I.make ~id:(fresh ()) op :: !body;
        incr i;
        (* a leader right after a plain record splits the block *)
        if !i < n && is_leader.(!i) then begin
          terminator := Some (Ir.Block.Fallthrough (label_of !i));
          continue := false
        end
      | Br (cond, t) ->
        (* BR falls through to the next record *)
        if !i + 1 >= n then raise (Malformed (Branch_at_end { index = !i }));
        terminator :=
          Some
            (Ir.Block.Cond
               {
                 cond;
                 taken = label_of t;
                 fallthrough = label_of (!i + 1);
                 taken_probability = 0.5;
               });
        incr i;
        continue := false
      | Jmp t ->
        terminator := Some (Ir.Block.Fallthrough (label_of t));
        incr i;
        continue := false
      | Halt_r ->
        terminator := Some Ir.Block.Halt;
        incr i;
        continue := false)
    done;
    let terminator =
      match !terminator with
      | Some t -> t
      | None -> Ir.Block.Halt  (* ran off the image end *)
    in
    blocks :=
      Ir.Block.make ~label:(label_of start) ~body:(List.rev !body) terminator
      :: !blocks
  done;
  Ir.Program.make
    ~entry:(label_of (Image.entry_index image))
    (List.rev !blocks)

let disassemble bytes_ =
  match Image.of_bytes bytes_ with
  | Error e -> Error (Bad_image e)
  | Ok image when Image.count image = 0 -> Error Empty_image
  | Ok image -> ( try Ok (build image) with Malformed e -> Error e)
