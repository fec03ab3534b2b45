type label = string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Xor
  | Shl
  | Shr

type fbinop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type operand =
  | Reg of Reg.t
  | Imm of int

type addr = {
  base : Reg.t;
  disp : int;
}

type op =
  | Nop
  | Mov of Reg.t * operand
  | Unop_neg of Reg.t * operand
  | Binop of binop * Reg.t * operand * operand
  | Fbinop of fbinop * Reg.t * operand * operand
  | Cmp of cmp * Reg.t * operand * operand
  | Load of {
      dst : Reg.t;
      addr : addr;
      width : int;
      annot : Annot.t;
    }
  | Store of {
      src : operand;
      addr : addr;
      width : int;
      annot : Annot.t;
    }
  | Branch of {
      cond : operand;
      target : label;
    }
  | Jump of label
  | Exit of label
  | Rotate of int
  | Amov of {
      src_offset : int;
      dst_offset : int;
    }

type t = {
  id : int;
  op : op;
}

let make ~id op = { id; op }

let is_memory i =
  match i.op with
  | Load _ | Store _ -> true
  | Nop | Mov _ | Unop_neg _ | Binop _ | Fbinop _ | Cmp _ | Branch _ | Jump _
  | Exit _ | Rotate _ | Amov _ ->
    false

let is_load i =
  match i.op with
  | Load _ -> true
  | _ -> false

let is_store i =
  match i.op with
  | Store _ -> true
  | _ -> false

let is_branch i =
  match i.op with
  | Branch _ | Jump _ | Exit _ -> true
  | _ -> false

let is_side_exit i =
  match i.op with
  | Branch _ -> true
  | _ -> false

let mem_addr i =
  match i.op with
  | Load { addr; _ } | Store { addr; _ } -> Some addr
  | _ -> None

let mem_width i =
  match i.op with
  | Load { width; _ } | Store { width; _ } -> Some width
  | _ -> None

let annot i =
  match i.op with
  | Load { annot; _ } | Store { annot; _ } -> annot
  | _ -> Annot.none

let with_annot i annot =
  match i.op with
  | Load l -> { i with op = Load { l with annot } }
  | Store s -> { i with op = Store { s with annot } }
  | _ -> i

let operand_reg = function
  | Reg r -> [ r ]
  | Imm _ -> []

let defs i =
  match i.op with
  | Mov (d, _) | Unop_neg (d, _) | Binop (_, d, _, _) | Fbinop (_, d, _, _)
  | Cmp (_, d, _, _) ->
    [ d ]
  | Load { dst; _ } -> [ dst ]
  | Nop | Store _ | Branch _ | Jump _ | Exit _ | Rotate _ | Amov _ -> []

let uses i =
  match i.op with
  | Nop | Jump _ | Exit _ | Rotate _ | Amov _ -> []
  | Mov (_, s) | Unop_neg (_, s) -> operand_reg s
  | Binop (_, _, a, b) | Fbinop (_, _, a, b) | Cmp (_, _, a, b) ->
    operand_reg a @ operand_reg b
  | Load { addr; _ } -> [ addr.base ]
  | Store { src; addr; _ } -> operand_reg src @ [ addr.base ]
  | Branch { cond; _ } -> operand_reg cond

(* The iterators visit exactly the registers of [defs]/[uses], in the
   same order, straight from the operation: no list, no closure. *)
let iter_defs f i =
  match i.op with
  | Mov (d, _) | Unop_neg (d, _) | Binop (_, d, _, _) | Fbinop (_, d, _, _)
  | Cmp (_, d, _, _) ->
    f d
  | Load { dst; _ } -> f dst
  | Nop | Store _ | Branch _ | Jump _ | Exit _ | Rotate _ | Amov _ -> ()

let iter_operand f = function
  | Reg r -> f r
  | Imm _ -> ()

let iter_uses f i =
  match i.op with
  | Nop | Jump _ | Exit _ | Rotate _ | Amov _ -> ()
  | Mov (_, s) | Unop_neg (_, s) -> iter_operand f s
  | Binop (_, _, a, b) | Fbinop (_, _, a, b) | Cmp (_, _, a, b) ->
    iter_operand f a;
    iter_operand f b
  | Load { addr; _ } -> f addr.base
  | Store { src; addr; _ } ->
    iter_operand f src;
    f addr.base
  | Branch { cond; _ } -> iter_operand f cond

let latency i =
  match i.op with
  | Load _ -> 3
  | Binop ((Mul | Shl | Shr), _, _, _) -> 3
  | Binop (Div, _, _, _) -> 8
  | Fbinop (Fdiv, _, _, _) -> 12
  | Fbinop ((Fadd | Fsub | Fmul), _, _, _) -> 4
  | Nop | Mov _ | Unop_neg _
  | Binop ((Add | Sub | And | Or | Xor), _, _, _)
  | Cmp _ | Store _ | Branch _ | Jump _ | Exit _ | Rotate _ | Amov _ ->
    1

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let fbinop_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let cmp_name = function
  | Eq -> "cmpeq"
  | Ne -> "cmpne"
  | Lt -> "cmplt"
  | Le -> "cmple"
  | Gt -> "cmpgt"
  | Ge -> "cmpge"

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm n -> Format.pp_print_int ppf n

let pp_addr ppf { base; disp } =
  if disp = 0 then Format.fprintf ppf "[%a]" Reg.pp base
  else Format.fprintf ppf "[%a%+d]" Reg.pp base disp

let pp_annot ppf annot =
  match annot with
  | Annot.No_annot -> ()
  | _ -> Format.fprintf ppf "  {%a}" Annot.pp annot

let pp ppf i =
  match i.op with
  | Nop -> Format.pp_print_string ppf "nop"
  | Mov (d, s) -> Format.fprintf ppf "mov %a = %a" Reg.pp d pp_operand s
  | Unop_neg (d, s) -> Format.fprintf ppf "neg %a = %a" Reg.pp d pp_operand s
  | Binop (b, d, x, y) ->
    Format.fprintf ppf "%s %a = %a, %a" (binop_name b) Reg.pp d pp_operand x
      pp_operand y
  | Fbinop (b, d, x, y) ->
    Format.fprintf ppf "%s %a = %a, %a" (fbinop_name b) Reg.pp d pp_operand x
      pp_operand y
  | Cmp (c, d, x, y) ->
    Format.fprintf ppf "%s %a = %a, %a" (cmp_name c) Reg.pp d pp_operand x
      pp_operand y
  | Load { dst; addr; width; annot } ->
    Format.fprintf ppf "ld%d %a = %a%a" width Reg.pp dst pp_addr addr pp_annot
      annot
  | Store { src; addr; width; annot } ->
    Format.fprintf ppf "st%d %a = %a%a" width pp_addr addr pp_operand src
      pp_annot annot
  | Branch { cond; target } ->
    Format.fprintf ppf "br %a -> %s" pp_operand cond target
  | Jump l -> Format.fprintf ppf "jmp %s" l
  | Exit l -> Format.fprintf ppf "exit -> %s" l
  | Rotate n -> Format.fprintf ppf "rotate %d" n
  | Amov { src_offset; dst_offset } ->
    Format.fprintf ppf "amov %d, %d" src_offset dst_offset

let to_string i = Format.asprintf "%a" pp i
