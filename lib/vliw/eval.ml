module I = Ir.Instr

type control =
  | Fall_through
  | Goto of Ir.Instr.label
  | Leave_region of Ir.Instr.label

let operand_value m = function
  | I.Reg r -> Machine.get_reg m r
  | I.Imm n -> n

let addr_of m (a : I.addr) = Machine.get_reg m a.base + a.disp

let safe_div a b = if b = 0 then 0 else a / b

let binop op a b =
  match op with
  | I.Add -> a + b
  | I.Sub -> a - b
  | I.Mul -> a * b
  | I.Div -> safe_div a b
  | I.And -> a land b
  | I.Or -> a lor b
  | I.Xor -> a lxor b
  | I.Shl -> a lsl (b land 31)
  | I.Shr -> a asr (b land 31)

let fbinop op a b =
  match op with
  | I.Fadd -> a + b
  | I.Fsub -> a - b
  | I.Fmul -> a * b
  | I.Fdiv -> safe_div a b

let cmp c (a : int) b =
  match c with
  | I.Eq -> a = b
  | I.Ne -> a <> b
  | I.Lt -> a < b
  | I.Le -> a <= b
  | I.Gt -> a > b
  | I.Ge -> a >= b

let exec_data m (i : I.t) =
  match i.op with
  | I.Nop | I.Branch _ | I.Jump _ | I.Exit _ | I.Rotate _ | I.Amov _ -> ()
  | I.Mov (d, s) -> Machine.set_reg m d (operand_value m s)
  | I.Unop_neg (d, s) -> Machine.set_reg m d (-operand_value m s)
  | I.Binop (op, d, a, b) ->
    Machine.set_reg m d (binop op (operand_value m a) (operand_value m b))
  | I.Fbinop (op, d, a, b) ->
    Machine.set_reg m d (fbinop op (operand_value m a) (operand_value m b))
  | I.Cmp (c, d, a, b) ->
    Machine.set_reg m d
      (if cmp c (operand_value m a) (operand_value m b) then 1 else 0)
  | I.Load { dst; addr; width; _ } ->
    Machine.set_reg m dst (Machine.load m ~addr:(addr_of m addr) ~width)
  | I.Store { src; addr; width; _ } ->
    Machine.store m ~addr:(addr_of m addr) ~width (operand_value m src)

let exec_control m (i : I.t) =
  match i.op with
  | I.Branch { cond; target } ->
    if operand_value m cond <> 0 then Leave_region target else Fall_through
  | I.Jump l -> Goto l
  | I.Exit l -> Leave_region l
  | I.Nop | I.Mov _ | I.Unop_neg _ | I.Binop _ | I.Fbinop _ | I.Cmp _
  | I.Load _ | I.Store _ | I.Rotate _ | I.Amov _ ->
    Fall_through
