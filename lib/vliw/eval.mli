(** Shared instruction semantics, used by both the reference
    interpreter and the VLIW region executor so the two can never
    disagree on data behaviour.

    Arithmetic is on native OCaml integers; division by zero yields 0
    (guest programs are synthetic, this keeps them total); shift
    amounts are masked to 0..31.  "Floating-point" operations operate
    on integer values — they exist to exercise distinct latencies and
    functional units, not numerics. *)

val operand_value : Machine.t -> Ir.Instr.operand -> int
val addr_of : Machine.t -> Ir.Instr.addr -> int

val exec_data : Machine.t -> Ir.Instr.t -> unit
(** Execute the data effect (register/memory updates) of a non-control
    instruction.  [Rotate], [Amov], branches, jumps and exits have no
    data effect and are ignored. *)

type control =
  | Fall_through
  | Goto of Ir.Instr.label
  | Leave_region of Ir.Instr.label

val exec_control : Machine.t -> Ir.Instr.t -> control
(** Control decision of an instruction (uses but does not modify the
    machine). *)
