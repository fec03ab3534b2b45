(** Instructions of the optimizer IR.

    The IR is a load/store RISC with explicit memory-operation
    annotations for hardware alias detection, plus the two
    SMARQ-specific instructions of Section 3 of the paper:
    [Rotate] (advance the alias-register queue's [BASE] pointer) and
    [Amov] (move / clear an alias-register's access range).

    Every instruction carries a unique [id] (unique within a region)
    used by the dependence analysis, constraint graph and scheduler. *)

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

(** A memory address: [base + displacement] bytes. *)
type addr = {
  base : Reg.t;
  disp : int;
}

type op =
  | Nop
  | Mov of Reg.t * operand  (** dst <- src *)
  | Unop_neg of Reg.t * operand  (** dst <- -src *)
  | Binop of binop * Reg.t * operand * operand
  | Fbinop of fbinop * Reg.t * operand * operand
  | Cmp of cmp * Reg.t * operand * operand  (** dst <- (a cmp b) ? 1 : 0 *)
  | Load of {
      dst : Reg.t;
      addr : addr;
      width : int;  (** bytes accessed, 4 or 8 *)
      annot : Annot.t;
    }
  | Store of {
      src : operand;
      addr : addr;
      width : int;
      annot : Annot.t;
    }
  | Branch of {
      cond : operand;  (** taken iff non-zero *)
      target : label;
    }
  | Jump of label
  | Exit of label  (** leave the translated region towards guest [label] *)
  | Rotate of int  (** advance alias-register [BASE] by [n] *)
  | Amov of {
      src_offset : int;
      dst_offset : int;
    }  (** move access range between alias-register offsets; clears src *)

type t = {
  id : int;
  op : op;
}

val make : id:int -> op -> t

val is_memory : t -> bool
(** Loads and stores; [Rotate]/[Amov] are alias-queue management, not
    memory operations. *)

val is_load : t -> bool
val is_store : t -> bool
val is_branch : t -> bool
(** Conditional branches and jumps and region exits. *)

val is_side_exit : t -> bool
(** Conditional branches (superblock side exits). *)

val mem_addr : t -> addr option
val mem_width : t -> int option

val annot : t -> Annot.t
(** [No_annot] for non-memory operations. *)

val with_annot : t -> Annot.t -> t
(** Replace the alias annotation of a memory operation.  Identity on
    non-memory operations. *)

val defs : t -> Reg.t list
(** Registers written. *)

val uses : t -> Reg.t list
(** Registers read (including address bases and store sources). *)

val iter_defs : (Reg.t -> unit) -> t -> unit
(** [iter_defs f i] applies [f] to exactly the registers of [defs i],
    in the same order, and allocates nothing.  Hot loops create [f]
    once and pass per-instruction state through mutable cells. *)

val iter_uses : (Reg.t -> unit) -> t -> unit
(** [iter_uses f i] applies [f] to exactly the registers of [uses i],
    in the same order and with the same multiplicity (a store whose
    source is its own base visits that register twice), and allocates
    nothing. *)

val latency : t -> int
(** Default issue-to-result latency in cycles (loads 3, multiplies 3,
    divides 8, FP 4 except fdiv 12, everything else 1).  The VLIW
    configuration may override these. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_operand : Format.formatter -> operand -> unit
val pp_addr : Format.formatter -> addr -> unit
