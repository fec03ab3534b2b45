(** Guest-register liveness over the guest control-flow graph.

    Backward dataflow with the boundary condition that {e every} guest
    register is live at [Halt].  That makes "dead at exit E" mean "on
    every path from E, redefined before any use and before program
    end", which is exactly the condition under which the scheduler may
    move a definition across E while keeping the final architectural
    state (compared in full by the equivalence tests) intact.

    The fixpoint runs on bit masks, one int for the 32 integer and one
    for the 32 floating-point registers of each block, with each
    block's use/def summary computed once; [analyze] runs on every
    driver run, so it allocates a few words per instruction and
    nothing per iteration.  The {!Ir.Reg.Set.t} answers are built on
    demand. *)

type t

val analyze : Ir.Program.t -> t
(** Raises [Invalid_argument] if the program names a register that is
    not a guest register (an optimizer temporary, or an index outside
    the register file). *)

val live_in : t -> Ir.Instr.label -> Ir.Reg.Set.t
(** Registers live on entry to the labeled block.  Unknown labels are
    conservatively fully live. *)

val live_out_of_block : t -> Ir.Block.t -> Ir.Reg.Set.t
