(** Superblocks: single-entry, multiple-exit straight-line regions
    formed along hot paths (Section 4 of the paper optimizes within
    superblock regions).

    The body holds instructions in {e original program execution
    order}; conditional [Branch] instructions are side exits that leave
    the region towards a guest label.  [final_exit] is the guest label
    control falls through to when the whole superblock executes (or
    [None] when the region ends the program).

    [live_out] maps each side exit's instruction id to the set of guest
    registers live when that exit is taken; [final_live_out] is the set
    live at the fall-through.  The scheduler uses these to decide which
    instructions may move across an exit while keeping committed state
    exact.  When a liveness analysis is not available, the conservative
    default (every guest register live everywhere) is always sound. *)

type t = {
  entry : Instr.label;  (** guest label of the first block *)
  body : Instr.t list;  (** original order, side exits included *)
  final_exit : Instr.label option;
  source_blocks : Instr.label list;  (** guest blocks merged, in order *)
  live_out : (int, Reg.Set.t) Hashtbl.t;  (** side-exit id -> live regs *)
  final_live_out : Reg.Set.t;
}

val make :
  entry:Instr.label ->
  body:Instr.t list ->
  final_exit:Instr.label option ->
  source_blocks:Instr.label list ->
  ?live_out:(int * Reg.Set.t) list ->
  ?final_live_out:Reg.Set.t ->
  unit ->
  t
(** Omitted liveness information defaults to all guest registers. *)

val exit_live_out : t -> int -> Reg.Set.t
(** Live set at the side exit with the given instruction id
    (conservative default if unknown). *)

val memory_ops : t -> Instr.t list
(** Loads and stores, in original order. *)

val side_exits : t -> Instr.t list

val instr_count : t -> int
val max_instr_id : t -> int
val pp : Format.formatter -> t -> unit
