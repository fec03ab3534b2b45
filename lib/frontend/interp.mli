(** Reference interpreter for guest programs.

    Defines the ground-truth semantics: the dynamic optimization system
    must produce exactly this final architectural state.  Also provides
    block-level stepping for the runtime driver and a superblock tracer
    used as the alias oracle in tests. *)

type stats = {
  mutable instrs_executed : int;
  block_counts : (Ir.Instr.label, int) Hashtbl.t;
}

val fresh_stats : unit -> stats

type error = Out_of_fuel  (** the instruction budget ran out before halt *)

val exec_block :
  ?stats:stats -> Vliw.Machine.t -> Ir.Block.t -> Ir.Instr.label option
(** Execute one basic block; return the next label ([None] = halt). *)

val run :
  ?fuel:int ->
  ?stats:stats ->
  Vliw.Machine.t ->
  Ir.Program.t ->
  (stats, error) result
(** Run from the entry to halt.  [fuel] bounds executed instructions
    (default 10,000,000); beyond it the run stops with
    [Error Out_of_fuel], leaving the machine (and [stats], if given) as
    far as it got. *)

(** Ground-truth trace of one superblock execution, used as the alias
    oracle by tests and by precision experiments. *)
type mem_event = {
  instr_id : int;
  range : Hw.Access.t;
  is_store : bool;
}

type trace = {
  taken_exit : Ir.Instr.label option;  (** label left to, [None] = ran through to [final_exit] *)
  events : mem_event list;  (** memory accesses in original order *)
  executed_ids : int list;  (** all instruction ids executed, in order *)
}

val trace_superblock : Vliw.Machine.t -> Ir.Superblock.t -> trace
(** Executes the superblock body in original program order on the given
    machine (mutating it), recording memory events, stopping at the
    first taken side exit. *)
