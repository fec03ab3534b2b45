(** The SMARQ alias-register allocator, integrated with list scheduling
    (the paper's Figure 13).

    The list scheduler notifies the allocator each time it schedules a
    memory operation, in issue order.  The allocator incrementally
    builds check- and anti-constraints from the dependence graph, keeps
    the constraint graph acyclic through incremental cycle detection
    (breaking would-be cycles with AMOV instructions), and allocates
    alias-register {e orders} lazily: an operation's register order is
    fixed only when its last constraint source has been allocated,
    which lets the BASE pointer rotate past the register immediately
    afterwards and keeps the offset window — the alias-register working
    set — minimal.

    After the last memory operation has been scheduled, {!finish}
    returns everything the scheduler needs to materialize the region:
    per-position annotations, rotation amounts to insert after given
    positions, AMOV instructions to insert before given instructions,
    and statistics.

    The working state is int arrays over {e slots} — a body position,
    or [n + k] for the [k]-th AMOV pseudo-op — with int linked lists
    for per-slot edge lists and an int FIFO of ready operations.
    Scheduling a memory operation allocates only when a table grows:
    a cycle-detector table, or a list buffer the arena has not yet
    grown to the region's size.  The result shares the allocator's
    slot arrays: {!finish} fills annotations and counts, and copies
    only the constraint log. *)

type amov_insertion = {
  amov_id : int;  (** fresh instruction id for the AMOV *)
  before_pos : int;  (** insert immediately before the op at this body position *)
  src_instr : int;  (** original op whose range moves *)
  dst_is_fresh : bool;  (** false = pure clear (src = dst) *)
  src_offset : int;
  dst_offset : int;
}

type result = {
  annots : Ir.Annot.t array;
      (** by body position: the memory op's queue annotation, or
          [Ir.Annot.No_annot] for an operation the allocator left
          alone *)
  rotations : int array;
      (** by body position: rotate BASE by this much right after the
          operation (0 = no rotation) *)
  amovs : amov_insertion list;  (** in the order they were inserted *)
  max_offset : int;  (** -1 when no register was used *)
  slots : int;
      (** the operations the arrays below describe, by slot: body
          position [p < n] for the instruction at [p], [n + k] for the
          [k]-th AMOV that takes over a protected range (the [k]-th
          [dst_is_fresh] entry of [amovs]).  Cells from [slots] on are
          stale. *)
  slot_ids : int array;  (** instruction id by slot *)
  orders : int array;  (** register order by slot; -1 for no register *)
  bases : int array;
      (** BASE at the operation's execution, by slot, where [orders] is
          not -1 *)
  flags : Bytes.t;  (** per-slot bits, read with {!is_p} and {!is_c} *)
  checks : int array;
      (** the check constraints [first ->check second] in insertion
          order, as slot pairs: [first] at [2k], [second] at [2k + 1] *)
  antis : int array;  (** the anti constraints, likewise *)
  p_bits : int;  (** slots with the P bit *)
  c_bits : int;  (** slots with the C bit *)
}

val is_p : result -> int -> bool
(** Does the operation at this slot set its register (P bit)? *)

val is_c : result -> int -> bool
(** Does the operation at this slot check the queue (C bit)? *)

(** The result keyed by instruction id, as the constraint validator
    reads it. *)
type tables = {
  allocation : Analysis.Constraints.allocation;
      (** final orders/bases/bits by instruction id, AMOV pseudo-ops
          included *)
  check_edges : Analysis.Constraints.edge list;  (** in insertion order *)
  anti_edges : Analysis.Constraints.edge list;
}

val allocation_tables : result -> tables
(** A fresh id-keyed view of the result, for validation in the tests
    ({!Analysis.Constraints.validate}).  The translation path never
    builds one. *)

type t

val create :
  hazards:Hazards.t ->
  deps:Analysis.Depgraph.t ->
  ar_count:int ->
  fresh_id:int ref ->
  ?arena:Analysis.Arena.t ->
  unit ->
  t
(** [hazards] names the body in original program order (its positions
    initialize the cycle detector's partial order [T] and number the
    slots); [fresh_id] supplies AMOV ids.  [arena] lends the growable
    edge and cell lists; the allocator must be finished before the
    arena is leased again.  Raises [Invalid_argument] when a
    dependence names an instruction outside the body. *)

val on_schedule : t -> int -> unit
(** Must be called for every memory operation, by body position, in
    issue order.  Once an offset would reach the physical register
    count even after rotation the allocator has {e overflowed}: it
    ignores every later call and {!finish} returns [Error]. *)

val overflowed : t -> bool
(** Whether an overflow has been recorded — the scheduler stops early
    rather than finish a schedule that will be discarded. *)

val overflow_risk : t -> lookahead_p:int -> bool
(** Conservative estimate (paper lines 21-31): would scheduling
    speculation that adds [lookahead_p] more protected registers risk
    exceeding the physical count?  The scheduler switches to
    non-speculation mode while this is true.  Reads running counts:
    allocates nothing. *)

val unscheduled_ext_p : t -> int
(** Number of not-yet-scheduled operations that extended dependences
    will force to take a register even without reordering. *)

val finish : t -> (result, string) Stdlib.result
(** Call once after all memory operations are scheduled.  [Error]
    describes the overflow — recorded while scheduling, or an AMOV
    whose offsets fall outside the window; the caller falls back to a
    less speculative build of the region. *)
