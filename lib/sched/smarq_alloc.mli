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
    per-instruction annotations, rotation amounts to insert after given
    instructions, AMOV instructions to insert before given
    instructions, and statistics. *)

type amov_insertion = {
  amov_id : int;  (** fresh instruction id for the AMOV *)
  before : int;  (** insert immediately before this instruction id *)
  src_instr : int;  (** original op whose range moves *)
  dst_is_fresh : bool;  (** false = pure clear (src = dst) *)
  src_offset : int;
  dst_offset : int;
}

type result = {
  annots : (int * Ir.Annot.t) list;  (** memory-op id -> annotation *)
  rotations : (int * int) list;  (** after instr id, rotate by n *)
  amovs : amov_insertion list;
  max_offset : int;  (** -1 when no register was used *)
  check_edges : Analysis.Constraints.edge list;
  anti_edges : Analysis.Constraints.edge list;
  allocation : Analysis.Constraints.allocation;
      (** final orders/bases/bits, for validation and statistics *)
}

type t

val create :
  body:Ir.Instr.t list ->
  deps:Analysis.Depgraph.t ->
  ar_count:int ->
  fresh_id:int ref ->
  t
(** [body] in original program order (positions initialize the cycle
    detector's partial order [T]); [fresh_id] supplies AMOV ids. *)

val on_schedule : t -> Ir.Instr.t -> unit
(** Must be called for every memory operation, in issue order.  Once an
    offset would reach the physical register count even after rotation
    the allocator has {e overflowed}: it ignores every later call and
    {!finish} returns [Error]. *)

val overflowed : t -> bool
(** Whether an overflow has been recorded — the scheduler stops early
    rather than finish a schedule that will be discarded. *)

val overflow_risk : t -> lookahead_p:int -> bool
(** Conservative estimate (paper lines 21-31): would scheduling
    speculation that adds [lookahead_p] more protected registers risk
    exceeding the physical count?  The scheduler switches to
    non-speculation mode while this is true. *)

val unscheduled_ext_p : t -> int
(** Number of not-yet-scheduled operations that extended dependences
    will force to take a register even without reordering. *)

val finish : t -> (result, string) Stdlib.result
(** Call once after all memory operations are scheduled.  [Error]
    describes the overflow — recorded while scheduling, or an AMOV
    whose offsets fall outside the window; the caller falls back to a
    less speculative build of the region. *)
