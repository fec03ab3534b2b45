(** List scheduler with integrated alias-register allocation.

    Classic cycle-driven list scheduling over the hazard edges
    (critical-path priority, issue-width and memory-port limits, one
    branch per cycle), extended with the two SMARQ integrations of
    Section 5.3:

    - every scheduled memory operation is reported to the
      {!Smarq_alloc} allocator, which builds constraints and allocates
      register orders on the fly;
    - before each cycle the scheduler asks the allocator for overflow
      risk; while risk is high it runs in {e non-speculation mode},
      forcing memory operations to issue in original program order so
      no new reordering constraints (hence no new registers) appear.

    On completion the issue sequence is materialized into VLIW bundles
    with AMOV insertions, rotations, and per-operation annotations for
    the selected scheme. *)

type stats = {
  schedule_length : int;
  instr_count : int;
  mem_ops : int;
  p_bits : int;
  c_bits : int;
  check_constraints : int;
  anti_constraints : int;
  amov_fresh : int;  (** AMOVs that needed a new register *)
  amov_clear : int;  (** AMOVs that only clear the source *)
  ar_working_set : int;  (** max alias-register offset + 1 *)
  dropped_pairs : int;  (** speculated may-alias dependences *)
  used_nonspec_mode : bool;
}

type outcome = {
  region : Ir.Region.t;
  alloc_result : Smarq_alloc.result option;  (** queue scheme only *)
  stats : stats;
  hazards : Hazards.t;
      (** the hazard graph the schedule was built against, kept for
          translation validation ({!Check.Verifier}) *)
  issue_pos : int array;
      (** the schedule before materialization splices AMOV/ROTATE ops
          in, one cell per body instruction: the [k]-th instruction
          issued is body position [issue_pos.(k)] of [region.source] *)
  issue_cycle : int array;
      (** [issue_cycle.(k)] is the cycle the [k]-th instruction issued
          in; never decreasing.  The outcome owns both arrays: no arena
          lends them. *)
}

(** Why a region could not be built under the requested policy. *)
type failure =
  | Out_of_alias_registers of {
      scheme : Policy.annot_scheme;
          (** names the allocator or annotator that ran out:
              {!Smarq_alloc}, {!Naive_alloc}, {!Mask_alloc} or
              {!Alat_annot} *)
      detail : string;
    }

val failure_to_string : failure -> string

val heights :
  body:Ir.Instr.t list ->
  hazards:Hazards.t ->
  latency:(Ir.Instr.t -> int) ->
  int array
(** Critical-path height by body position: the longest latency-weighted
    path from the instruction to any sink through the hazard edges (its
    own latency included).  The scheduler prefers ready instructions of
    greatest height.  One reverse sweep over body positions, relying on
    every hazard edge pointing forward; raises [Invalid_argument] on an
    edge that does not. *)

val schedule :
  sb:Ir.Superblock.t ->
  deps:Analysis.Depgraph.t ->
  policy:Policy.t ->
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  fresh_id:int ref ->
  ?extra_assumed:(int * int) list ->
  ?profile:Profile.t ->
  ?arena:Analysis.Arena.t ->
  unit ->
  (outcome, failure) result
(** [extra_assumed] lists speculation assumptions made by earlier
    optimization passes (eliminations); the region's
    [assumed_no_alias] keys are their sorted merge with the hazard
    graph's dropped keys (the dropped array itself when there are
    none).  [Error] when
    even non-speculation mode cannot fit the scheme's alias registers —
    callers fall back to a less speculative build of the region.  A
    schedule that makes no progress is an invariant violation, not a
    failure: it raises [Invalid_argument], as {!Hazards.build} does on a
    repeated id and {!heights} on a backward edge.

    The scheduler is an incremental ready-queue list scheduler over the
    reduced hazard graph; the test suite holds its issue sequences to
    an independent per-cycle-rescan oracle over the unreduced graph.
    [profile] accumulates per-phase translation timers when given;
    [arena] lends the hazard builder and the SMARQ allocator reusable
    scratch buffers.  Annotations, rotations and AMOV anchors reach
    emission by body position, from whichever allocator or annotator
    the scheme uses. *)
