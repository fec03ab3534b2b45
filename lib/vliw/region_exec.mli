(** Atomic execution of a translated region on the VLIW.

    The executor creates a checkpoint, resets the alias-detection unit,
    then issues the region's bundles in order.  Memory operations feed
    their runtime access range to the detector; a reported violation
    is the hardware's alias exception: the machine rolls back to the
    checkpoint and the outcome names the offending instruction pair so
    the runtime can re-optimize.  Exits and faults come back as
    values, never as OCaml exceptions.  A run that commits allocates
    nothing: the outcome goes into a caller-owned {!result}, there is
    no closure or ref per run, no access range per memory operation
    (the range goes to the detector as two ints), nothing per register
    write or journaled store, and branch conditions are tested in
    place.  Only a rollback allocates, to report its violation.  A
    taken side exit commits (the scheduler guarantees committed state
    is exact at every side exit) and leaves towards the guest label.  Falling off the end commits and continues
    at the region's final exit.

    Cycle accounting: checkpoint cost + one cycle per bundle (the list
    scheduler already folded latencies and resource limits into bundle
    placement) + rollback penalty on an exception. *)

type outcome =
  | Committed
      (** ran to a side or final exit: the taken exit's label when
          [side_exit], else the region's [final_exit] ([None] means
          program end) *)
  | Alias_fault of Hw.Detector.violation  (** rolled back *)

(** The outcome of one run, written by {!run} into a record the caller
    owns and reuses, so a committing run allocates nothing. *)
type result = {
  mutable outcome : outcome;
  mutable side_exit : bool;
      (** committed by a taken side exit (or an [Exit]) towards
          [exit_label]; [false] when the run fell off the end towards
          the region's [final_exit] or faulted *)
  mutable exit_label : Ir.Instr.label;
      (** the taken exit's guest label; meaningful only when
          [side_exit] *)
  mutable cycles : int;  (** includes cache stall cycles when a cache is given *)
  mutable alias_checks : int;  (** range comparisons performed by the detector *)
}

val make_result : unit -> result
(** A record for {!run} to fill; its initial contents mean nothing. *)

val run :
  config:Config.t ->
  detector:Hw.Detector.t ->
  machine:Machine.t ->
  ?cache:Cache.t ->
  Ir.Region.t ->
  result ->
  unit
(** [run ~config ~detector ~machine region r] executes [region] and
    overwrites every field of [r] that its outcome defines.  Raises
    [Invalid_argument] on malformed regions (e.g. an alias register
    offset outside the configured window — a software allocation bug,
    which tests treat as fatal). *)
