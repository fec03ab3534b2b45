(** Atomic execution of a translated region on the VLIW.

    The executor creates a checkpoint, resets the alias-detection unit,
    then issues the region's bundles in order.  Memory operations feed
    their runtime access range to the detector; a reported violation
    is the hardware's alias exception: the machine rolls back to the
    checkpoint and the outcome names the offending instruction pair so
    the runtime can re-optimize.  Exits and faults come back as
    values, never as OCaml exceptions.  A run allocates its result once
    per region execution and nothing per instruction: no closure or ref
    per run, no access range per memory operation (the range goes to
    the detector as two ints), nothing per register write or journaled
    store.  A taken side exit commits (the scheduler
    guarantees committed state is exact at every side exit) and leaves
    towards the guest label.  Falling off the end commits and continues
    at the region's final exit.

    Cycle accounting: checkpoint cost + one cycle per bundle (the list
    scheduler already folded latencies and resource limits into bundle
    placement) + rollback penalty on an exception. *)

type outcome =
  | Committed of Ir.Instr.label option
      (** ran to a (side or final) exit; [None] means program end *)
  | Alias_fault of Hw.Detector.violation  (** rolled back *)

type result = {
  outcome : outcome;
  cycles : int;  (** includes cache stall cycles when a cache is given *)
  alias_checks : int;  (** range comparisons performed by the detector *)
}

val run :
  config:Config.t ->
  detector:Hw.Detector.t ->
  machine:Machine.t ->
  ?cache:Cache.t ->
  Ir.Region.t ->
  result
(** Raises [Invalid_argument] on malformed regions (e.g. an alias
    register offset outside the configured window — a software
    allocation bug, which tests treat as fatal). *)
