(** Common interface to alias-detection hardware models.

    A detector instance is a record of closures over some private
    hardware state; the VLIW executor drives it during atomic-region
    execution and the runtime resets it at region boundaries.  When a
    check finds an overlapping access range, the detector reports a
    {!violation} naming the two instructions involved so the runtime
    can re-optimize the region conservatively. *)

type violation = {
  checker : int;  (** instruction id performing the check *)
  setter : int;  (** instruction id whose protected range overlapped *)
  false_positive_prone : bool;
      (** true when the scheme cannot tell whether this alias actually
          endangers the optimization (e.g. ALAT checking all entries) *)
}

(** Qualitative capabilities, used to regenerate Table 1. *)
type caps = {
  scheme : string;  (** e.g. "bit-mask", "ALAT", "ordered queue" *)
  scalable : bool;
  false_positives : bool;
  detects_store_store : bool;
  max_registers : int option;  (** [None] = unbounded by encoding *)
}

type t = {
  name : string;
  caps : caps;
  reset : unit -> unit;  (** clear all state at region entry/exit *)
  on_mem : Ir.Instr.t -> lo:int -> hi:int -> (unit, violation) result;
      (** [on_mem i ~lo ~hi] executes the alias side effects (checks
          then sets) of load or store [i] whose runtime access range is
          the closed byte interval [[lo, hi]].  The range is passed as
          two ints so that the executor builds no value per memory
          operation; the queue, Efficeon and ALAT models keep ranges in
          flat int arrays and allocate only when they report a
          violation. *)
  on_rotate : int -> unit;
  on_amov : src:int -> dst:int -> unit;
  checks_performed : unit -> int;
      (** cumulative number of range comparisons, an energy proxy *)
}

val wrap :
  ?name:string ->
  ?reset:(unit -> unit) ->
  ?on_mem:
    ((Ir.Instr.t -> lo:int -> hi:int -> (unit, violation) result) ->
    Ir.Instr.t ->
    lo:int ->
    hi:int ->
    (unit, violation) result) ->
  t ->
  t
(** [wrap d] layers instrumentation over [d] without knowing which
    hardware model it is: [reset] runs after [d]'s own reset at every
    region entry, and [on_mem] receives [d]'s handler as the next stage
    (call it, then pass through or override its verdict).  Capabilities
    and counters are shared with [d].  Used by the fault-injection
    harness and available to tracing layers. *)

val pp_violation : Format.formatter -> violation -> unit
