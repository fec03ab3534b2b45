(** Transmeta Efficeon-like alias detection (Section 2.2 of the paper).

    Each memory operation may set one named alias register and check an
    explicit {e bit-mask} of alias registers.  The mask lives in the
    instruction encoding, which is why the scheme cannot scale past 15
    registers.  Checks are precise (no false positives) and stores can
    be checked against stores, but the optimizer must enumerate every
    register to check, and regions needing more than [size] live
    registers cannot be speculated. *)

type t

val encoding_limit : int
(** 15, the paper's stated Efficeon bound. *)

val create : ?size:int -> unit -> t
(** Defaults to {!encoding_limit}.  Raises [Invalid_argument] when
    [size] exceeds {!encoding_limit} or is non-positive. *)

val size : t -> int
val detector : t -> Detector.t
val reset : t -> unit
val on_mem :
  t -> Ir.Instr.t -> lo:int -> hi:int -> (unit, Detector.violation) result
val checks_performed : t -> int
