(** Deterministic pseudo-random stream for the fault-injection harness.

    A splitmix64 generator: tiny state, good diffusion, and — the
    property the harness actually needs — fully reproducible from a
    seed, with no dependence on wall clock, [Random]'s global state, or
    self-init.  The same seed therefore replays the same fault
    campaign instruction for instruction. *)

type t

val create : seed:int -> t
(** Any seed is fine, including 0 (the state is pre-scrambled). *)

val next : t -> int64
(** The raw 64-bit stream. *)

val int : t -> int -> int
(** [int t bound] is uniform-ish in [\[0, bound)].  Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val below : t -> float -> bool
(** [below t p] is [float t < p], drawing the same value, without
    boxing the float.  A draw through [int] or [below] allocates
    nothing. *)
