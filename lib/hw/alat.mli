(** Itanium ALAT-like alias detection (Section 2.3 of the paper).

    Advanced loads insert entries into the Advanced Load Address Table;
    every store automatically checks {e all} live entries without
    naming the registers it must check.  That yields false positives —
    a store may hit an entry whose alias does not endanger any
    optimization — and the table cannot detect aliases between stores,
    so store reordering must be disabled by the optimizer when this
    scheme is in use. *)

type t

val create : ?size:int -> unit -> t
(** [size] is the table capacity (default 32); inserting into a full
    table evicts the oldest entry, which silently loses protection —
    the optimizer avoids this by bounding live advanced loads. *)

val size : t -> int
val detector : t -> Detector.t
val reset : t -> unit
val on_mem :
  t -> Ir.Instr.t -> lo:int -> hi:int -> (unit, Detector.violation) result
val live_count : t -> int
val checks_performed : t -> int
