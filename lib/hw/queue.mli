(** Order-based alias register queue (Sections 2.4 and 3 of the paper).

    Alias registers form an ordered circular queue of [size] entries
    addressed by an {e offset} relative to a rotating [BASE] pointer.
    A memory operation annotated [Queue {offset; p; c}]:

    - with the C bit, checks every {e set} register whose queue order
      is at-or-after its own register's order — this implements the
      ORDERED-ALIAS-DETECTION-RULE: X checks Y iff Y executed earlier,
      Y has P, X has C, and [order(X) <= order(Y)].  Registers set by
      loads are never checked by loads (hardware marks them);
    - with the P bit, then stores its access range into the register at
      [offset] (check happens before set, so an operation never checks
      itself).

    [rotate n] advances [BASE] by [n], freeing the [n] registers that
    slide off the front of the window.  [amov ~src ~dst] moves the
    range held at offset [src] to offset [dst] and clears [src]
    ([src = dst] just clears).

    Internally the queue tracks the monotonically increasing {e order}
    [base + offset] of every live entry, which is exactly the paper's
    [order(X) = base(X) + offset(X)] invariant.  The registers are a
    flat ring of [size] slots, order [o] in slot [o mod size]; every
    live order lies in [[base, base + size)], so no two share a slot,
    and a memory operation allocates nothing unless it reports a
    violation.

    When a checking operation overlaps several registers, the reported
    setter is the first overlapping register in {e conflict order}:
    ranked by [Hashtbl.hash order land (b - 1)] with
    [b = max 16 (the power of two >= 2 * size)], then newest insertion
    first, where a register is inserted when it goes from free to set
    (setting a set register, directly or by [amov], keeps its place).
    [checks_performed] grows by the number of checked registers at or
    before the reported one in that order, or by every checked register
    when none overlaps. *)

type t

val create : size:int -> t
(** Raises [Invalid_argument] if [size <= 0]. *)

val size : t -> int
val base : t -> int
(** Current logical BASE (total rotation since last reset). *)

val detector : t -> Detector.t
(** Wrap the queue as a generic detector named ["smarq<size>"]. *)

val reset : t -> unit

val on_mem :
  t -> Ir.Instr.t -> lo:int -> hi:int -> (unit, Detector.violation) result
(** Performs the checks/sets implied by the instruction's annotation for
    the access range [[lo, hi]].
    Instructions without a [Queue] annotation are ignored.  Raises
    [Invalid_argument] if an annotation offset falls outside the
    register window (software overflow bug). *)

val rotate : t -> int -> unit
val amov : t -> src:int -> dst:int -> unit

val live_entries : t -> (int * Access.t * int) list
(** [(order, range, setter_id)] of every set register, for tests and
    debugging. *)

val checks_performed : t -> int
