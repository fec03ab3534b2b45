(** Abstract interpretation of superblock bodies for address
    certification.

    Superblock bodies are straight-line (side exits leave the region,
    they never join back), so a single forward pass computes, for every
    register at every point, a sound abstract value of the form

      [scale * origin + k],  [k] in a bounded stride set

    where the origin is an execution-point-independent anchor: a pure
    constant, the value a guest register held {e at region entry}, or
    the (unknown but fixed) result of one specific instruction.  Two
    memory operations whose abstract addresses share an origin and
    scale can then be compared exactly on their offset sets — through
    base copies, [base += stride] bumps between unrolled iterations,
    and masked/scaled index arithmetic — even though the origin's
    runtime value is unknown.

    The domain deliberately never says "top" for a register: a value
    the transfer functions cannot model becomes [Opaque id] of its
    defining instruction, which still supports equality-based
    reasoning (same base register, not redefined in between).  Only
    addresses whose offsets overflow the magnitude guard are dropped
    ({!address} returns [None]).

    The pass itself runs over flat int storage and allocates nothing
    per instruction: the register environment is leased from an
    {!Arena}, and the result holds one row of ints per memory
    operation, read by its position among the body's memory operations
    ({!mem_count}, {!has_address}, {!separation}, ...). *)

(** Execution-point-independent anchor of an abstract value. *)
type origin =
  | Const  (** no symbolic part: the value is the offset set itself *)
  | Entry of Ir.Reg.t  (** the value register [r] held at region entry *)
  | Opaque of int  (** the unmodelled result of instruction [id] *)

(** Bounded stride set: the integers [k] with [lo <= k <= hi] and,
    when [stride > 0], [k = rem (mod stride)].  [stride = 0] marks a
    singleton ([lo = hi]); [stride > 0] implies [0 <= rem < stride]. *)
type cset = {
  lo : int;
  hi : int;
  stride : int;
  rem : int;
}

type value = {
  origin : origin;
  scale : int;  (** 0 exactly when [origin] is [Const] *)
  off : cset;
}

val origin_equal : origin -> origin -> bool
val point : int -> cset

(** Why two abstract addresses cannot overlap. *)
type sep =
  | Ranges  (** the offset intervals, width-extended, are disjoint *)
  | Congruence of int
      (** no offset difference inside the overlap window matches the
          residue class mod the carried stride gcd *)

val separated : value -> int -> value -> int -> sep option
(** [separated v1 w1 v2 w2] proves the byte ranges
    [[a1, a1+w1)] and [[a2, a2+w2)] disjoint for every concretization,
    or returns [None].  Requires equal origins and scales — with
    different anchors nothing relates the two addresses. *)

type t

val analyze : ?arena:Arena.t -> body:Ir.Instr.t list -> unit -> t
(** One forward pass over the body in original program order.
    [arena] lends the register environment (slots 32–38 and intmap
    slot 3; a fresh arena when absent); with a warm arena the pass
    allocates only the result, per memory operation.  The result never
    aliases arena storage. *)

(** {2 Results by position}

    Memory operation [k] is the [k]-th load or store of the analyzed
    body, in body order. *)

val mem_count : t -> int
val mem : t -> int -> Ir.Instr.t
val width : t -> int -> int
(** Access width in bytes. *)

val has_address : t -> int -> bool
(** [false] when the address overflowed the magnitude guard. *)

val value_at : t -> int -> value
(** The abstract address of an operation with {!has_address}; builds
    the value. *)

val constant_address : t -> int -> int option
(** The address when it is a provable constant. *)

val separation : t -> int -> int -> int
(** [separation t i j] is {!separated} on operations [i] and [j] at
    their widths, as a code that needs no allocation: [-1] when not
    proved (or either has no address), [0] for [Ranges], [g > 0] for
    [Congruence g]. *)

val address : t -> int -> (value * int) option
(** Abstract address and access width of the memory operation with the
    given instruction id (the last one, should the id repeat); [None]
    for non-memory instructions and for addresses whose offsets
    overflowed the magnitude guard.  A linear search for tests and
    printing: the hot paths read by position. *)

val pp_origin : Format.formatter -> origin -> unit
val pp_cset : Format.formatter -> cset -> unit
val pp_value : Format.formatter -> value -> unit
