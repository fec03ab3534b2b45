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
    ({!address} returns [None]). *)

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

val cset_add : cset -> cset -> cset option
(** [None] when a bound exceeds the magnitude guard. *)

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

val analyze : body:Ir.Instr.t list -> t
(** One forward pass over the body in original program order. *)

val address : t -> int -> (value * int) option
(** Abstract address and access width of the memory operation with the
    given instruction id; [None] for non-memory instructions and for
    addresses whose offsets overflowed the magnitude guard. *)

val pp_origin : Format.formatter -> origin -> unit
val pp_cset : Format.formatter -> cset -> unit
val pp_value : Format.formatter -> value -> unit
