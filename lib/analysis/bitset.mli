(** Dense bitsets over [0, n) backed by [Bytes], plus a rectangular
    matrix variant used as a reachability cache.

    The dependence and hazard passes index instructions by their body
    position, so sets of instructions are just sets of small integers;
    a flat [Bytes] buffer beats hashtables by an order of magnitude for
    the membership tests and unions those passes are made of. *)

type t

val mem : t -> int -> bool
val add : t -> int -> unit

val lease : prev:t option -> int -> t
(** [lease ~prev n] is an empty set over [0, n) that reuses [prev]'s
    buffer when it is large enough (clearing the used prefix), else
    allocates.  [prev] must not be used afterwards. *)

(** A matrix of [rows] bitsets, each over [0, cols), in one allocation.
    Row [i] caches, e.g., the set of body positions reachable from
    position [i]. *)
module Matrix : sig
  type m

  val mem : m -> row:int -> int -> bool
  val add : m -> row:int -> int -> unit

  val union_rows : m -> dst:int -> src:int -> unit
  (** OR row [src] into row [dst]. *)

  val lease : prev:m option -> rows:int -> cols:int -> m
  (** Like {!Bitset.lease}: reuse [prev]'s buffer when large enough
      (clearing the used region), else allocate fresh. *)
end
