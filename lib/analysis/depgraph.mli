(** Memory dependences over a superblock body (Section 4.1 of the
    paper), including the extended dependences introduced by
    speculative load/store elimination.

    A {e real} dependence [X ->dep Y] exists when X precedes Y in the
    original program order, they may (or must) access the same memory,
    and at least one of them is a store.  Dependence strength mirrors
    the may-alias verdict: must-alias dependences are hard scheduling
    edges; may-alias dependences are the speculation candidates that
    the alias hardware checks.

    {e Extended} dependences run against the original order: when a
    load Z is eliminated by forwarding from X, every intervening store
    Y that may alias X yields [Y ->dep X]; when a store X is eliminated
    because a later store Z overwrites it, every intervening load Y
    that may alias Z yields [Z ->dep Y].  Intervening stores are
    deliberately excluded from the latter — a store between X and Z is
    itself overwritten by Z, so it never observes the elimination.

    Whatever the scheduler does with the pair, SMARQ's constraint
    machinery then guarantees that one of the two operations checks the
    other at runtime. *)

type kind =
  | Real  (** program-order memory dependence *)
  | Extended  (** introduced by a speculative elimination *)

type strength =
  | Hard  (** must-alias: the scheduler may never reorder the pair *)
  | Speculative  (** may-alias: reorderable under hardware detection *)

(** [first ->dep second]: the pair must be alias-checked unless the
    schedule provably preserves safety.  For [Real] edges [first]
    precedes [second] in the original order; for [Extended] edges it is
    the reverse. *)
type edge = {
  first : int;  (** instruction id *)
  second : int;
  kind : kind;
  strength : strength;
}

(** An elimination event reported by the optimizer. *)
type elimination =
  | Load_forwarded of {
      source : int;  (** X: forwarding source (load or store) *)
      eliminated : int;  (** Z: the removed load's original id *)
    }
  | Store_overwritten of {
      eliminated : int;  (** X: the removed store's original id *)
      overwriter : int;  (** Z: the later store *)
    }

type t

val build :
  body:Ir.Instr.t list ->
  alias:May_alias.t ->
  ?eliminated:(elimination * Ir.Instr.t list) list ->
  ?arena:Arena.t ->
  unit ->
  t
(** [body] is the post-elimination superblock body in original order.
    Each elimination comes with the {e original} instruction list
    between the two endpoints (needed because eliminated instructions
    are no longer in [body]).

    Real dependences are built by a near-linear swept builder (bucket
    memory operations by base-register generation; decide within-bucket
    pairs with a displacement-sorted interval sweep; enumerate
    cross-bucket pairs output-sensitively).  It emits exactly the edge
    list of the O(n{^ 2}) pairwise definition, in pairwise order; the
    test suite holds it to an independent pairwise oracle.

    [?arena] lends the swept builder reusable scratch buffers (see
    {!Arena}); the resulting graph never aliases arena storage. *)

val edges : t -> edge list

val edges_into : t -> int -> edge list
(** Edges whose [second] is the given instruction id — the set the
    allocator examines when that instruction is scheduled. *)

(** {2 Allocation-free traversal}

    The iterators walk the flat edge store directly, in the same order
    the list accessors above materialize; hot consumers (the hazard
    builder, the alias-register allocators) use these so the per-edge
    records never exist. *)

val iter_edges :
  t ->
  (first:int -> second:int -> kind:kind -> strength:strength -> unit) ->
  unit

val iter_into :
  t ->
  int ->
  (first:int -> second:int -> kind:kind -> strength:strength -> unit) ->
  unit
(** Edges whose [second] is the given id, in [edges_into] order. *)

val iter_mem_deps :
  t -> (first:int -> second:int -> strength:strength -> unit) -> unit
(** Real dependences only, in original order. *)

val pp : Format.formatter -> t -> unit
