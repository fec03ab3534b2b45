(** Incremental cycle detection for the constraint graph (the paper's
    reference [12], inlined in Figure 13).

    The structure maintains a partial order [T] over nodes with the
    invariant: for every constraint edge [X -> Y] currently in
    the graph, [T(X) < T(Y)].  Adding a check-constraint (whose source
    is not yet scheduled, hence has no incoming edges) only requires
    lowering [T(source)]; adding an anti-constraint may create a cycle,
    which the caller breaks by inserting an AMOV instruction.

    Nodes are small non-negative ints — the allocator numbers them by
    body position — and every table is an array indexed by node, grown
    on demand.  Only the node lists of a [Ok_shifted] or [Cycle] verdict
    and of {!reachable_from} allocate once the tables are warm. *)

type t

val create : ?arena:Arena.t -> unit -> t
(** The tables start small and grow to the largest node named.
    [arena] lends the edge lists and the search's scratch; the detector
    must be done before the arena is leased again. *)

val init_t : t -> int -> int -> int
(** [init_t t node v] initializes (or refreshes) [T node] to [v];
    returns [v].  Raises [Invalid_argument] on a negative node. *)

val get_t : t -> int -> int
(** Raises [Not_found] for a node never initialized. *)

val set_t : t -> int -> int -> unit

val add_edge : t -> int -> int -> unit
(** Record the edge for reachability queries (caller keeps its own
    richer edge structures too). *)

val remove_edge : t -> int -> int -> unit
(** Remove one occurrence of the edge [x -> y], if present. *)

(** Result of attempting to add an edge [x -> y] under the invariant. *)
type verdict =
  | Ok_already  (** [T x < T y] held; edge added *)
  | Ok_shifted of int list
      (** invariance restored by shifting [T] of the returned set of
          nodes (the component reachable from [y]); edge added *)
  | Cycle of int list
      (** [x] is reachable from [y]: adding the edge would close a
          cycle; edge {e not} added; returned set is the reachable
          component *)

val try_add_anti : t -> x:int -> y:int -> verdict

val lower_for_check : t -> x:int -> y:int -> unit
(** For a check-constraint [x -> y] whose [x] has no incoming edges:
    if [T x >= T y], set [T x = T y - 1]; then record the edge. *)

val reachable_from : t -> int -> int list
(** Nodes reachable from the given node, itself included, in no
    particular order. *)
