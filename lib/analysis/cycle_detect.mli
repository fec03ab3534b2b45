(** Incremental cycle detection for the constraint graph (the paper's
    reference [12], inlined in Figure 13).

    The structure maintains a partial order [T] over instruction ids
    with the invariant: for every constraint edge [X -> Y] currently in
    the graph, [T(X) < T(Y)].  Adding a check-constraint (whose source
    is not yet scheduled, hence has no incoming edges) only requires
    lowering [T(source)]; adding an anti-constraint may create a cycle,
    which the caller breaks by inserting an AMOV instruction. *)

type t

val create : unit -> t

val init_t : t -> int -> int -> int
(** [init_t t id v] initializes (or refreshes) [T id] to [v]; returns
    [v]. *)

val get_t : t -> int -> int
(** Raises [Not_found] for an id never initialized. *)

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
          ids (the component reachable from [y]); edge added *)
  | Cycle of int list
      (** [x] is reachable from [y]: adding the edge would close a
          cycle; edge {e not} added; returned set is the reachable
          component *)

val try_add_anti : t -> x:int -> y:int -> verdict

val lower_for_check : t -> x:int -> y:int -> unit
(** For a check-constraint [x -> y] whose [x] has no incoming edges:
    if [T x >= T y], set [T x = T y - 1]; then record the edge. *)

val reachable_from : t -> int -> int list
(** Ids reachable from the given id, itself included. *)
