(** Alias-register allocation constraints (Sections 4 and 5.1).

    A check-constraint [X ->check Y] means X must check Y's alias
    register at runtime, which under the ordered-detection rule forces
    [order(X) <= order(Y)].  An anti-constraint [X ->anti Y] means Y
    must {e not} check X, forcing [order(X) < order(Y)].  Together they
    form the constraint graph the allocator traverses in topological
    order, and this module also provides the validator the test suite
    uses against any completed allocation. *)

type kind =
  | Check  (** order(first) <= order(second) *)
  | Anti  (** order(first) < order(second) *)

type edge = {
  first : int;
  second : int;
  kind : kind;
}

type allocation = {
  order : (int, int) Hashtbl.t;  (** instr id -> register order *)
  base : (int, int) Hashtbl.t;  (** instr id -> BASE at its execution *)
  p_bit : (int, unit) Hashtbl.t;
  c_bit : (int, unit) Hashtbl.t;
}

val empty_allocation : unit -> allocation

val offset : allocation -> int -> int option
(** [order - base] for an allocated instruction. *)

(** What {!validate} found wrong with an allocation. *)
type problem =
  | Unsatisfied of string
      (** a check- or anti-constraint edge is violated, or one of its
          endpoints has no register order *)
  | Window of string
      (** the [order = base + offset] window discipline is broken: an
          order without a base, a negative offset, or an offset at or
          beyond [ar_count] *)

val validate :
  allocation -> edges:edge list -> ar_count:int -> (unit, problem list) result
(** Checks the REGISTER-ALLOCATION-RULE for every edge, the
    [order = base + offset >= base] window discipline, and that no
    offset reaches [ar_count].  Returns all problems, edges first. *)

val has_cycle : edge list -> bool
(** True iff the constraint graph contains a directed cycle. *)

val cycle_edges : edge list -> ids:int list -> edge list
(** The edges remaining after iteratively stripping in-degree-zero
    nodes — a witness of the cyclic core ([[]] iff acyclic over
    [ids]).  Used for structured allocation-failure reports. *)

val topological_order : edge list -> ids:int list -> int list option
(** A topological order of [ids] under the edges ([None] on cycle);
    ties broken by ascending id for determinism. *)

val pp_edge : Format.formatter -> edge -> unit
