(** Scheduling precedence edges for a superblock body.

    Three families of hard edges:
    - register dependences (RAW, WAR, WAW);
    - memory dependences from the dependence graph: must-alias edges
      always, may-alias edges only when the policy forbids reordering
      that pair;
    - control edges around side exits: stores never cross a branch in
      either direction; a definition of a register live at an exit
      never crosses that exit; branches stay ordered among themselves.

    Dropped may-alias edges are returned separately — they are the
    speculation assumptions the region records for re-optimization.
    The list is normalized: ascending (first, second) order, no
    duplicates.

    The builder emits the {e reduced} graph: exit fences become two
    edges per instruction (nearest blocking exit on each side, with the
    branch chain carrying transitivity) instead of all blocked
    (instruction, exit) pairs, and a transitive reduction prunes
    redundant edges.  Because every latency is at least one cycle, any
    edge set with the all-pairs graph's transitive closure schedules
    identically (see DESIGN.md); the test suite compares it against an
    independent all-pairs, unreduced oracle. *)

type t = {
  ids : int array;  (** instruction ids in body order *)
  index : (int, int) Hashtbl.t;  (** instr id -> body position *)
  preds_of : int list array;  (** body position -> predecessor ids *)
  succs_of : int list array;  (** body position -> successor ids *)
  dropped : (int * int) list;  (** speculated-away may-alias pairs *)
}

val build :
  sb:Ir.Superblock.t ->
  deps:Analysis.Depgraph.t ->
  policy:Policy.t ->
  ?arena:Analysis.Arena.t ->
  unit ->
  t
(** [?arena] lends the builder reusable scratch buffers (see
    {!Analysis.Arena}); the result never aliases arena storage.
    Dropped pairs are collected as {!Analysis.Pair_key.pack} keys, so
    instruction ids must lie in [[0, 2{^31})]. *)

val preds : t -> int -> int list
val succs : t -> int -> int list
