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
  succ_start : int array;
      (** [n + 1] row offsets into [succ]: the successors of position
          [p] are [succ.(succ_start.(p)) .. succ.(succ_start.(p+1) - 1)] *)
  succ : int array;  (** successor body positions, each row descending *)
  pred_start : int array;  (** [n + 1] row offsets into [pred] *)
  pred : int array;  (** predecessor body positions, each row descending *)
  dropped : (int * int) list;  (** speculated-away may-alias pairs *)
}
(** The graph is stored once, position-indexed, in compressed sparse
    row form: one flat array of edge endpoints per direction plus row
    offsets, allocated per result (never per edge).  Every edge points
    forward in body position ([p < s] for each successor [s] of [p]),
    which lets consumers compute longest paths in one reverse sweep.
    Rows are in descending position order — the order a consumer that
    stops at the first edge it finds (the mutation harness) or reports
    violations as it finds them (the verifier) relies on. *)

val build :
  sb:Ir.Superblock.t ->
  deps:Analysis.Depgraph.t ->
  policy:Policy.t ->
  ?arena:Analysis.Arena.t ->
  unit ->
  t
(** [?arena] lends the builder reusable scratch buffers (see
    {!Analysis.Arena}); the result never aliases arena storage.  Once
    the arena is warm a build allocates per result — the id, position
    and row arrays and the dropped list — and nothing per operand or
    per candidate edge.  Dropped pairs are collected as
    {!Analysis.Pair_key.pack} keys, so instruction ids must lie in
    [[0, 2{^31})]. *)

val iter_succs : t -> int -> (int -> unit) -> unit
(** [iter_succs t p f] applies [f] to the successor positions of body
    position [p], in row order.  Allocates nothing. *)

val iter_preds : t -> int -> (int -> unit) -> unit
(** [iter_preds t p f] applies [f] to the predecessor positions of body
    position [p], in row order.  Allocates nothing. *)

val preds : t -> int -> int list
(** Predecessor ids of an instruction id, in row order ([[]] for an
    unknown id).  A list view for tests and oracles. *)

val succs : t -> int -> int list
(** Successor ids of an instruction id, in row order. *)
