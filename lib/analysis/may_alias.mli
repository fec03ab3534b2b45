(** Compile-time memory disambiguation for the dynamic optimizer.

    Dynamic optimizers cannot afford real alias analysis (Section 1 of
    the paper); what they can do cheaply is reason about addresses of
    the form [base + disp]:

    - same base register with no intervening redefinition of that base:
      the displacement intervals decide exactly (disjoint → no alias,
      overlapping → must alias).  The redefinition rule is the
      {e generation} of each memory operation — the number of
      definitions of its base register at earlier body positions — so
      two same-base operations are compared by displacement exactly
      when their generations are equal;
    - different bases whose absolute addresses are both provably
      constant (the "direct access" rule of the paper's related work
      [13]), when {!Absint} facts are supplied: the byte ranges decide;
    - anything else → may alias, which the optimizer speculates away
      and the hardware checks at runtime.

    This module is the one place the product decides "same base, not
    redefined"; {!Depgraph} buckets by {!generation} rather than
    re-deriving it.

    [known_alias] pairs — learned from alias exceptions — override the
    verdict to must-alias so conservative re-optimization stops
    speculating on them.

    Pair tables are keyed by {!Pair_key.norm}, so instruction ids must
    lie in [[0, 2{^31})].  A {!verdict} allocates nothing. *)

type verdict =
  | No_alias  (** provably disjoint; no dependence, no runtime check *)
  | Must_alias  (** provably overlapping; hard dependence *)
  | May_alias  (** unknown; speculation candidate *)

type t

val analyze :
  ?known_alias:(int * int) list ->
  ?const_facts:Absint.t ->
  ?arena:Arena.t ->
  body:Ir.Instr.t list ->
  unit ->
  t
(** [body] is the superblock body in original program order.
    [known_alias] holds unordered instruction-id pairs to force to
    {!Must_alias}.  [const_facts], the {!Absint} pass over the same
    [body], lets direct (constant-address) accesses be disambiguated
    across different base registers — the small win static binary
    analysis can deliver (related work [13]).  [?arena] lends the
    per-register definition counts their map (see {!Arena}); without
    one they get a fresh map. *)

val verdict : t -> Ir.Instr.t -> Ir.Instr.t -> verdict
(** Verdict for two memory operations of the analyzed body (order of
    arguments is irrelevant).  Non-memory instructions yield
    [No_alias]. *)

val add_known_alias : t -> int -> int -> unit
(** Record a runtime-detected alias pair. *)

val set_certified : t -> int array -> unit
(** Install statically certified no-alias pairs ({!Disamb.keys}):
    ascending, duplicate-free {!Pair_key.norm} keys, one per unordered
    pair.  The array is kept, not copied, and replaces any previously
    installed set.  A certified pair upgrades a {!May_alias} verdict to
    {!No_alias}; it never overrides known-alias pairs or pairs the base
    analysis decides exactly. *)

val certified : t -> int -> int -> bool
(** Is the (unordered) instruction-id pair statically certified? *)

val is_known : t -> int -> int -> bool
(** Is the (unordered) instruction-id pair a recorded alias? *)

val known_pairs : t -> (int * int) list
(** The recorded alias pairs, normalized to [(min, max)] id order; used
    by the swept dependence builder, which handles them out of band. *)

val generation : t -> Ir.Instr.t -> int
(** The number of definitions of a memory operation's base register at
    body positions before it.  Two same-base operations see an
    intervening redefinition exactly when their generations differ (an
    operation that redefines its own base bumps only later
    generations).  Raises [Not_found] for an instruction that is not a
    memory operation of the analyzed body. *)

val const_facts : t -> Absint.t option
(** The {!Absint} facts supplied to {!analyze}, so a certifier over the
    same body can reuse them instead of running the pass again. *)

val const_address : t -> Ir.Instr.t -> int option
(** The provably constant absolute address ([base + disp]) of a memory
    operation, read from the {!Absint} facts supplied to {!analyze} —
    the input to the cross-base direct verdict, exposed so {!Depgraph}
    can evaluate it once per operation instead of once per pair. *)

val pp_verdict : Format.formatter -> verdict -> unit
