(** Static alias certification with machine-checkable proof witnesses.

    The disambiguator runs the {!Absint} engine over a superblock body
    and, for every memory pair that {!May_alias} can only call
    [May_alias], tries to prove the two accesses disjoint.  Each
    successful proof is recorded as a self-contained witness: the two
    abstract address facts (origin, scale, offset set, width) plus the
    separation argument (range disjointness or stride congruence).
    Witnesses carry everything a checker needs — [Check.Witness]
    replays the derivation with an independent evaluator and re-does
    the disjointness arithmetic without consulting this module's
    logic.

    Certification is eager and deterministic: the certificate for a
    given body and alias analysis is a pure function of both, so a
    translation's artifact never depends on the order its consumers
    consult verdicts in. *)

(** Abstract address of one endpoint, as claimed by the certifier. *)
type fact = {
  instr : int;  (** instruction id in the body *)
  width : int;  (** access width in bytes *)
  origin : Absint.origin;
  scale : int;
  off : Absint.cset;
}

type reason =
  | Ranges
  | Congruence of int  (** the stride gcd the residue argument uses *)

(** Proof that the accesses of [x] and [y] can never overlap.  [x]
    comes before [y] in body order. *)
type witness = {
  x : fact;
  y : fact;
  reason : reason;
}

type t

val empty : t
(** The certificate of no pairs. *)

val certify :
  ?arena:Arena.t -> alias:May_alias.t -> body:Ir.Instr.t list -> unit -> t
(** Attempt to certify every memory pair involving at least one store
    whose {!May_alias.verdict} is [May_alias].  Pairs already known to
    alias (learned from rollbacks) are never candidates.  [alias] must
    be the analysis of the same [body]: when it carries {!Absint} facts
    ({!May_alias.const_facts}) they are reused instead of analyzing the
    body again.  [arena] lends the scratch (vector slot 3, int slots
    40–42, and {!Absint.analyze}'s when the facts are computed here).
    The certificate is keyed by {!Pair_key.norm}, so ids must lie in
    [[0, 2{^31})].

    The certificate is flat: the certified pairs as ascending,
    duplicate-free {!Pair_key.norm} keys ([min * 2{^31} + max], which is
    normalized-tuple order), and per key the indexes of its two
    endpoints' facts and its separation code, all int arrays; plus one
    {!fact} per memory operation a pair names, shared by every pair
    naming it.  It allocates three ints per certified pair and one fact
    per named operation, and builds no {!witness}. *)

val certified_keys :
  ?arena:Arena.t -> alias:May_alias.t -> body:Ir.Instr.t list -> unit -> int array
(** [keys (certify ~alias ~body ())], without the facts and separation
    codes: for a caller that only installs the pairs
    ({!May_alias.set_certified}). *)

val no_alias : t -> int -> int -> bool
(** Is the unordered pair certified?  A binary search over {!keys}. *)

val keys : t -> int array
(** The certified pairs as ascending {!Pair_key.norm} keys — the form
    {!May_alias.set_certified} takes.  The certificate's own array: do
    not mutate it. *)

val pairs : t -> (int * int) list
(** Certified pairs, normalized [(min, max)] and sorted — the order is
    deterministic and used for region attachment. *)

val count : t -> int

(** {2 Pairs by index}

    Pair [k < count t] is the pair of [(keys t).(k)].  These read the
    certificate in place and allocate nothing. *)

val x_fact : t -> int -> fact
(** The claimed fact of pair [k]'s endpoint that comes first in body
    order. *)

val y_fact : t -> int -> fact
(** The claimed fact of pair [k]'s later endpoint. *)

val separation : t -> int -> int
(** Pair [k]'s separation argument: 0 for [Ranges], [g > 0] for
    [Congruence g]. *)

(** {2 Record view}

    For the mutation harness, which forges certificates, and the tests.
    The translation path never builds a {!witness}. *)

val witnesses : t -> witness array
(** One fresh witness per key of {!keys}, in the same (ascending
    normalized pair) order; the facts are the certificate's own. *)

val of_witnesses : witness list -> t
(** Rebuild a certificate from raw witnesses (no re-validation) — used
    by the mutation harness to forge corrupted certificates.  A pair
    listed twice keeps its later witness.  Each witness keeps its own
    two facts.  Raises [Invalid_argument] on [Congruence g] with
    [g < 1], which the flat form cannot tell from [Ranges]. *)
