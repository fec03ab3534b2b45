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

val certify : alias:May_alias.t -> body:Ir.Instr.t list -> t
(** Attempt to certify every memory pair involving at least one store
    whose {!May_alias.verdict} is [May_alias].  Pairs already known to
    alias (learned from rollbacks) are never candidates.  [alias] must
    be the analysis of the same [body]: when it carries {!Absint} facts
    ({!May_alias.const_facts}) they are reused instead of analyzing the
    body again.  Allocates per certified pair, not per examined pair;
    the certificate is keyed by {!Pair_key.norm}, so ids must lie in
    [[0, 2{^31})]. *)

val no_alias : t -> int -> int -> bool
val pairs : t -> (int * int) list
(** Certified pairs, normalized [(min, max)] and sorted — the order is
    deterministic and used for region attachment. *)

val witnesses : t -> witness list
(** Sorted by normalized pair. *)

val of_witnesses : witness list -> t
(** Rebuild a certificate from raw witnesses (no re-validation) — used
    by the mutation harness to forge corrupted certificates. *)

val count : t -> int
