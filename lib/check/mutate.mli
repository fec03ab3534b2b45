(** Mutation testing for the static verifier.

    Each mutation corrupts a verified artifact in a way that breaks
    exactly one invariant family — dropping a runtime check, swapping
    allocated orders across a constraint, widening an offset past the
    register window, deleting an AMOV or an instruction, un-marking an
    advanced load, clearing a mask check bit, hoisting an instruction
    across a hazard edge, over-rotating the queue — and the harness
    asserts that {!Verifier.verify} rejects the mutant with (at least)
    the expected rule.  A surviving mutant is a verifier blind spot. *)

type mutation =
  | Drop_check  (** strip the C bit of a checker a reordered pair needs *)
  | Swap_orders
      (** re-annotate a check edge's ends as if their orders were swapped *)
  | Widen_offset  (** set an annotation offset to [ar_count] *)
  | Delete_amov  (** remove an AMOV instruction *)
  | Drop_advanced  (** un-mark a protected advanced load *)
  | Clear_mask_bit  (** clear the covering bit of a mask checker *)
  | Hoist_across_hazard  (** move a successor into its predecessor's cycle *)
  | Delete_instr  (** drop a body instruction from the region *)
  | Over_rotate
      (** grow a ROTATE amount: by the register count at the first
          ROTATE a reordered pair spans (SMARQ), by one at the first
          ROTATE an annotated op follows (naive queue) *)
  | Shift_witness_range  (** shift a claimed offset set off the derivation *)
  | Widen_witness_range  (** weaken a claim until disjointness fails *)
  | Swap_witness_origin  (** re-anchor a claimed fact on a bogus origin *)
  | Drop_witness  (** lose a witness, keeping the pair edge-less *)
  | Forge_witness  (** certify a pair that carries a Real edge *)
  | Desync_region_cert  (** region certified list diverges from the cert *)
  | Bogus_witness_endpoint  (** point a witness at a non-memory instr *)

val mutation_name : mutation -> string

val expected_rules : mutation -> Verifier.rule list
(** Rules at least one of which must appear in the mutant's reject
    verdict for the mutant to count as killed. *)

val mutants : Opt.Optimizer.t -> (mutation * Opt.Optimizer.t) list
(** Every mutation applicable to this artifact, each applied to its
    own copy (the artifact itself is left untouched).  Scheme-specific mutations are generated
    only for artifacts of that scheme; mutations with no viable target
    (e.g. [Delete_amov] on an AMOV-free region) are skipped. *)

type outcome = {
  mutation : mutation;
  killed : bool;
  rules_hit : Verifier.rule list;  (** rules in the mutant's verdict *)
}

type summary = {
  baseline_pass : bool;  (** the unmutated artifact verifies clean *)
  total : int;
  killed : int;
  outcomes : outcome list;
}

val run :
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  Opt.Optimizer.t ->
  summary
(** Verifies the baseline, generates all applicable mutants, and
    verifies each. *)

val pp_summary : Format.formatter -> summary -> unit
