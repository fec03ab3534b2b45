(** Translation validation: an independent static verifier for
    translated regions.

    Given a completed optimizer artifact (region, dependence graph,
    hazard graph, issue order, allocation), [verify] re-derives the
    paper's statically checkable invariants from first principles —
    without executing the region and without trusting the scheduler or
    allocator internals — and reports every violation it finds:

    - {b IR well-formedness}: the region holds exactly the superblock
      body (plus AMOV/ROTATE splices), definitions reach their uses
      respecting latencies, side exits stay ordered and are never
      crossed by blocked instructions (independent re-derivation of
      the register and control hazards);
    - {b schedule legality}: every recorded hazard edge and the
      issue-width / memory-port / one-branch-per-cycle resource limits
      are respected;
    - {b speculation-coverage soundness}: every dependence edge whose
      endpoints execute in reversed order is protected by a runtime
      check under the active scheme — the SMARQ order window
      ([order(checker) <= order(holder)] with AMOV holder tracking and
      BASE replay against ROTATE instructions), ALAT advanced-load
      marking with capacity-window eviction analysis, or Efficeon mask
      set/check bit matching with clobber analysis — and dropped
      may-alias edges were legal to drop under the policy.

    The verifier collects all violations rather than stopping at the
    first, so mutation testing and reject histograms see the full
    picture. *)

type rule =
  | Def_before_use  (** register RAW/WAR/WAW violated in the schedule *)
  | Branch_order  (** side exits not in original order *)
  | Exit_crossed  (** blocked instruction crossed a side exit *)
  | Sched_hazard  (** recorded hazard edge violated *)
  | Sched_width  (** issue-width / mem-port / branch limit exceeded *)
  | Sched_complete  (** region body diverges from the superblock *)
  | Dropped_illegal  (** dropped pair not a droppable speculative dep *)
  | Hard_reordered  (** must-alias dependence executed in reverse *)
  | Nospec_reordered  (** reordering under the no-speculation scheme *)
  | Annot_scheme  (** annotation kind inconsistent with the scheme *)
  | Annot_alloc_sync  (** annotations diverge from the allocation *)
  | Alloc_constraint  (** check/anti constraint violated by orders *)
  | Alloc_window  (** offset outside the [0, ar_count) window *)
  | Alloc_cycle  (** constraint graph cyclic without an AMOV *)
  | Queue_uncovered  (** reordered pair not covered by a queue check *)
  | Queue_base_sync  (** replayed BASE diverges from the allocation *)
  | Queue_rotate  (** non-positive rotation *)
  | Amov_bounds  (** AMOV offsets outside the window *)
  | Alat_unmarked  (** protected load not marked advanced *)
  | Alat_capacity  (** protection window outlives the ALAT capacity *)
  | Mask_uncovered  (** reordered pair not covered by set/check bits *)
  | Mask_clobbered  (** protected register reused inside the window *)
  | Mask_bounds  (** mask register index or bit-mask out of range *)
  | Cert_endpoints  (** witness endpoints malformed (ids, order, widths) *)
  | Cert_derivation  (** claimed fact not entailed by independent replay *)
  | Cert_separation  (** claimed facts do not imply disjointness *)
  | Cert_edge_kept  (** certified pair still carries a dependence edge *)
  | Dep_missing
      (** may-alias pair with neither edge nor witness (checked on every
          region, with or without a certificate) *)
  | Cert_region_sync  (** region certified list diverges from certificate *)

val rule_name : rule -> string
(** Stable snake_case identifier, used in reject histograms and
    reports. *)

type violation = {
  rule : rule;
  detail : string;
}

type verdict =
  | Pass
  | Reject of violation list  (** non-empty *)

type mode =
  | Off  (** never verify *)
  | All  (** verify every built region *)

val mode_of_string : string -> (mode, string) result
(** Parses ["off"], ["all"]. *)

val mode_name : mode -> string

val verify :
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  Opt.Optimizer.t ->
  verdict
(** [issue_width], [mem_ports] and [latency] must match the
    configuration the region was scheduled under; the scheme and
    register count come from the artifact's [policy_used]. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit
