(** Translation validation: an independent static verifier for
    translated regions.

    Given a completed optimizer artifact (region, dependence graph,
    hazard graph, issue order, certificate), [verify] re-derives the
    paper's statically checkable invariants from first principles —
    without executing the region and without trusting the scheduler or
    allocator internals: the allocator's own records are never read —
    and reports every violation it finds:

    - {b IR well-formedness}: the region holds exactly the superblock
      body (plus AMOV/ROTATE splices), definitions reach their uses
      respecting latencies, side exits stay ordered and are never
      crossed by blocked instructions (independent re-derivation of
      the register and control hazards);
    - {b schedule legality}: every recorded hazard edge and the
      issue-width / memory-port / one-branch-per-cycle resource limits
      are respected;
    - {b speculation coverage}: every dependence edge whose endpoints
      execute in reversed order is protected by a runtime check under
      the active scheme, and dropped may-alias edges were legal to
      drop under the policy.  For the SMARQ queue the check is one
      replay of Section 3's detection rule over the region's P/C bits,
      offsets, [ROTATE]s and [AMOV]s, which yields the pairs each
      checking op compares: every reordered pair must be compared, and
      no in-order dependence pair may be (a false positive).  ALAT
      regions get advanced-load marking with capacity-window eviction
      analysis, Efficeon regions set/check bit matching with clobber
      analysis.

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
  | Alloc_window  (** annotation offset outside the [0, ar_count) window *)
  | Queue_uncovered
      (** reordered dependence pair: under the replayed detection rule
          the op executing later does not compare the register of the
          one executing earlier *)
  | Queue_spurious
      (** in-order dependence pair compared although no edge requires
          it: a false positive *)
  | Queue_base_sync
      (** naive queue: replayed BASE plus offset is not the op's
          memory position *)
  | Queue_rotate  (** non-positive rotation *)
  | Amov_bounds  (** AMOV instruction offsets outside the window *)
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
