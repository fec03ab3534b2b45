(** The dynamic optimizer: superblock in, translated region out.

    Pipeline: may-alias analysis → speculative eliminations → dependence
    graph (with extended dependences) → list scheduling with integrated
    alias-register allocation → region materialization.

    [known_alias] carries pairs learned from alias exceptions; they are
    treated as must-alias, which disables both the reordering and the
    eliminations that speculated on them — the paper's conservative
    re-optimization.

    When the allocator overflows the physical alias registers (or the
    mask encoding), the optimizer climbs a fallback ladder — the
    requested policy, then reordering without eliminations (only when
    the policy eliminates), then no speculation — and reports the
    policy that produced the region. *)

type opt_stats = {
  sched_stats : Sched.List_sched.stats;
  loads_eliminated : int;
  stores_eliminated : int;
  fell_back : bool;  (** overflow forced a non-speculative rebuild *)
  work_units : int;  (** IR instructions processed, for overhead accounting *)
}

type t = {
  region : Ir.Region.t;
  alloc_result : Sched.Smarq_alloc.result option;
  stats : opt_stats;
  deps : Analysis.Depgraph.t;
      (** dependence graph of the final (post-elimination) body *)
  hazards : Sched.Hazards.t;
      (** hazard graph the schedule was built against *)
  issue_pos : int array;
      (** issue order before materialization: body positions into
          [region.source], as {!Sched.List_sched.outcome} has them *)
  issue_cycle : int array;  (** the issue cycle of each *)
  policy_used : Sched.Policy.t;
      (** policy of the attempt that actually produced the region —
          differs from the requested policy after an overflow fallback *)
  cert : Analysis.Disamb.t option;
      (** alias certificate: proof witnesses for every pair upgraded to
          no-alias, present iff the producing attempt's policy had
          [certify] set.  [Check.Verifier] replays these witnesses
          independently; the region's [certified_no_alias] list is the
          runtime-facing projection. *)
}

val optimize :
  policy:Sched.Policy.t ->
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  fresh_id:int ref ->
  ?known_alias:(int * int) list ->
  ?profile:Sched.Profile.t ->
  ?arena:Analysis.Arena.t ->
  Ir.Superblock.t ->
  t
(** Ids: given a superblock with unique ids, the region's ids are
    unique whatever [fresh_id] holds.  Every id the translation adds
    (temporaries, AMOVs, ROTATEs) is drawn from [fresh_id] after it is
    raised above {!Ir.Superblock.max_instr_id}: a superblock cached by
    an earlier run may carry ids above the caller's counter.

    Fails with [Failure] only if the no-speculation tier cannot be
    built, an invariant violation.  [profile], when
    given, accumulates per-phase translation timers and per-region
    instruction counts across every attempt (including fallback
    rebuilds).  [arena] lends the depgraph and hazard builders reusable
    scratch buffers; one arena serves one sequence of translations and
    must never be shared between domains. *)

(** A self-contained translation request: everything [optimize] reads,
    captured at the moment the driver would have translated.  Replaying
    a request is deterministic and independent of every other request —
    the basis for parallel translation ({!Exec.Translate}). *)
type request = {
  sb : Ir.Superblock.t;
  policy : Sched.Policy.t;
  known_alias : (int * int) list;
  fresh_base : int;
      (** driver id counter at capture time; the translation's ids are
          a pure function of [sb] and this base (see {!optimize}) *)
}

val run_request :
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  ?profile:Sched.Profile.t ->
  ?arena:Analysis.Arena.t ->
  request ->
  t
(** Replay a captured request; bit-identical to the optimize call it
    was captured from. *)
