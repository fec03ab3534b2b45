(** The dynamic optimization system of Figure 1: interpret cold code
    while profiling, form superblocks at hot seeds, optimize them
    speculatively, execute the translations as atomic regions on the
    VLIW, and service alias exceptions by rolling back and
    re-optimizing conservatively.

    Re-optimization policy: each cached region carries one
    {!Lifecycle.t}, and each rollback steps it; the transition it
    returns says whether to learn the pair, pin its ops, give
    speculation up or degrade the region to the interpreter.  The
    transition table is in {!Lifecycle}.  Every run option lives in one
    {!Config.t}. *)

(** What a run speculates with: the scheduler's policy and the
    hardware model that checks it ([Smarq.Scheme.to_driver] builds one
    per named scheme). *)
type scheme = {
  policy : Sched.Policy.t;
  detector : Hw.Detector.t;
}

type cache
(** A translation cache that outlives one {!run}: the serve subsystem
    keeps one per tenant shard and threads it through successive driver
    runs, so a tenant's hot regions stay translated across requests.
    The cached entry type (translation + {!Lifecycle.t}) is private to
    the driver.  A cache must not be shared by two
    {e concurrent} runs — the serve layer guarantees this by keying
    shards per worker domain. *)

val make_cache : ?capacity:int -> policy:Tcache.Policy.t -> unit -> cache
(** As {!Tcache.Store.create}: [capacity] in scheduled-region
    instructions, bounding this shard's footprint (the per-tenant
    eviction budget). *)

val cache_telemetry : cache -> Tcache.Telemetry.t
(** Whole-life telemetry of the cache (a run's {!Stats.t} only folds in
    the delta accumulated during that run). *)

type outcome =
  | Completed  (** the guest program ran to halt *)
  | Fuel_exhausted
      (** the block budget ran out first; stats and machine hold the
          state accumulated up to that point *)
  | Deadline_exceeded
      (** [hooks.deadline] reported an expired budget; like
          [Fuel_exhausted], stats and machine hold the partial state
          (with [wall_seconds] set) *)

type result = {
  stats : Stats.t;
  machine : Vliw.Machine.t;
  outcome : outcome;
}

(** What a fault-injection harness may do to the dispatch loop between
    region entries. *)
type tcache_event =
  | Keep
  | Invalidate  (** drop this label's translation, as self-modifying
                    guest code would *)
  | Flush  (** drop every translation *)

(** Harness hooks threaded through a run.  [detector] is applied once,
    at the start of the run, to the scheme's hardware model (a fault
    plan layers its detector faults here).  [before_dispatch] is
    consulted once per dispatched block with its label;
    [is_injected v] classifies a violation as harness-made (counted as
    a spurious rollback); [injected_count] is read once at the end of
    the run into [Stats.injected_faults].  [deadline] is consulted once
    per dispatched block; returning [true] stops the run with the
    [Deadline_exceeded] outcome, preserving partial stats and machine
    state.  See [Verify.Fault.hooks] for the standard fault
    implementation; {!no_hooks} is the inert default. *)
type hooks = {
  detector : Hw.Detector.t -> Hw.Detector.t;
  before_dispatch : Ir.Instr.label -> tcache_event;
  is_injected : Hw.Detector.violation -> bool;
  injected_count : unit -> int;
  deadline : unit -> bool;
}

val no_hooks : hooks

val run :
  ?config:Config.t ->
  ?tcache:cache ->
  ?hooks:hooks ->
  ?capture:(Opt.Optimizer.request -> unit) ->
  scheme:scheme ->
  Ir.Program.t ->
  result
(** Runs the program to halt under the dynamic optimization system,
    configured by [config] (default {!Config.default}; its [vliw =
    None] means [Vliw.Config.default] here).  The fields' doc comments
    give the semantics of fuel, unrolling, the code cache, validation,
    certification and the re-optimization ladder.

    [tcache] substitutes a pre-existing {!cache} (e.g. a tenant's
    shard) for the run-private store — [config]'s cache policy and
    capacity are then ignored, cached translations and their
    re-optimization state survive across runs of the same program, and
    the run's stats fold in only the telemetry delta accumulated during
    this run; a fault streak a deadline cut short carries into the next
    run's watchdog count.  Degradation (watchdog and verifier
    blacklists) remains run-local even with a shared cache: a degraded
    label's translation is dropped, and the next run rebuilds it.
    Committed region exits are chained to resident translations so
    repeat dispatches skip the cache lookup; the cache's telemetry is
    folded into the result's [stats].

    [capture], when given, is called once per translation the run
    performs (initial builds, re-optimizations, gave-up rebuilds alike),
    in execution order, with the exact {!Opt.Optimizer.request} the
    optimizer received — including the id counter at that moment, so
    each request replays bit-identically in isolation.  This is the
    feed for {!Exec.Translate}'s parallel replay. *)
