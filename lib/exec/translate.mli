(** Parallel per-region translation: capture the optimize requests a
    driver run performs, then replay them over the domain pool.

    The driver's lazy dispatch loop discovers hot regions one at a
    time, so it never holds more than one pending translation; the
    parallelism is in the requests themselves, which are pure functions
    of their captured inputs and independent of each other.  Replay at
    any job count produces bit-identical artifacts and a
    deterministically-ordered profile merge — the test suite's
    differential battery holds it to that. *)

(** The pure-data outputs of one translation.  (The full
    {!Opt.Optimizer.t} also carries analysis structures whose physical
    hashtable layout is insertion-order dependent; the artifact is
    exactly the part where structural equality means "same
    translation".) *)
type artifact = {
  region : Ir.Region.t;
  issue_seq : (int * Ir.Instr.t) list;
  stats : Opt.Optimizer.opt_stats;
  policy_used : Sched.Policy.t;
}

val artifact_of : Opt.Optimizer.t -> artifact
val equal_artifact : artifact -> artifact -> bool

type result = {
  artifacts : artifact list;
      (** one per request, in submission order regardless of which
          domain translated what *)
  profile : Sched.Profile.t;
      (** per-phase timers: each request times into a private
          collector, merged in submission order, so the aggregate's
          float-sum order is identical at every job count *)
  wall_seconds : float;
}

val capture_program :
  ?config:Runtime.Config.t ->
  ?unroll:int ->
  scheme:Smarq.Scheme.t ->
  Ir.Program.t ->
  Runtime.Driver.result * Vliw.Config.t * Opt.Optimizer.request list
(** Run the program through {!Smarq.run_program} under [config]
    (default [Runtime.Config.default]), recording every translation
    request (initial builds, re-optimizations, gave-up rebuilds) in
    execution order.  Returns the driver result, the VLIW configuration
    the run used (replay must use the same one), and the requests.
    [unroll], when given, overrides [config.unroll]; it exists only so
    the frozen repository benchmark, which passes [~unroll], keeps
    compiling. *)

val replay :
  ?pool:Pool.t ->
  ?jobs:int ->
  config:Vliw.Config.t ->
  Opt.Optimizer.request list ->
  result
(** Translate every request.  [jobs = 1] (the default without a pool)
    replays sequentially on the calling domain with one shared arena —
    the fast single-domain path.  With [jobs > 1], requests fan out
    over [pool] (reused, not shut down, so a caller replaying many
    batches keeps one set of worker domains) or, when no pool
    is given, over a private pool of [jobs] domains that is shut down
    before returning.  A sliding window bounds in-flight requests to
    [jobs] even on a larger shared pool.  Each worker domain keeps its
    own scratch arena, indexed by the pool's worker id. *)
