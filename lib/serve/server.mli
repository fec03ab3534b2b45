(** Translation-as-a-service: many guest programs, one SMARQ runtime.

    A server owns a long-running {!Exec.Pool} of worker domains and a
    {!Shards} partition of translation caches.  Clients {!submit}
    requests — each one full dynamic-optimization run of one guest
    program under one scheme, on behalf of a tenant — and {!await} the
    reply on the returned ticket.

    {b Admission control}: at most [queue_limit] requests may be
    accepted-but-unfinished at once; past that, {!submit} returns
    [`Rejected] immediately (no queue entry, no blocking), which is the
    backpressure signal an open-loop client must observe.  A server
    that has begun {!shutdown} also rejects rather than raising, so a
    draining server degrades gracefully.  Rejections are counted
    separately from errors in the {!report}.

    {b Batching}: accepted requests buffer per tenant and dispatch to
    the pool in groups of [batch] (default 1 = no batching); a partial
    batch is dispatched by {!flush}, {!shutdown}, or — since the
    resilience rework — by {!await} itself when the awaited request is
    still buffered, so blocking on a ticket can no longer deadlock
    against the caller's own undelivered batch.

    {b Caching}: a request with [shared_cache = true] runs against the
    tenant's per-worker shard ({!Shards}), so its hot regions stay
    translated across requests; [shared_cache = false] gives the
    run a private cache, reproducing batch-mode behavior exactly.

    {b Fault injection}: a request carrying a {!fault_spec} replays the
    PR-3 fault campaign [(seed + rid, rate)] where [rid] is the
    request's submission sequence number — per-request deterministic,
    and degradation stays local to that request's run (tenant-local by
    construction; see [Runtime.Driver.run]).

    {b Resilience} (all off by default): a request may carry a
    {!deadline} budget (wall clock and/or dispatched guest blocks)
    enforced through the driver's deadline hook — an expired budget
    resolves the request [Timed_out] with its partial stats.  A
    configured {!Retry.policy} re-runs attempts that raised, with
    jittered exponential backoff seeded per request by
    [retry_seed + rid], each retry paid from the tenant's
    [retry_budget].  A configured {!Breaker.config} keeps one
    closed/open/half-open breaker per (tenant, scheme); an open breaker
    sheds requests to the degraded path instead of rejecting them.  The
    degraded path — also the fallback once retries are exhausted — runs
    the request interpreter-only (no regions, so it cannot alias-fault)
    on a private cache and resolves it [Degraded].  A configured
    {!Chaos.plan} injects worker stalls, poisoned attempts, and shard
    flushes, deterministically in (seed, rid, attempt).  Every request
    therefore resolves as exactly one of
    completed / timed-out / degraded / failed — or is rejected with no
    ticket at all. *)

type fault_spec = {
  fault_seed : int;  (** base seed; each request adds its sequence number *)
  fault_rate : float;
}

type deadline = {
  wall_s : float option;
      (** end-to-end wall budget from submission (includes queue wait);
          checked every 64th dispatched block *)
  blocks : int option;
      (** guest blocks dispatched per driver run — a deterministic
          budget, the one the soak harness replays *)
}

type config = {
  domains : int;  (** worker domains in the pool *)
  queue_limit : int;  (** max accepted-but-unfinished requests *)
  batch : int;  (** requests per pool dispatch, per tenant *)
  shard_policy : Tcache.Policy.t;  (** eviction policy of every shard *)
  tenant_budget : int option;
      (** per-shard capacity (scheduled-region instructions): the
          per-tenant eviction budget.  [None] = unbounded. *)
  retry : Retry.policy option;  (** [None] = no retries *)
  retry_budget : int option;
      (** retry tokens per tenant; [None] = unlimited *)
  retry_seed : int;  (** backoff-jitter seed (plus request rid) *)
  breaker : Breaker.config option;  (** [None] = no breakers *)
  chaos : Chaos.plan option;  (** [None] = no service-level chaos *)
}

val default_config : config
(** 2 domains, queue limit 64, batch 1, LRU shards, unbounded budget,
    every resilience feature off. *)

type request = {
  tenant : string;
  job : Exec.Matrix.job;
  shared_cache : bool;
  fault : fault_spec option;
  deadline : deadline option;
}

type resolution =
  | Done of Runtime.Driver.result  (** a normal attempt completed *)
  | Timed_out of Runtime.Driver.result
      (** deadline budget expired; the result carries the partial stats
          and machine state accumulated up to the cutoff *)
  | Degraded of Runtime.Driver.result
      (** served by the interpreter-only fallback (breaker shed, or
          retries exhausted) *)
  | Failed of exn
      (** the degraded fallback itself raised, or — with retries and
          breakers both off — the single attempt raised *)

type reply = {
  request : request;
  resolution : resolution;
  queue_wait_s : float;  (** submit to worker pickup *)
  service_s : float;  (** the terminal run itself *)
  translate_s : float;  (** translation share of service *)
  execute_s : float;  (** [service_s - translate_s] *)
  worker : int;  (** which worker domain ran it *)
  injected : int;  (** faults injected by this request's plan *)
  attempts : int;  (** runs performed, degraded fallback included *)
}

type ticket
type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on [queue_limit < 1], [batch < 1], or
    out-of-range retry/breaker settings. *)

val submit : t -> request -> [ `Accepted of ticket | `Rejected ]
(** Never blocks, never raises: a full queue and a shut-down server
    both reject (counted). *)

val flush : t -> unit
(** Dispatch every partial per-tenant batch now. *)

val await : ticket -> reply
(** Block until the request finishes.  If the request is still sitting
    in its tenant's partial batch, that batch is dispatched first — no
    prior {!flush} required. *)

val shutdown : t -> unit
(** Dispatch partial batches, drain every accepted request, join the
    pool.  Idempotent; concurrent callers all block until the single
    drain completes. *)

val translate :
  t ->
  ?jobs:int ->
  config:Vliw.Config.t ->
  Opt.Optimizer.request list ->
  Exec.Translate.result
(** {!Exec.Translate.replay} on the server's own pool: parallel
    translation shares the long-running worker domains with request
    service rather than nesting a second pool.  [jobs] bounds in-flight
    requests (default: the pool size); artifacts come back in
    submission order.  Raises [Invalid_argument] after {!shutdown}. *)

val invalidate : t -> string -> unit
(** Cross-shard invalidation of a guest label (self-modifying-code
    shootdown).  Call while no request is running. *)

val shards_telemetry : ?tenant:string -> t -> Tcache.Telemetry.t
(** Aggregate shard telemetry, optionally for one shard key (note shard
    tenants are keyed ["tenant|job-label"]). *)

val shard_count : t -> int

val inflight : t -> int
(** Accepted-but-unfinished requests right now. *)

val pool_health : t -> Exec.Pool.health
(** Point-in-time worker-pool snapshot (queue depth, failed jobs,
    shutting-down flag) for the soak report. *)

val run_matrix : ?domains:int -> Exec.Matrix.job list -> Exec.Matrix.outcome list
(** {!Exec.Matrix.run_matrix} as a service client: one fresh-cache
    no-fault request per job on a private server, outcomes in job-list
    order, first job exception re-raised.  Results are bit-identical to
    the batch path because workers execute the same
    {!Exec.Matrix.run_job} unit. *)

type report = {
  submitted : int;  (** accepted requests *)
  completed : int;  (** resolved [Done] *)
  rejected : int;  (** admission rejections (not errors) *)
  errors : int;  (** resolved [Failed] *)
  timed_out : int;  (** resolved [Timed_out] *)
  degraded : int;  (** resolved [Degraded] *)
  retries : int;  (** extra attempts granted across all tenants *)
  retry_budget_exhausted : int;  (** retries refused for lack of tokens *)
  breaker_transitions : int;  (** state changes summed over breakers *)
  breaker_sheds : int;  (** requests diverted to the degraded path *)
  breakers_open : int;  (** breakers open at snapshot time *)
  chaos_stalls : int;
  chaos_poisons : int;
  chaos_flushes : int;
  injected_faults : int;
  sim_seconds : float;  (** sum of per-request service time *)
  queue_wait : Runtime.Percentiles.summary;
  service : Runtime.Percentiles.summary;
  translate : Runtime.Percentiles.summary;
  execute : Runtime.Percentiles.summary;
  total : Runtime.Percentiles.summary;  (** queue wait + service *)
}

val report : t -> report
(** A consistent snapshot of the counters and latency summaries. *)

val report_json : report -> string
(** One JSON object (counters plus the five latency summaries, each
    through {!Runtime.Percentiles.summary_json}). *)

val pp_report : Format.formatter -> report -> unit
