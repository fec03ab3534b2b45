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

    {b Caching}: a request with [shared_cache = true] runs against the
    tenant's per-worker shard ({!Shards}), so its hot regions stay
    translated across requests; [shared_cache = false] gives the
    run a private cache, reproducing batch-mode behavior exactly.

    {b Fault injection}: a request carrying a {!fault_spec} replays the
    {!Verify.Fault} campaign [(seed + rid, rate)] where [rid] is the
    request's submission sequence number — per-request deterministic,
    and degradation stays local to that request's run (tenant-local by
    construction; see [Runtime.Driver.run]).

    {b Deadlines}: a request may carry a {!deadline} budget (wall
    clock and/or dispatched guest blocks), enforced through the
    driver's deadline hook.  An expired budget resolves the request
    [Timed_out] with its partial stats.

    Each accepted request runs once and resolves as exactly one of
    [Done], [Timed_out] or [Failed]; a rejected request gets no ticket
    at all.  Recovery from a failed speculation happens inside the run,
    in {!Runtime.Driver} (rollback, conservative re-optimization,
    watchdog and verifier degradation to the interpreter). *)

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
          budget *)
}

type config = {
  domains : int;  (** worker domains in the pool *)
  queue_limit : int;  (** max accepted-but-unfinished requests *)
  batch : int;
      (** must be 1.  Requests are not batched; the field stays only
          because the frozen repository benchmark builds this record
          with [{ default_config with ... }] naming every other field,
          which the compiler rejects once nothing is left for [with]. *)
  shard_policy : Tcache.Policy.t;  (** eviction policy of every shard *)
  tenant_budget : int option;
      (** per-shard capacity (scheduled-region instructions): the
          per-tenant eviction budget.  [None] = unbounded. *)
}

val default_config : config
(** 2 domains, queue limit 64, batch 1, LRU shards, unbounded budget. *)

type request = {
  tenant : string;
  job : Exec.Matrix.job;
  shared_cache : bool;
  fault : fault_spec option;
  deadline : deadline option;
}

type resolution =
  | Done of Runtime.Driver.result
      (** the run ended with any outcome other than
          [Deadline_exceeded] *)
  | Timed_out of Runtime.Driver.result
      (** deadline budget expired; the result carries the partial stats
          and machine state accumulated up to the cutoff *)
  | Degraded of Runtime.Driver.result
      (** Never produced.  Kept only for source compatibility with the
          frozen repository benchmark, which still matches on it. *)
  | Failed of exn  (** the run raised *)

type reply = {
  request : request;
  resolution : resolution;
  queue_wait_s : float;  (** submit to worker pickup *)
  service_s : float;  (** the run itself *)
  translate_s : float;  (** translation share of service *)
  execute_s : float;  (** [service_s - translate_s] *)
  worker : int;  (** which worker domain ran it *)
  injected : int;  (** faults injected by this request's plan *)
}

type ticket
type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on [queue_limit < 1] or [batch <> 1]. *)

val submit : t -> request -> [ `Accepted of ticket | `Rejected ]
(** Never blocks, never raises: a full queue and a shut-down server
    both reject (counted).  An accepted request is dispatched to the
    pool at once. *)

val await : ticket -> reply
(** Block until the request finishes. *)

val shutdown : t -> unit
(** Drain every accepted request and join the pool.  Idempotent;
    concurrent callers all block until the single drain completes. *)

val shards_telemetry : ?tenant:string -> t -> Tcache.Telemetry.t
(** Aggregate shard telemetry, optionally for one shard key (note shard
    tenants are keyed ["tenant|job-label"]). *)

val shard_count : t -> int

val inflight : t -> int
(** Accepted-but-unfinished requests right now. *)

val run_matrix : ?domains:int -> Exec.Matrix.job list -> Exec.Matrix.outcome list
(** {!Exec.Matrix.run_matrix} as a service client: one fresh-cache
    no-fault request per job on a private server, outcomes in job-list
    order, first job exception re-raised.  Each request is the same
    {!Smarq.run_program} call {!Exec.Matrix.run_job} makes, so the
    results match the batch path; the test suite checks stats and
    final guest state. *)

type report = {
  submitted : int;  (** accepted requests *)
  completed : int;  (** resolved [Done] *)
  rejected : int;  (** admission rejections (not errors) *)
  errors : int;  (** resolved [Failed] *)
  timed_out : int;  (** resolved [Timed_out] *)
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
