(** Domain-based worker pool: parallel [map] with deterministic output
    order.

    Results come back in submission order regardless of which domain
    executed which job, so a parallel run is observationally identical
    to the sequential one as long as [f] touches no shared mutable
    state.  The first job exception (in submission order) is re-raised
    with its original backtrace after all workers drain. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element using up to
    [domains] domains (default {!default_domains}; the calling domain
    participates).  [~domains:1] runs sequentially in the caller with
    no domain spawned. *)

(** {2 Long-running pool}

    [map] spins domains up and down per call — right for one-shot
    matrix runs, wrong for a service.  A {!t} keeps [domains] worker
    domains alive across many submissions: jobs are queued and run in
    FIFO order, each receiving the index of the worker executing it
    (0 .. domains-1), so callers can keep per-worker state — e.g. a
    tenant's per-domain translation-cache shard — without locking.

    Shutdown is graceful and idempotent: every job accepted before
    {!shutdown} is drained (executed to completion) before it returns,
    and concurrent or repeated shutdowns all block until that single
    drain-and-join finishes. *)

type t

val create : ?domains:int -> unit -> t
(** Spawn [domains] (default {!default_domains}, min 1) worker
    domains.  The calling domain does not participate — it stays free
    to submit and await. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (int -> unit) -> unit
(** Queue a job; some worker eventually runs [job worker_index].
    Raises [Invalid_argument] after {!shutdown} has begun.  A job that
    raises is swallowed and counted in {!failed_jobs} — jobs are
    expected to capture their own results and errors. *)

val failed_jobs : t -> int
(** Jobs that raised instead of returning (0 for well-behaved
    callers).  Atomically counted; safe to read from any domain at any
    time. *)

val shutdown : t -> unit
(** Stop accepting submissions, drain every queued and in-flight job,
    and join all workers.  Idempotent: a second call (from any thread,
    concurrent or later) returns once the same drain completes, and
    never double-joins. *)
