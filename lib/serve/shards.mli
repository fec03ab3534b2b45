(** Sharded translation cache: per-tenant, per-worker partitions.

    A shard is one private cache store, keyed by [(tenant, worker)]:

    - the {b tenant} axis gives eviction-budget isolation — every shard
      is created with [tenant_budget] as its capacity, so a noisy
      tenant evicts only its own translations;
    - the {b worker} axis gives lock-free steady-state operation — a
      shard is only ever used by the worker domain it is keyed under,
      so the driver's cache operations inside a run need no mutex (only
      the shard {e lookup} and {!telemetry} lock).

    The container is generic over the store type through an {!ops}
    record, so the same sharding (and the same property tests) covers
    both raw {!Tcache.Store.t}s and the driver's opaque
    {!Runtime.Driver.cache}. *)

type 'c ops = {
  make : capacity:int option -> 'c;
  telemetry : 'c -> Tcache.Telemetry.t;
}

val store_ops : policy:Tcache.Policy.t -> 'a Tcache.Store.t ops
(** The {!ops} of a plain value store under [policy]. *)

type 'c t

val create : ?tenant_budget:int -> ops:'c ops -> unit -> 'c t
(** [tenant_budget] (scheduled-region instructions, default unlimited)
    caps every shard independently.  Raises [Invalid_argument] when
    non-positive. *)

val shard : 'c t -> tenant:string -> worker:int -> 'c
(** The (lazily created) store for this tenant on this worker.  Safe to
    call from any domain; the returned store must then only be mutated
    by worker [worker]. *)

val shard_count : 'c t -> int

val telemetry : ?tenant:string -> 'c t -> Tcache.Telemetry.t
(** Aggregate telemetry over all shards, or over one tenant's shards:
    counters sum, the peak takes the max ({!Tcache.Telemetry.add}). *)
