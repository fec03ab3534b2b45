(** Statistics collected by the dynamic optimization system — the raw
    material for every figure in the paper's evaluation. *)

type t = {
  (* cycle accounting *)
  mutable total_cycles : int;
  mutable interp_cycles : int;
  mutable region_cycles : int;
  mutable optimize_cycles : int;  (** total optimizer cost (Fig 18) *)
  mutable schedule_cycles : int;  (** scheduling share of the above *)
  (* dynamic events *)
  mutable instrs_interpreted : int;
  mutable blocks_dispatched : int;
  mutable region_entries : int;
  mutable region_commits : int;
  mutable side_exits_taken : int;
  mutable rollbacks : int;
  mutable rollbacks_not_assumed : int;
      (** rollbacks whose pair was not a recorded speculation — false
          positives by construction *)
  mutable reoptimizations : int;
  mutable pinned_ops : int;
      (** operations pinned out of speculation after repeat violations *)
  mutable gave_up_regions : int;
  mutable alias_checks : int;
  (* fault injection and graceful degradation *)
  mutable injected_faults : int;
      (** detector/tcache faults injected by a {!Runtime.Driver.hooks}
          harness during this run (0 without fault injection) *)
  mutable spurious_rollbacks : int;
      (** rollbacks whose violation the harness marked as injected —
          recovery work caused by the campaign, not the workload *)
  mutable degraded_regions : int;
      (** regions the livelock watchdog blacklisted to interpreter-only
          execution after faulting repeatedly without a commit *)
  (* translation validation *)
  mutable verified_regions : int;
      (** regions the static verifier examined (0 with verification off) *)
  mutable rejected_regions : int;
      (** regions the verifier rejected; each is also degraded to
          interpreter-only execution *)
  reject_rules : (string, int) Hashtbl.t;
      (** rule name -> number of rejected regions that violated it (a
          region violating a rule several times counts once) *)
  (* translation cache (copied from [Tcache.Telemetry] after a run) *)
  mutable tcache_hits : int;
  mutable tcache_misses : int;
  mutable tcache_evictions : int;
  mutable tcache_flushes : int;
  mutable tcache_invalidations : int;
  mutable tcache_chain_follows : int;
      (** dispatches that skipped the lookup via a region chain link *)
  mutable tcache_peak_resident : int;
      (** high-water mark of resident scheduled instructions *)
  (* static, per region built *)
  mutable regions_built : int;
  mutable superblock_instrs : int;
  mutable superblock_mem_ops : int;
  mutable p_bits : int;
  mutable c_bits : int;
  mutable check_constraints : int;
  mutable anti_constraints : int;
  mutable amov_fresh : int;
  mutable amov_clear : int;
  mutable loads_eliminated : int;
  mutable stores_eliminated : int;
  mutable overflow_fallbacks : int;
  mutable nonspec_mode_regions : int;
  mutable dropped_edges : int;
      (** speculated-away may-alias dependence pairs, summed over all
          regions built — the speculation volume behind the rollback
          counters *)
  mutable certified_pairs : int;
      (** memory pairs statically certified [No_alias] by the abstract
          interpreter, summed over all regions built *)
  mutable alias_regs_saved : int;
      (** certified-pair endpoints that finished the build without
          consuming any alias-detection resource (queue slot, ALAT
          entry, or mask bit) *)
  mutable certified_alias_faults : int;
      (** non-injected runtime alias faults on a certified pair —
          always a soundness bug in the certifier; must stay zero *)
  mutable working_set : Sched.Working_set.t;
  (* host cost *)
  mutable wall_seconds : float;
      (** wall-clock host time of the driver run that produced these
          stats; non-deterministic (excluded from run-equality
          comparisons, together with [translate]) *)
  mutable translate : Sched.Profile.t;
      (** per-phase translation timers and per-region instruction
          counts, accumulated across every optimize call of the run;
          host wall-clock seconds, so run-equality comparisons zero it
          out like [wall_seconds] *)
}

val create : unit -> t

val note_region_built : t -> Opt.Optimizer.t -> ws:Sched.Working_set.t -> unit

val note_reject : t -> string list -> unit
(** Record a rejected region; the list holds the names of the violated
    rules (deduplicated before counting). *)

val reject_histogram : t -> (string * int) list
(** (rule, count) pairs in ascending rule order — deterministic for
    JSON emission. *)

val note_tcache : t -> Tcache.Telemetry.t -> unit
(** Fold a translation cache's telemetry into the run's statistics
    (counters add; the peak takes the max). *)

val mem_ops_per_superblock : t -> float
val constraints_per_mem_op : t -> float * float
(** (check, anti) per memory operation. *)

val optimize_fraction : t -> float * float
(** (total optimization, scheduling only) as fractions of total
    cycles. *)

val pp : Format.formatter -> t -> unit
