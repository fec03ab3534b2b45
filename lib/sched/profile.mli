(** Per-phase translation timers.

    One collector accumulates wall-clock seconds per pipeline phase
    (alias analysis, dependence graph, hazard graph + priorities,
    SMARQ allocation setup/finish, list scheduling, region emission)
    plus per-region instruction counts.  The optimizer and scheduler
    thread an optional collector through their phases; when absent,
    timing costs nothing.  Allocation work interleaved with the
    scheduling loop ([Smarq_alloc.on_schedule]) is charged to the
    scheduling phase — only allocator construction and finalization
    land in [alloc_s]. *)

type t = {
  mutable alias_s : float;
  mutable depgraph_s : float;
  mutable hazards_s : float;
  mutable alloc_s : float;
  mutable sched_s : float;
  mutable emit_s : float;
  mutable regions : int;  (** regions translated *)
  mutable instrs : int;  (** total instructions across those regions *)
}

val create : unit -> t

val now : unit -> float
(** [Unix.gettimeofday] — the pipeline's single time source. *)

val time : t option -> (t -> float -> unit) -> (unit -> 'a) -> 'a
(** [time profile add f] runs [f], charging its duration via [add]
    when a collector is present. *)

val add_alias : t -> float -> unit
val add_depgraph : t -> float -> unit
val add_hazards : t -> float -> unit
val add_alloc : t -> float -> unit
val add_sched : t -> float -> unit
val add_emit : t -> float -> unit
val note_region : t -> instrs:int -> unit
val total : t -> float
(** Sum of all phase timers. *)

val regions_per_second : t -> float
val instrs_per_second : t -> float

val phases : t -> (string * float) list
(** [(phase name, seconds)] in pipeline order — the benchmark's JSON
    fields. *)

val pp : Format.formatter -> t -> unit
(** Prints nothing when no time was recorded. *)

val accumulate : into:t -> t -> unit
val reset : t -> unit
