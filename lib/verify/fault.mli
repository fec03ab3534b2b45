(** Seeded, deterministic fault injection for the dynamic optimizer.

    A {!plan} decides, per region execution and per dispatched block,
    whether to perturb the system, drawing every choice from a
    {!Prng.t} — so a (seed, rate) pair names one exact fault campaign,
    replayable anywhere.  Faults come in two families:

    - {b detector faults}, delivered by wrapping the scheme's
      {!Hw.Detector.t} (the [detector] field of {!hooks}): spurious
      alias violations on arbitrary (setter, checker) pairs drawn from
      the memory operations the region actually executed; {e repeat-pair}
      violations that re-report one sticky pair (forcing the driver's
      pin path); and {e storms} — the same pair violated on many
      consecutive region executions, forcing the give-up rung and,
      past the watchdog, degradation to interpreter-only execution;
    - {b translation-cache faults}, delivered through
      {!Runtime.Driver.hooks} ({!hooks}): invalidation of the
      dispatched label or a full flush between region entries, as
      self-modifying guest code would cause.

    Every rung of the driver's recovery ladder (known-alias ordering →
    pinning → giving up speculation → watchdog degradation) is thereby
    reachable on demand, and the {!Oracle} can check that none of them
    corrupts guest state. *)

type kind =
  | Spurious  (** one violation on a fresh pair *)
  | Repeat_pair  (** a violation on the campaign's sticky pair *)
  | Storm  (** arm [storm_length] consecutive sticky-pair violations *)
  | Tcache_invalidate
  | Tcache_flush

type counters = {
  mutable spurious : int;
  mutable repeat_pair : int;
  mutable storm : int;  (** individual violations delivered by storms *)
  mutable tcache_invalidate : int;
  mutable tcache_flush : int;
}

type plan

(** A random campaign by name: {!plan} [~seed ~rate ()]. *)
type spec = {
  seed : int;
  rate : float;
}

val plan : ?storm_length:int -> seed:int -> rate:float -> unit -> plan
(** A random campaign: each region execution injects a detector fault
    with probability [rate], choosing among {!Spurious},
    {!Repeat_pair} and {!Storm}; each block dispatch injects a
    translation-cache fault with probability [rate /. 8].
    [storm_length] (default 16, clamped to >= 2) is how many
    consecutive region executions a storm covers — make it exceed the
    driver's [max_reopts] to reach the give-up rung and
    {!Runtime.Lifecycle.watchdog} to reach degradation.  [rate] is clamped to [0, 1]. *)

val forced_storm : ?length:int -> seed:int -> unit -> plan
(** A campaign that does nothing but storm: every region execution
    faults on the sticky pair ([length] default [max_int], i.e.
    forever).  Drives one hot region through the entire recovery
    ladder — the unit-test harness for known-alias → pin → give-up →
    degrade. *)

val seed : plan -> int
val rate : plan -> float
val total_injected : plan -> int
val counters : plan -> counters

val hooks : plan -> Runtime.Driver.hooks
(** The driver hooks of this plan, the whole of installing it in a
    run: the detector wrapper that layers the plan's detector faults
    over the scheme's hardware model (the wrapped detector shares the
    underlying state; genuine violations pass through unperturbed and
    are never counted as injected), translation-cache events before
    dispatch, injected-violation classification, and the final
    injected-fault count for [Stats]. *)

val pp_counters : Format.formatter -> counters -> unit
