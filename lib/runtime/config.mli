(** One run of the dynamic optimization system, configured once: the
    machine, the guest-block budget, region unrolling, the code cache,
    the re-optimization ladder, and whether translations are validated
    or certified.  Every layer above {!Driver} passes the record along
    whole; build one with [{ Config.default with ... }]. *)

type t = {
  vliw : Vliw.Config.t option;
      (** the machine model.  [None] means "derive it from the scheme":
          [Smarq.run_program] sizes the alias-register window to the
          scheme's register count, and a direct {!Driver.run} uses
          [Vliw.Config.default]. *)
  fuel : int;
      (** bound on executed guest blocks.  Running out is not an
          exception but the [Fuel_exhausted] outcome, carrying the
          statistics and machine state accumulated so far (with
          [wall_seconds] set). *)
  unroll : int;
      (** unroll self-loop superblocks this many times before
          optimization (1 = off) — the larger-regions experiment of the
          paper's conclusion. *)
  tcache_policy : Tcache.Policy.t;
      (** eviction policy of the run-private translation cache.
          [Unbounded] reproduces the unbounded-cache behavior cycle for
          cycle; evicted regions are re-translated when their entry
          label turns hot again.  Ignored when the run is handed a
          shared cache. *)
  tcache_capacity : int option;
      (** capacity of the run-private translation cache, in
          scheduled-region instructions ([None] = unlimited).  Ignored
          with a shared cache. *)
  verify : Check.Verifier.mode;
      (** run the {!Check.Verifier} translation validator on freshly
          built and re-optimized regions before they are installed
          ([All]) or never ([Off]).  A region that fails is
          never executed — its label is degraded to interpreter-only
          execution exactly like a watchdog kill, and the verdict is
          recorded in [Stats.verified_regions], [Stats.rejected_regions]
          and the per-rule reject histogram. *)
  certify : bool;
      (** run the static alias certifier inside every translation.
          Certified pairs skip their alias registers, and a genuine
          alias fault on a certified pair is counted in
          [Stats.certified_alias_faults] as a hard soundness error. *)
  max_reopts : int;
      (** re-optimizations of one region before it is rebuilt without
          speculation for good (the give-up rung). *)
  watchdog : int option;
      (** the livelock bound (default [2 * max_reopts + 10], at least
          1): a region that alias-faults more than this many times
          without a single commit in between — possible only when
          violations keep arriving after the ladder has given
          speculation up, i.e. under fault injection or a
          pathologically false-positive detector — is degraded to
          interpreter-only execution (its translation invalidated, the
          label blacklisted, [Stats.degraded_regions] incremented).
          Execution always makes forward progress because the
          interpreter cannot alias-fault. *)
}

val default : t
(** Machine derived from the scheme, fuel 1e9, no unrolling, unbounded
    translation cache, verification and certification off,
    [max_reopts] 10, the default watchdog. *)
