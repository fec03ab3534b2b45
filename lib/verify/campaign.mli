(** The soundness campaign: every checker over one cell matrix, behind
    one gate and one report.

    A cell is a (benchmark, scheme, certify, fault plan) run with the
    static verifier on every region ([Check.Verifier.All]).  Four
    independent checkers judge it:
    - the interpreter {!Oracle}: the final guest state must equal the
      benchmark's one {!Oracle.reference};
    - the static verifier: no region may be rejected;
    - the certifier's soundness check: no non-injected alias fault may
      land on a certified pair;
    - the mutation harness, on fault-free cells and shared-shard runs:
      every translation the run captured is replayed and must verify
      clean, and every mutant [Check.Mutate] derives from it must be
      rejected.  A shared-shard run captures only its translations of
      superblocks an earlier run formed with ids at or above this run's
      id counter — the ones a private cache never makes.

    Fault cells draw a fresh {!Fault.plan} per cell, so every scheme
    faces the same campaign.  The shared-shard family is the served
    path: per (benchmark, scheme), tenants run in turn on one cache —
    tenant 0 fault-free, then one per seed — so later tenants
    re-optimize superblocks an earlier run formed.  The JSON-lines
    report has one line per cell, in cell order, that family last. *)

type config = {
  seeds : int list;  (** one fault cell per seed, beside the fault-free one *)
  rate : float;  (** fault probability per region execution *)
  scale : int;  (** workload scale of every benchmark *)
}

val default_config : config
(** Seeds [1; 2; 3], rate 0.05, scale 1. *)

val schemes : Smarq.Scheme.t list
(** One entry per [Smarq.Scheme] constructor: smarq64, smarq16,
    smarq64-nosr, naive64, alat, efficeon, none, none+static. *)

type cell = {
  bench : string;
  scheme : Smarq.Scheme.t;
  certify : bool;
  fault : Fault.spec option;  (** [None]: the fault-free run *)
  tenant : int option;
      (** [Some t]: the [t]-th run on its (benchmark, scheme) shared
          shard, certification off; [None]: a private cache *)
}

type run = {
  cell : cell;
  entry : Oracle.entry;
  mutations : Check.Mutate.summary list;
      (** one per translation a fault-free cell or a shared-shard run
          captured, in capture order; empty for other fault cells *)
}

type result = {
  config : config;
  runs : run list;  (** in cell order *)
}

val run :
  ?domains:int -> config -> Workload.Specfp.bench list -> result
(** Every cell over [benches] at [config.scale]: for each benchmark,
    certify off then on, the fault-free plan then one per seed, every
    one of {!schemes}; then, when there are seeds, the shared-shard
    family, per benchmark and scheme.  Cells (a shard's tenants
    together) fan out over [Exec.Pool.map ~domains] and each builds its
    own program, so the result is the same for every [domains]. *)

val run_ok : run -> bool
(** [Oracle.entry_ok], and every captured translation verified clean
    and every mutant was killed. *)

val ok : result -> bool
(** Every run passes {!run_ok}: the campaign's one gate. *)

(** Agreement between a run's static verdict and the dynamic oracle's.
    [Static_reject_only] is a conservative verifier false alarm (the
    rejected region was degraded, so the run still converged);
    [Dynamic_diverge_only] is the serious direction — a divergence the
    verifier failed to predict. *)
type cross_check =
  | Both_ok
  | Static_reject_only
  | Dynamic_diverge_only
  | Both_flag

val cross_check_of_entry : Oracle.entry -> cross_check
val cross_check_name : cross_check -> string

val json_line : run -> string
(** One self-contained JSON object per cell: benchmark, scheme, seed
    ([null] when fault-free), rate, outcome, gate verdict, fault and
    recovery counters, total cycles, static and certification counters.
    Shared-shard lines add the tenant; mutation-tested lines add the
    mutant counts and the reject histogram. *)

val pp_summary : Format.formatter -> result -> unit
