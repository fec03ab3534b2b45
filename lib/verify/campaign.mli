(** Fault campaigns: a (benchmark × scheme × seed) matrix of
    fault-injected runs, each checked against the interpreter oracle.

    This is the smoke harness CI runs: fixed seeds, every scheme, and
    a machine-readable JSON-lines report so regressions in the
    recovery ladder show up as a failing artifact rather than a
    lucky benchmark. *)

type config = {
  seeds : int list;
  rate : float;
  schemes : Smarq.Scheme.t list;
  scale : int;  (** workload scale for suite benchmarks *)
  run : Runtime.Config.t;
      (** the configuration of every optimized run.  A region the
          static verifier rejects ([run.verify]) fails its run's entry
          like a divergence, and so does a non-injected alias fault on a
          certified pair ([run.certify]). *)
}

val default_config : config
(** Seeds [1; 2; 3], rate 0.05, every scheme in [Smarq.Scheme.all]
    plus [None_static], scale 1, and [Runtime.Config.default] with
    verification on ([All]). *)

type run = {
  bench : string;
  seed : int;
  entry : Oracle.entry;
}

type result = {
  config : config;
  runs : run list;
}

val ok : result -> bool

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

val run_program :
  config -> name:string -> (unit -> Ir.Program.t) -> run list
(** One campaign cell: the program under every configured scheme and
    seed, oracle-checked.  The thunk is re-evaluated per run so guest
    programs never share mutable state. *)

val run_benches : config -> Workload.Specfp.bench list -> result
(** The campaign over suite benchmarks (at [config.scale]). *)

val json_line : config -> run -> string
(** One self-contained JSON object per run:
    benchmark, scheme, seed, rate, outcome, oracle verdict, fault and
    recovery counters, total cycles. *)

val pp_summary : Format.formatter -> result -> unit
