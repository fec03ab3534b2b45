(** The experiment matrix: independent [(benchmark, scheme, config)]
    jobs fanned out over a {!Pool} and collected in submission order.

    Each job builds its own program inside the worker domain (program
    construction is cheap and keeps domains from sharing IR), runs the
    full dynamic-optimization driver, and reports the result together
    with its wall-clock cost.  Simulated cycle counts are deterministic
    across [domains] values: a job's outcome depends only on the job. *)

type job = {
  label : string;  (** for reports, e.g. ["ammp/smarq64"] *)
  scheme : Smarq.Scheme.t;
  config : Runtime.Config.t;
      (** the whole run configuration, handed to {!Smarq.run_program} *)
  program : unit -> Ir.Program.t;  (** called in the worker domain *)
}

type outcome = {
  job : job;
  result : Runtime.Driver.result;
  wall_seconds : float;  (** wall-clock cost of this job alone *)
}

val job :
  ?config:Runtime.Config.t ->
  scheme:Smarq.Scheme.t ->
  label:string ->
  (unit -> Ir.Program.t) ->
  job
(** [config] defaults to [Runtime.Config.default]. *)

val of_bench :
  ?config:Runtime.Config.t ->
  ?scale:int ->
  scheme:Smarq.Scheme.t ->
  Workload.Specfp.bench ->
  job
(** A job over a suite benchmark at [scale] (default 1), labelled
    ["bench/scheme"]. *)

val run_job : job -> outcome
(** Run one job in the calling domain: the deterministic unit
    {!run_matrix} fans out.  The serve subsystem's matrix client makes
    the same {!Smarq.run_program} call through its own request path;
    the test suite checks that both give the same stats and final
    guest state. *)

val run_matrix : ?domains:int -> job list -> outcome list
(** Run every job, using up to [domains] domains (default
    {!Pool.default_domains}); outcomes are in job-list order. *)
