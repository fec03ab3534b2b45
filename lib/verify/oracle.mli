(** Differential oracle: the pure interpreter is ground truth.

    Runs a guest program through [Frontend.Interp] and through the full
    dynamic-optimization driver — optionally with a fault-injection
    {!Fault.plan} installed as the run's hooks — and compares final
    guest state (registers and memory, via
    [Vliw.Machine.equal_guest_state]).  A divergence is reported as a
    structured diff; fault and recovery counters ride along in the
    {!entry} so {!Campaign} can report recovery overhead. *)

type entry = {
  scheme : string;
  outcome : Runtime.Driver.outcome;
  stats : Runtime.Stats.t;
  injected : int;  (** faults injected into this run *)
  divergence : string list;  (** {!divergence} of the run *)
}

val entry_static_ok : entry -> bool
(** The run's static verifier rejected no region (vacuously true with
    verification off). *)

val entry_cert_ok : entry -> bool
(** No non-injected alias fault landed on a statically certified pair
    (vacuously true with certification off). *)

val entry_ok : entry -> bool
(** Completed, converged to the oracle's state, and no static
    rejections — the dynamic and static verdicts must agree that the
    run was sound. *)

val reference : Ir.Program.t -> Vliw.Machine.t
(** Final machine state of the pure interpreter (at most 200,000,000
    instructions). *)

val run_scheme :
  ?config:Runtime.Config.t ->
  ?fault:Fault.plan ->
  scheme:Smarq.Scheme.t ->
  Ir.Program.t ->
  Runtime.Driver.result * int
(** One optimized run through [Smarq.run_program] under [config]
    (default [Runtime.Config.default]), with [fault]'s hooks installed
    when given.  Returns the driver result and the number of faults the
    plan injected {e during this run}. *)

val divergence : Vliw.Machine.t -> Runtime.Driver.result -> string list
(** [divergence reference r]: empty when [r]'s final guest state
    matches [reference]; otherwise [Vliw.Machine.diff_guest_state]
    lines, oracle vs. optimized run.  A run that did not complete is
    not compared (empty): its partial state cannot match a completed
    oracle, and its outcome already fails it. *)

val pp_entry : Format.formatter -> entry -> unit
