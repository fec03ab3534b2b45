(** Differential oracle: the pure interpreter is ground truth.

    Runs a guest program through [Frontend.Interp] and through the full
    dynamic-optimization driver under one or more schemes — optionally
    with a fault-injection {!Fault.plan} installed as the run's hooks —
    and compares final guest state (registers and memory,
    via [Vliw.Machine.equal_guest_state]).  The first divergence is
    reported as a structured diff; fault and recovery counters ride
    along so campaigns can report recovery overhead. *)

type entry = {
  scheme : string;
  outcome : Runtime.Driver.outcome;
  stats : Runtime.Stats.t;
  injected : int;  (** faults injected into this run *)
  divergence : string list;
      (** empty = final guest state matches the interpreter;
          otherwise [Vliw.Machine.diff_guest_state] lines, optimized
          run vs. oracle *)
}

type report = {
  program : string;  (** label for messages *)
  entries : entry list;
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

val ok : report -> bool

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

val check :
  ?config:Runtime.Config.t ->
  ?fault:Fault.spec ->
  ?name:string ->
  schemes:Smarq.Scheme.t list ->
  Ir.Program.t ->
  report
(** The differential check: interpret once, then run every scheme under
    [config] and diff its final state against the oracle's.  When
    [fault] is given, a {e fresh} [Fault.plan] is built from its seed
    and rate for each scheme, so every scheme faces the same campaign.
    Schemes run sequentially in list order; the whole report is
    deterministic. *)

val pp_entry : Format.formatter -> entry -> unit
val pp_report : Format.formatter -> report -> unit
