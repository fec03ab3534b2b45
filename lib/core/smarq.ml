(** SMARQ — the public facade.

    Re-exports the subsystem libraries under one roof and provides the
    high-level entry points most users want: run a program or a
    benchmark under an alias-detection scheme, and compute speedups. *)

module Ir = Ir
module Hw = Hw
module Vliw = Vliw
module Frontend = Frontend
module Analysis = Analysis
module Sched = Sched
module Opt = Opt
module Runtime = Runtime
module Tcache = Tcache
module Workload = Workload
module Check = Check

(** Named alias-detection schemes for the command line and harness. *)
module Scheme = struct
  type t =
    | Smarq of int  (** ordered queue with n alias registers *)
    | Smarq_no_store_reorder of int
    | Naive_order of int
        (** program-order allocation on the queue (Section 2.4) *)
    | Alat
    | Efficeon
    | None_
    | None_static
        (** no hardware, constant-base static disambiguation only
            (related work [13]): how far software-only analysis gets *)

  (** A fresh policy and hardware model for one run. *)
  let to_driver s =
    let queue n = Hw.Queue.detector (Hw.Queue.create ~size:n) in
    let policy, detector =
      match s with
      | Smarq n -> (Sched.Policy.smarq ~ar_count:n, queue n)
      | Smarq_no_store_reorder n ->
        (Sched.Policy.smarq_no_store_reorder ~ar_count:n, queue n)
      | Naive_order n -> (Sched.Policy.naive_order ~ar_count:n, queue n)
      | Alat -> (Sched.Policy.alat (), Hw.Alat.detector (Hw.Alat.create ()))
      | Efficeon ->
        (Sched.Policy.efficeon (), Hw.Efficeon.detector (Hw.Efficeon.create ()))
      | None_ -> (Sched.Policy.none (), Hw.No_detect.detector ())
      | None_static ->
        (Sched.Policy.none_with_analysis (), Hw.No_detect.detector ())
    in
    { Runtime.Driver.policy; detector }

  let name = function
    | Smarq n -> Printf.sprintf "smarq%d" n
    | Smarq_no_store_reorder n -> Printf.sprintf "smarq%d-nosr" n
    | Naive_order n -> Printf.sprintf "naive%d" n
    | Alat -> "alat"
    | Efficeon -> "efficeon"
    | None_ -> "none"
    | None_static -> "none+static"

  (** Parses a scheme name; [smarqN] and [naiveN] need [N > 0], and
      bare [smarq] / [naive] mean 64 registers. *)
  let of_string s =
    let l = String.lowercase_ascii s in
    let counted make =
      (* both prefixes are five characters long *)
      match int_of_string_opt (String.sub l 5 (String.length l - 5)) with
      | Some n when n > 0 -> Ok (make n)
      | Some _ ->
        Error (Printf.sprintf "scheme %S needs a positive register count" s)
      | None -> Error (Printf.sprintf "unknown scheme %S" s)
    in
    match l with
    | "alat" | "itanium" -> Ok Alat
    | "efficeon" -> Ok Efficeon
    | "none" | "baseline" -> Ok None_
    | "none+static" | "static" -> Ok None_static
    | "smarq" -> Ok (Smarq 64)
    | "naive" -> Ok (Naive_order 64)
    | _ when String.starts_with ~prefix:"smarq" l -> counted (fun n -> Smarq n)
    | _ when String.starts_with ~prefix:"naive" l ->
      counted (fun n -> Naive_order n)
    | _ -> Error (Printf.sprintf "unknown scheme %S" s)

  let all = [ Smarq 64; Smarq 16; Alat; Efficeon; None_ ]
end

(** The VLIW configuration a scheme runs under by default: schemes with
    an alias-register count size the machine's window to match. *)
let config_for = function
  | Scheme.Smarq n | Scheme.Smarq_no_store_reorder n | Scheme.Naive_order n ->
    Vliw.Config.with_alias_registers Vliw.Config.default n
  | Scheme.Alat | Scheme.Efficeon | Scheme.None_ | Scheme.None_static ->
    Vliw.Config.default

(** The VLIW configuration a run under [config] uses: [config.vliw]
    when set, otherwise {!config_for} the scheme. *)
let machine_config (config : Runtime.Config.t) scheme =
  match config.Runtime.Config.vliw with
  | Some c -> c
  | None -> config_for scheme

(** The one entry point for an optimized run above the driver: runs
    [program] under [scheme] as configured by [config] (default
    [Runtime.Config.default]), on the machine {!machine_config}
    resolves.  [tcache], [hooks] and [capture] are passed to
    [Runtime.Driver.run] unchanged. *)
let run_program ?(config = Runtime.Config.default) ?tcache ?hooks ?capture
    ~scheme program =
  Runtime.Driver.run
    ~config:
      { config with Runtime.Config.vliw = Some (machine_config config scheme) }
    ?tcache ?hooks ?capture
    ~scheme:(Scheme.to_driver scheme)
    program

let run_benchmark ?config ?scale ~scheme name =
  let bench = Workload.Specfp.find name in
  run_program ?config ~scheme (Workload.Specfp.program ?scale bench)

(** [speedup ~baseline ~improved] is baseline-cycles / improved-cycles
    (> 1 means [improved] is faster). *)
let speedup ~(baseline : Runtime.Stats.t) ~(improved : Runtime.Stats.t) =
  if improved.Runtime.Stats.total_cycles = 0 then 0.0
  else
    float_of_int baseline.Runtime.Stats.total_cycles
    /. float_of_int improved.Runtime.Stats.total_cycles
