(** Open- and closed-loop load generation for {!Server}.

    Closed loop keeps a fixed pipeline of outstanding requests (the
    classic saturating client); open loop issues requests on a fixed
    arrival schedule and lets admission control reject what the service
    cannot absorb — sweeping the open-loop [rate] traces out the
    capacity curve in the rejection counts.

    Request assignment is deterministic: request [i] belongs to tenant
    ["t<i mod tenants>"] and runs job [i mod length jobs]. *)

type mode =
  | Closed of { clients : int }  (** pipeline depth *)
  | Open of { rate : float }  (** offered arrivals per second *)

type spec = {
  mode : mode;
  requests : int;  (** total requests to issue *)
  tenants : int;  (** round-robin tenant count *)
  shared_cache : bool;  (** run against tenant shards *)
  fault : Server.fault_spec option;  (** per-request fault campaigns *)
  deadline : Server.deadline option;  (** per-request deadline budget *)
  jobs : Exec.Matrix.job array;  (** cycled through round-robin *)
}

type result = {
  report : Server.report;  (** the server's counters and latencies *)
  elapsed_s : float;
  throughput_rps : float;  (** completed requests per elapsed second *)
  offered_rps : float option;  (** the open-loop rate, [None] closed *)
}

val run : Server.t -> spec -> result
(** Issue [spec.requests] requests and block until every accepted one
    has replied.  Raises [Invalid_argument] on a non-positive
    pipeline/rate/tenant count or an empty job array.  The
    server is left running — callers shut it down. *)
