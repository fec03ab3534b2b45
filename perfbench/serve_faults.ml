(* serve-faults: a closed loop on [Serve.Server] with one worker domain,
   two outstanding requests and four tenants.  Each request runs one
   scale-1 suite program under smarq64 on its tenant's shared,
   unbounded shard, with a per-request fault plan at rate 0.002.  Setup
   touches every tenant x program shard once, so the timed phase starts
   warm.  One pass is every tenant x program pair once, in a
   seed-shuffled order.

   The fault campaign is fixed per (round, tenant, program) rather than
   drawn from the seed.  With one worker a request's work depends only
   on its own shard's history and its own campaign, so every seed does
   the same simulated work and the seed moves only the submission
   order. *)

let fault_rate = 0.002
let outstanding = 2

type key = {
  index : int;  (** position among the tenant x program pairs *)
  tenant : string;
  job : Exec.Matrix.job;
  reference : Vliw.Machine.t;
}

let config =
  {
    Serve.Server.default_config with
    domains = 1;
    queue_limit = 2 * outstanding;
    shard_policy = Tcache.Policy.Unbounded;
    tenant_budget = None;
  }

let reply_ok key (reply : Serve.Server.reply) =
  match reply.Serve.Server.resolution with
  | Serve.Server.Done r -> Bench.matches_reference r key.reference
  | Serve.Server.Timed_out _ | Serve.Server.Degraded _ | Serve.Server.Failed _ ->
    false

let reply_stats (reply : Serve.Server.reply) =
  match reply.Serve.Server.resolution with
  | Serve.Server.Done r | Serve.Server.Timed_out r | Serve.Server.Degraded r ->
    Some r.Runtime.Driver.stats
  | Serve.Server.Failed _ -> None

(* Send [keys] in order, keeping [outstanding] requests in flight; a
   request's latency runs from its submission to its reply. *)
let closed_loop server ~round ~rid probe keys =
  let sim = ref 0 in
  let outcomes = ref [] in
  let inflight = Queue.create () in
  let finish (key, req, submitted, ticket) =
    (match ticket with
    | None ->
      Probe.count probe "serve.rejected" 1;
      outcomes := { Bench.latency_s = infinity; ok = false } :: !outcomes
    | Some ticket ->
      Probe.within probe req (fun () ->
          let reply = Probe.span probe "serve.await" (fun () -> Serve.Server.await ticket) in
          let latency_s = Bench.now () -. submitted in
          Probe.sample probe "serve.queue_wait_s" reply.Serve.Server.queue_wait_s;
          Probe.sample probe "serve.service_s" reply.Serve.Server.service_s;
          Probe.add probe "runtime.driver_s" reply.Serve.Server.service_s;
          Probe.add probe "serve.translate_s" reply.Serve.Server.translate_s;
          Probe.add probe "serve.execute_s" reply.Serve.Server.execute_s;
          Option.iter
            (fun s ->
              Bench.note_stats probe s;
              sim := !sim + s.Runtime.Stats.total_cycles)
            (reply_stats reply);
          let ok = Probe.span probe "verify.oracle" (fun () -> reply_ok key reply) in
          outcomes := { Bench.latency_s; ok } :: !outcomes));
    Probe.finish_request probe req
  in
  Array.iter
    (fun key ->
      if Queue.length inflight >= outstanding then finish (Queue.pop inflight);
      (* the server seeds the plan with [fault_seed + rid], rid being the
         0-based submission sequence number *)
      let campaign = (round * Array.length keys) + key.index in
      let request =
        {
          Serve.Server.tenant = key.tenant;
          job = key.job;
          shared_cache = true;
          fault = Some { Serve.Server.fault_seed = campaign - !rid; fault_rate };
          deadline = None;
        }
      in
      incr rid;
      let req = Probe.start_request probe ~rid:!rid in
      let submitted = Bench.now () in
      let ticket =
        Probe.within probe req (fun () ->
            Probe.span probe "serve.submit" (fun () -> Serve.Server.submit server request))
      in
      Queue.push
        ( key,
          req,
          submitted,
          match ticket with `Accepted t -> Some t | `Rejected -> None )
        inflight)
    keys;
  Queue.iter finish inflight;
  { Bench.outcomes = List.rev !outcomes; sim_cycles = !sim }

let setup ~seed ~tiny =
  let benches, tenants =
    if tiny then (List.filteri (fun i _ -> i < 2) Workload.Specfp.suite, 3)
    else (Workload.Specfp.suite, 4)
  in
  let programs =
    List.map
      (fun (b : Workload.Specfp.bench) ->
        let program = Workload.Specfp.program b in
        let job =
          Exec.Matrix.job ~scheme:(Smarq.Scheme.Smarq 64)
            ~label:(b.Workload.Specfp.name ^ "/smarq64")
            (fun () -> program)
        in
        (job, Verify.Oracle.reference program))
      benches
  in
  let keys =
    Array.of_list
      (List.concat_map
         (fun t ->
           List.map
             (fun (job, reference) -> (Printf.sprintf "t%d" t, job, reference))
             programs)
         (List.init tenants Fun.id))
    |> Array.mapi (fun index (tenant, job, reference) -> { index; tenant; job; reference })
  in
  let prng = Verify.Prng.create ~seed in
  let server = Serve.Server.create ~config () in
  let rid = ref 0 and rounds = ref 0 in
  let order = ref [||] in
  let round probe =
    order := Bench.shuffle prng keys;
    let p = closed_loop server ~round:!rounds ~rid probe !order in
    incr rounds;
    p
  in
  let warm = round None in
  if List.exists (fun o -> not o.Bench.ok) warm.Bench.outcomes then begin
    Serve.Server.shutdown server;
    raise (Bench.Incorrect "serve-faults: a warm-up request failed its check")
  end;
  {
    Bench.inputs =
      Bench.digest
        (Array.to_list (Array.map (fun k -> k.tenant ^ "|" ^ k.job.Exec.Matrix.label) !order));
    worker_domains = config.Serve.Server.domains;
    run_pass = round;
    shutdown = (fun () -> Serve.Server.shutdown server);
  }

let workload = { Bench.name = "serve-faults"; setup }
