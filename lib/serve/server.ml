(* The translation service: accept requests, admit or reject, run on
   the domain pool, record latency.

   One request = one full dynamic-optimization run (interpret, profile,
   translate, cache, execute) of one guest program under one scheme.
   Admission is a single bounded count of accepted-but-unfinished
   requests; everything past the bound is rejected at submit time with
   no queue entry, which is the backpressure signal.  Every accepted
   request is dispatched to the pool as its own job.

   Latency is recorded per request in four slices, all through
   [Runtime.Percentiles]: queue wait (submit -> worker pickup), service
   (the run itself), and the translate/execute split of service, where
   translate comes from the run's [Runtime.Stats.translate] profile. *)

type fault_spec = {
  fault_seed : int;
  fault_rate : float;
}

type deadline = {
  wall_s : float option;
  blocks : int option;
}

type config = {
  domains : int;
  queue_limit : int;
  batch : int;
  shard_policy : Tcache.Policy.t;
  tenant_budget : int option;
}

let default_config =
  {
    domains = 2;
    queue_limit = 64;
    batch = 1;
    shard_policy = Tcache.Policy.Lru;
    tenant_budget = None;
  }

type request = {
  tenant : string;
  job : Exec.Matrix.job;
  shared_cache : bool;
  fault : fault_spec option;
  deadline : deadline option;
}

type resolution =
  | Done of Runtime.Driver.result
  | Timed_out of Runtime.Driver.result
  | Degraded of Runtime.Driver.result
  | Failed of exn

type reply = {
  request : request;
  resolution : resolution;
  queue_wait_s : float;
  service_s : float;
  translate_s : float;
  execute_s : float;
  worker : int;
  injected : int;
}

type ticket = {
  tm : Mutex.t;
  tc : Condition.t;
  mutable reply : reply option;
}

type pending = {
  p_request : request;
  p_ticket : ticket;
  p_submitted : float;
  p_rid : int;  (* submission sequence number, also the per-request
                   fault-seed offset *)
}

type t = {
  cfg : config;
  pool : Exec.Pool.t;
  shards : Runtime.Driver.cache Shards.t;
  inflight : int Atomic.t;  (* accepted and not yet finished *)
  m : Mutex.t;  (* guards everything below *)
  mutable next_rid : int;
  mutable closed : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable errors : int;
  mutable timed_out : int;
  mutable injected_faults : int;
  lat_queue : Runtime.Percentiles.t;
  lat_service : Runtime.Percentiles.t;
  lat_translate : Runtime.Percentiles.t;
  lat_execute : Runtime.Percentiles.t;
  lat_total : Runtime.Percentiles.t;
}

let create ?(config = default_config) () =
  if config.queue_limit < 1 then
    invalid_arg "Serve.Server.create: queue_limit < 1";
  if config.batch <> 1 then invalid_arg "Serve.Server.create: batch <> 1";
  {
    cfg = config;
    pool = Exec.Pool.create ~domains:config.domains ();
    shards =
      Shards.create ?tenant_budget:config.tenant_budget
        ~ops:
          {
            Shards.make =
              (fun ~capacity ->
                Runtime.Driver.make_cache ?capacity
                  ~policy:config.shard_policy ());
            telemetry = Runtime.Driver.cache_telemetry;
          }
        ();
    inflight = Atomic.make 0;
    m = Mutex.create ();
    next_rid = 0;
    closed = false;
    submitted = 0;
    completed = 0;
    rejected = 0;
    errors = 0;
    timed_out = 0;
    injected_faults = 0;
    lat_queue = Runtime.Percentiles.create ();
    lat_service = Runtime.Percentiles.create ();
    lat_translate = Runtime.Percentiles.create ();
    lat_execute = Runtime.Percentiles.create ();
    lat_total = Runtime.Percentiles.create ();
  }

(* Translations are specific to (program, scheme, unroll, ...) — all of
   which [job.label] names for matrix-built jobs — so the shard
   partition key must include it, or two programs sharing a guest
   label ("init") would hit each other's translations. *)
let shard_key rq = rq.tenant ^ "|" ^ rq.job.Exec.Matrix.label

(* Wrap [base] hooks with the request's deadline budget.  The block
   budget is counted per driver run, so it is deterministic; the wall
   budget is end-to-end from submission, checked every 64th dispatch to
   keep gettimeofday off the hot path. *)
let deadline_hooks (p : pending) (d : deadline) base =
  let blocks_seen = ref 0 in
  let calls = ref 0 in
  let wall_abs = Option.map (fun s -> p.p_submitted +. s) d.wall_s in
  {
    base with
    Runtime.Driver.deadline =
      (fun () ->
        (match d.blocks with
        | None -> false
        | Some b ->
          incr blocks_seen;
          !blocks_seen > b)
        ||
        match wall_abs with
        | None -> false
        | Some abs ->
          incr calls;
          !calls land 63 = 0 && Unix.gettimeofday () > abs);
  }

(* One driver run, on worker [worker]: the shard (when shared), the
   per-request fault plan and the deadline hooks all go into one
   [Smarq.run_program] call under the job's whole config.  A plain
   request (no fault, no shard, no deadline) is the same call
   [Exec.Matrix.run_job] makes. *)
let run_one t ~worker (p : pending) =
  let rq = p.p_request in
  let j = rq.job in
  let plan =
    Option.map
      (fun f ->
        (* seed + rid: each request replays its own deterministic
           campaign, fixed by the submission sequence *)
        Verify.Fault.plan ~seed:(f.fault_seed + p.p_rid) ~rate:f.fault_rate ())
      rq.fault
  in
  let base_hooks =
    match plan with
    | Some plan -> Verify.Fault.hooks plan
    | None -> Runtime.Driver.no_hooks
  in
  let hooks =
    match rq.deadline with
    | None -> base_hooks
    | Some d -> deadline_hooks p d base_hooks
  in
  let tcache =
    if rq.shared_cache then
      Some (Shards.shard t.shards ~tenant:(shard_key rq) ~worker)
    else None
  in
  let program = j.Exec.Matrix.program () in
  let t0 = Unix.gettimeofday () in
  let result =
    Smarq.run_program ~config:j.Exec.Matrix.config ?tcache ~hooks
      ~scheme:j.Exec.Matrix.scheme program
  in
  let wall = Unix.gettimeofday () -. t0 in
  let injected =
    match plan with Some p -> Verify.Fault.total_injected p | None -> 0
  in
  (result, wall, injected)

(* One request, one run, one resolution: [Timed_out] when the run
   outlived its deadline budget, [Done] for any other outcome, [Failed]
   when the run raised. *)
let exec_one t ~worker (p : pending) =
  let started = Unix.gettimeofday () in
  let queue_wait_s = max 0.0 (started -. p.p_submitted) in
  let rq = p.p_request in
  let resolution, wall, injected =
    match run_one t ~worker p with
    | result, wall, injected -> (
      match result.Runtime.Driver.outcome with
      | Runtime.Driver.Deadline_exceeded -> (Timed_out result, wall, injected)
      | _ -> (Done result, wall, injected))
    | exception e -> (Failed e, Unix.gettimeofday () -. started, 0)
  in
  let translate_s =
    match resolution with
    | Done r | Timed_out r | Degraded r ->
      Sched.Profile.total r.Runtime.Driver.stats.Runtime.Stats.translate
    | Failed _ -> 0.0
  in
  let reply =
    {
      request = rq;
      resolution;
      queue_wait_s;
      service_s = wall;
      translate_s;
      execute_s = max 0.0 (wall -. translate_s);
      worker;
      injected;
    }
  in
  Mutex.lock t.m;
  (match reply.resolution with
  | Done _ -> t.completed <- t.completed + 1
  | Timed_out _ -> t.timed_out <- t.timed_out + 1
  | Failed _ -> t.errors <- t.errors + 1
  | Degraded _ -> () (* never produced *));
  t.injected_faults <- t.injected_faults + reply.injected;
  Runtime.Percentiles.add t.lat_queue reply.queue_wait_s;
  Runtime.Percentiles.add t.lat_service reply.service_s;
  Runtime.Percentiles.add t.lat_translate reply.translate_s;
  Runtime.Percentiles.add t.lat_execute reply.execute_s;
  Runtime.Percentiles.add t.lat_total (reply.queue_wait_s +. reply.service_s);
  Mutex.unlock t.m;
  Atomic.decr t.inflight;
  Mutex.lock p.p_ticket.tm;
  p.p_ticket.reply <- Some reply;
  Condition.broadcast p.p_ticket.tc;
  Mutex.unlock p.p_ticket.tm

let submit t request =
  let n = Atomic.fetch_and_add t.inflight 1 in
  if n >= t.cfg.queue_limit then begin
    (* over the admission bound: reject with no queue entry — the
       backpressure half of admission control *)
    Atomic.decr t.inflight;
    Mutex.lock t.m;
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.m;
    `Rejected
  end
  else begin
    Mutex.lock t.m;
    if t.closed then begin
      (* racing shutdown: a draining server sheds load like a full one
         instead of throwing at the client *)
      Atomic.decr t.inflight;
      t.rejected <- t.rejected + 1;
      Mutex.unlock t.m;
      `Rejected
    end
    else begin
      let ticket =
        { tm = Mutex.create (); tc = Condition.create (); reply = None }
      in
      let p =
        {
          p_request = request;
          p_ticket = ticket;
          p_submitted = Unix.gettimeofday ();
          p_rid = t.next_rid;
        }
      in
      t.next_rid <- t.next_rid + 1;
      t.submitted <- t.submitted + 1;
      (* dispatched under [t.m], so a concurrent [shutdown] cannot close
         the pool between the [closed] check and the submission *)
      Exec.Pool.submit t.pool (fun worker -> exec_one t ~worker p);
      Mutex.unlock t.m;
      `Accepted ticket
    end
  end

let await ticket =
  Mutex.lock ticket.tm;
  let rec wait () =
    match ticket.reply with
    | Some r ->
      Mutex.unlock ticket.tm;
      r
    | None ->
      Condition.wait ticket.tc ticket.tm;
      wait ()
  in
  wait ()

let shards_telemetry ?tenant t = Shards.telemetry ?tenant t.shards
let shard_count t = Shards.shard_count t.shards
let inflight t = Atomic.get t.inflight

let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Mutex.unlock t.m;
  (* idempotent and drains in-flight work; see Exec.Pool *)
  Exec.Pool.shutdown t.pool

(* The matrix as a service client: every job becomes one fresh-cache
   no-fault request, the queue bound admits all of them, and the
   outcomes are awaited in job-list order — the same semantics as
   [Exec.Matrix.run_matrix]. *)
let run_matrix ?domains jobs =
  let domains =
    match domains with Some d -> d | None -> Exec.Pool.default_domains ()
  in
  let config =
    {
      default_config with
      domains;
      queue_limit = max 1 (List.length jobs);
    }
  in
  let t = create ~config () in
  let tickets =
    List.map
      (fun job ->
        match
          submit t
            {
              tenant = "matrix";
              job;
              shared_cache = false;
              fault = None;
              deadline = None;
            }
        with
        | `Accepted ticket -> ticket
        | `Rejected ->
          (* unreachable: queue_limit covers the whole job list *)
          shutdown t;
          invalid_arg "Serve.Server.run_matrix: rejected"
      )
      jobs
  in
  let replies = List.map await tickets in
  shutdown t;
  List.map
    (fun r ->
      match r.resolution with
      | Done result ->
        {
          Exec.Matrix.job = r.request.job;
          result;
          wall_seconds = r.service_s;
        }
      | Failed e -> raise e
      | Timed_out _ | Degraded _ ->
        (* unreachable: matrix requests carry no deadline, and nothing
           produces [Degraded] *)
        invalid_arg "Serve.Server.run_matrix: unexpected resolution")
    replies

type report = {
  submitted : int;
  completed : int;
  rejected : int;
  errors : int;
  timed_out : int;
  injected_faults : int;
  sim_seconds : float;  (* sum of per-request service time *)
  queue_wait : Runtime.Percentiles.summary;
  service : Runtime.Percentiles.summary;
  translate : Runtime.Percentiles.summary;
  execute : Runtime.Percentiles.summary;
  total : Runtime.Percentiles.summary;
}

let report_json (r : report) =
  Printf.sprintf
    "{\"submitted\":%d,\"completed\":%d,\"rejected\":%d,\"errors\":%d,\
     \"timed_out\":%d,\"injected_faults\":%d,\"sim_seconds\":%.6f,\
     \"queue_wait\":%s,\"service\":%s,\"translate\":%s,\"execute\":%s,\
     \"total\":%s}"
    r.submitted r.completed r.rejected r.errors r.timed_out r.injected_faults
    r.sim_seconds
    (Runtime.Percentiles.summary_json ~unit:"s" r.queue_wait)
    (Runtime.Percentiles.summary_json ~unit:"s" r.service)
    (Runtime.Percentiles.summary_json ~unit:"s" r.translate)
    (Runtime.Percentiles.summary_json ~unit:"s" r.execute)
    (Runtime.Percentiles.summary_json ~unit:"s" r.total)

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>requests: %d accepted, %d completed, %d rejected, %d errors%s@,"
    r.submitted r.completed r.rejected r.errors
    (if r.injected_faults > 0 then
       Printf.sprintf " (%d faults injected)" r.injected_faults
     else "");
  if r.timed_out > 0 then
    Format.fprintf ppf "deadlines: %d timed out@," r.timed_out;
  Format.fprintf ppf "queue wait: %a@," Runtime.Percentiles.pp_summary
    r.queue_wait;
  Format.fprintf ppf "service:    %a@," Runtime.Percentiles.pp_summary
    r.service;
  Format.fprintf ppf "translate:  %a@," Runtime.Percentiles.pp_summary
    r.translate;
  Format.fprintf ppf "execute:    %a@," Runtime.Percentiles.pp_summary
    r.execute;
  Format.fprintf ppf "total:      %a@]" Runtime.Percentiles.pp_summary r.total

let report t =
  Mutex.lock t.m;
  let r =
    {
      submitted = t.submitted;
      completed = t.completed;
      rejected = t.rejected;
      errors = t.errors;
      timed_out = t.timed_out;
      injected_faults = t.injected_faults;
      sim_seconds = Runtime.Percentiles.total t.lat_service;
      queue_wait = Runtime.Percentiles.summary t.lat_queue;
      service = Runtime.Percentiles.summary t.lat_service;
      translate = Runtime.Percentiles.summary t.lat_translate;
      execute = Runtime.Percentiles.summary t.lat_execute;
      total = Runtime.Percentiles.summary t.lat_total;
    }
  in
  Mutex.unlock t.m;
  r
