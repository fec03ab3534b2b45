(* The translation service and its parts.

   - Percentiles: exact nearest-rank quantiles, merge, summaries.
   - The long-running pool: every accepted job drains on shutdown,
     shutdown is idempotent (sequential and concurrent), submission
     after shutdown raises, worker indices are in range.
   - Shards: a sharded cache observes the same telemetry as the same
     operations on independent per-(tenant, worker) stores (QCheck), and
     a tenant's eviction storm cannot evict another tenant's
     translations (budget isolation).
   - The server: matrix-via-service is bit-identical to the batch
     matrix (the fig15 seed matrix by cycle count, a small matrix by
     full stats and final guest state); admission control rejects
     deterministically and counts rejections apart from errors; tenant
     shards keep translations hot across requests; per-request fault
     campaigns replay deterministically; deadlines resolve [Timed_out];
     a raising run resolves [Failed] without harming the worker. *)

open Helpers

(* ---- Runtime.Percentiles ---- *)

let test_percentiles_empty () =
  let p = Runtime.Percentiles.create () in
  Alcotest.(check int) "count" 0 (Runtime.Percentiles.count p);
  Alcotest.(check (float 0.0)) "p50 of empty" 0.0
    (Runtime.Percentiles.percentile p 0.5);
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Runtime.Percentiles.mean p)

let test_percentiles_nearest_rank () =
  let p = Runtime.Percentiles.create () in
  List.iter (Runtime.Percentiles.add p) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let q v = Runtime.Percentiles.percentile p v in
  Alcotest.(check (float 0.0)) "p0 is min" 1.0 (q 0.0);
  Alcotest.(check (float 0.0)) "p50 is median" 3.0 (q 0.5);
  Alcotest.(check (float 0.0)) "p95 is max of 5" 5.0 (q 0.95);
  Alcotest.(check (float 0.0)) "p100 is max" 5.0 (q 1.0);
  Alcotest.(check (float 0.0)) "total" 15.0 (Runtime.Percentiles.total p);
  (* adding after a query must invalidate the cached sorted view *)
  Runtime.Percentiles.add p 10.0;
  Alcotest.(check (float 0.0)) "new max visible" 10.0 (q 1.0);
  Alcotest.(check int) "count" 6 (Runtime.Percentiles.count p);
  (* even count: nearest rank picks the lower middle *)
  let e = Runtime.Percentiles.create () in
  List.iter (Runtime.Percentiles.add e) [ 4.0; 1.0; 3.0; 2.0 ];
  Alcotest.(check (float 0.0)) "even-count median" 2.0
    (Runtime.Percentiles.percentile e 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Percentiles.percentile: q not in [0,1]") (fun () ->
      ignore (Runtime.Percentiles.percentile e 1.5))

let test_percentiles_merge_summary () =
  let a = Runtime.Percentiles.create () in
  let b = Runtime.Percentiles.create () in
  List.iter (Runtime.Percentiles.add a) [ 1.0; 2.0 ];
  List.iter (Runtime.Percentiles.add b) [ 30.0; 40.0 ];
  Runtime.Percentiles.merge ~into:a b;
  Alcotest.(check int) "merged count" 4 (Runtime.Percentiles.count a);
  let s = Runtime.Percentiles.summary a in
  Alcotest.(check int) "summary n" 4 s.Runtime.Percentiles.n;
  Alcotest.(check (float 0.0)) "summary min" 1.0 s.Runtime.Percentiles.min_v;
  Alcotest.(check (float 0.0)) "summary max" 40.0 s.Runtime.Percentiles.max_v;
  Alcotest.(check (float 0.0)) "summary p50" 2.0 s.Runtime.Percentiles.p50;
  Alcotest.(check (float 1e-9)) "summary mean" 18.25
    s.Runtime.Percentiles.mean_v

(* ---- Exec.Pool: the long-running pool ---- *)

let test_pool_drains_on_shutdown () =
  let pool = Exec.Pool.create ~domains:3 () in
  let done_count = Atomic.make 0 in
  let bad_worker = Atomic.make 0 in
  for _ = 1 to 50 do
    Exec.Pool.submit pool (fun worker ->
        if worker < 0 || worker >= Exec.Pool.size pool then
          Atomic.incr bad_worker;
        (* a little work so jobs are still queued when shutdown starts *)
        ignore (Digest.string (String.make 200 'x'));
        Atomic.incr done_count)
  done;
  Exec.Pool.shutdown pool;
  Alcotest.(check int) "all jobs drained" 50 (Atomic.get done_count);
  Alcotest.(check int) "worker indices in range" 0 (Atomic.get bad_worker);
  Alcotest.(check int) "no failed jobs" 0 (Exec.Pool.failed_jobs pool)

let test_pool_shutdown_idempotent () =
  let pool = Exec.Pool.create ~domains:2 () in
  let done_count = Atomic.make 0 in
  for _ = 1 to 20 do
    Exec.Pool.submit pool (fun _ -> Atomic.incr done_count)
  done;
  (* a concurrent second shutdown must block until the same drain
     completes, not crash or double-join *)
  let racer = Domain.spawn (fun () -> Exec.Pool.shutdown pool) in
  Exec.Pool.shutdown pool;
  Domain.join racer;
  (* and a later third call is a no-op *)
  Exec.Pool.shutdown pool;
  Alcotest.(check int) "all jobs drained" 20 (Atomic.get done_count);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Exec.Pool.submit: pool is shut down") (fun () ->
      Exec.Pool.submit pool (fun _ -> ()))

let test_pool_failed_jobs_counted () =
  let pool = Exec.Pool.create ~domains:2 () in
  let done_count = Atomic.make 0 in
  for i = 1 to 10 do
    Exec.Pool.submit pool (fun _ ->
        if i mod 2 = 0 then failwith "boom" else Atomic.incr done_count)
  done;
  Exec.Pool.shutdown pool;
  Alcotest.(check int) "good jobs ran" 5 (Atomic.get done_count);
  Alcotest.(check int) "failures counted" 5 (Exec.Pool.failed_jobs pool)

(* ---- Serve.Shards vs independent stores ---- *)

type shard_op =
  | Find of string * int * string  (* tenant, worker, label *)
  | Insert of string * int * string * int  (* + size *)

let pp_shard_op = function
  | Find (t, w, l) -> Printf.sprintf "find %s/%d %s" t w l
  | Insert (t, w, l, s) -> Printf.sprintf "insert %s/%d %s size=%d" t w l s

let gen_shard_op =
  let open QCheck.Gen in
  let tenant = oneofl [ "a"; "b"; "c" ] in
  let worker = int_range 0 2 in
  let label = map (Printf.sprintf "L%d") (int_range 0 5) in
  frequency
    [
      (4, map3 (fun t w l -> Find (t, w, l)) tenant worker label);
      ( 4,
        map3 (fun t w (l, s) -> Insert (t, w, l, s)) tenant worker
          (pair label (int_range 1 10)) );
    ]

let arb_shard_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_shard_op ops))
    QCheck.Gen.(list_size (int_range 1 120) gen_shard_op)

let telemetry_fields t = Smarq.Tcache.Telemetry.fields t

(* the same operations applied to the sharded container and to a flat
   dictionary of independent stores must observe identical telemetry,
   aggregate and per tenant *)
let shards_match_independent_stores ops =
  let budget = 16 in
  let sharded =
    Serve.Shards.create ~tenant_budget:budget
      ~ops:(Serve.Shards.store_ops ~policy:Smarq.Tcache.Policy.Lru)
      ()
  in
  let independent : (string * int, int Smarq.Tcache.Store.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let model ~tenant ~worker =
    match Hashtbl.find_opt independent (tenant, worker) with
    | Some s -> s
    | None ->
      let s =
        Smarq.Tcache.Store.create ~capacity:budget
          ~policy:Smarq.Tcache.Policy.Lru ()
      in
      Hashtbl.replace independent (tenant, worker) s;
      s
  in
  List.iter
    (fun op ->
      match op with
      | Find (tenant, worker, l) ->
        ignore
          (Smarq.Tcache.Store.find (Serve.Shards.shard sharded ~tenant ~worker) l);
        ignore (Smarq.Tcache.Store.find (model ~tenant ~worker) l)
      | Insert (tenant, worker, l, size) ->
        Smarq.Tcache.Store.insert
          (Serve.Shards.shard sharded ~tenant ~worker)
          l ~size 0;
        Smarq.Tcache.Store.insert (model ~tenant ~worker) l ~size 0)
    ops;
  let sum_independent ?tenant () =
    let acc = Smarq.Tcache.Telemetry.create () in
    Hashtbl.iter
      (fun (ten, _) s ->
        if match tenant with None -> true | Some t -> t = ten then
          Smarq.Tcache.Telemetry.add ~into:acc (Smarq.Tcache.Store.telemetry s))
      independent;
    acc
  in
  telemetry_fields (Serve.Shards.telemetry sharded)
  = telemetry_fields (sum_independent ())
  && List.for_all
       (fun tenant ->
         telemetry_fields (Serve.Shards.telemetry ~tenant sharded)
         = telemetry_fields (sum_independent ~tenant ()))
       [ "a"; "b"; "c" ]

let test_tenant_budget_isolation () =
  let shards =
    Serve.Shards.create ~tenant_budget:20
      ~ops:(Serve.Shards.store_ops ~policy:Smarq.Tcache.Policy.Lru)
      ()
  in
  let quiet = Serve.Shards.shard shards ~tenant:"quiet" ~worker:0 in
  Smarq.Tcache.Store.insert quiet "hot" ~size:10 0;
  (* a noisy tenant overflows its own budget many times over *)
  let noisy = Serve.Shards.shard shards ~tenant:"noisy" ~worker:0 in
  for i = 0 to 19 do
    Smarq.Tcache.Store.insert noisy (Printf.sprintf "n%d" i) ~size:10 0
  done;
  let noisy_t = Serve.Shards.telemetry ~tenant:"noisy" shards in
  let quiet_t = Serve.Shards.telemetry ~tenant:"quiet" shards in
  Alcotest.(check bool)
    "noisy tenant evicted" true
    (noisy_t.Smarq.Tcache.Telemetry.evictions > 0);
  Alcotest.(check int) "quiet tenant untouched" 0
    quiet_t.Smarq.Tcache.Telemetry.evictions;
  Alcotest.(check bool)
    "quiet translation still resident" true
    (Smarq.Tcache.Store.mem quiet "hot")

(* ---- matrix via the service == batch matrix ---- *)

let test_serve_matrix_small_bit_identical () =
  let batch = Exec.Matrix.run_matrix ~domains:2 (Suite_exec.small_matrix ()) in
  let served = Serve.Server.run_matrix ~domains:3 (Suite_exec.small_matrix ()) in
  Alcotest.(check int) "same length" (List.length batch) (List.length served);
  List.iter2
    (fun (a : Exec.Matrix.outcome) (b : Exec.Matrix.outcome) ->
      let label = a.Exec.Matrix.job.Exec.Matrix.label in
      Alcotest.(check string) "same label" label
        b.Exec.Matrix.job.Exec.Matrix.label;
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical stats" label)
        true
        (Suite_exec.strip_wall a.Exec.Matrix.result.Runtime.Driver.stats
        = Suite_exec.strip_wall b.Exec.Matrix.result.Runtime.Driver.stats);
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical final state" label)
        true
        (Vliw.Machine.equal_guest_state
           a.Exec.Matrix.result.Runtime.Driver.machine
           b.Exec.Matrix.result.Runtime.Driver.machine))
    batch served

let test_serve_matrix_fig15_seed_cycles () =
  let jobs =
    List.map
      (fun (bench, scheme, _) ->
        Exec.Matrix.of_bench ~scale:5 ~scheme (Workload.Specfp.find bench))
      Suite_exec.fig15_seed_reference
  in
  let outcomes = Serve.Server.run_matrix jobs in
  List.iter2
    (fun (bench, scheme, cycles) (o : Exec.Matrix.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "%s/%s cycles via service" bench
           (Smarq.Scheme.name scheme))
        cycles
        o.Exec.Matrix.result.Runtime.Driver.stats.Runtime.Stats.total_cycles)
    Suite_exec.fig15_seed_reference outcomes

(* ---- the server proper ---- *)

let one_job () =
  Exec.Matrix.of_bench ~scale:1 ~scheme:(Smarq.Scheme.Smarq 64)
    (Workload.Specfp.find "wupwise")

let test_serve_admission_control () =
  (* the first request's program thunk blocks until the test releases
     it, so the second submission deterministically finds the queue
     full *)
  let config =
    { Serve.Server.default_config with domains = 1; queue_limit = 1 }
  in
  let server = Serve.Server.create ~config () in
  let m = Mutex.create () and c = Condition.create () in
  let released = ref false in
  let job = one_job () in
  let held =
    {
      job with
      Exec.Matrix.program =
        (fun () ->
          Mutex.lock m;
          while not !released do
            Condition.wait c m
          done;
          Mutex.unlock m;
          job.Exec.Matrix.program ());
    }
  in
  let rq job =
    { Serve.Server.tenant = "t0"; job; shared_cache = true; fault = None;
      deadline = None }
  in
  let t1 =
    match Serve.Server.submit server (rq held) with
    | `Accepted t -> t
    | `Rejected -> Alcotest.fail "first submission rejected"
  in
  (match Serve.Server.submit server (rq job) with
  | `Rejected -> ()
  | `Accepted _ -> Alcotest.fail "queue_limit not enforced");
  Alcotest.(check int) "inflight" 1 (Serve.Server.inflight server);
  Mutex.lock m;
  released := true;
  Condition.broadcast c;
  Mutex.unlock m;
  let reply = Serve.Server.await t1 in
  Alcotest.(check bool) "request succeeded" true
    (match reply.Serve.Server.resolution with
    | Serve.Server.Done _ -> true
    | _ -> false);
  Serve.Server.shutdown server;
  let r = Serve.Server.report server in
  Alcotest.(check int) "accepted" 1 r.Serve.Server.submitted;
  Alcotest.(check int) "completed" 1 r.Serve.Server.completed;
  Alcotest.(check int) "rejected counted apart" 1 r.Serve.Server.rejected;
  Alcotest.(check int) "no errors" 0 r.Serve.Server.errors;
  Alcotest.(check int) "latency samples" 1
    r.Serve.Server.total.Runtime.Percentiles.n

let test_serve_shared_cache_reuse () =
  let config = { Serve.Server.default_config with domains = 1 } in
  let server = Serve.Server.create ~config () in
  let rq =
    { Serve.Server.tenant = "t0"; job = one_job (); shared_cache = true;
      fault = None; deadline = None }
  in
  let submit () =
    match Serve.Server.submit server rq with
    | `Accepted t -> Serve.Server.await t
    | `Rejected -> Alcotest.fail "rejected"
  in
  let first = submit () in
  let second = submit () in
  Serve.Server.shutdown server;
  let stats_of (r : Serve.Server.reply) =
    match r.Serve.Server.resolution with
    | Serve.Server.Done res -> res.Runtime.Driver.stats
    | Serve.Server.Failed e -> raise e
    | _ -> Alcotest.fail "unexpected resolution"
  in
  (* the first run populates the tenant shard; the second finds its hot
     regions already translated *)
  Alcotest.(check bool) "first run translates" true
    ((stats_of first).Runtime.Stats.regions_built > 0);
  Alcotest.(check int) "second run retranslates nothing" 0
    (stats_of second).Runtime.Stats.regions_built;
  Alcotest.(check bool) "second run hits the shard" true
    ((stats_of second).Runtime.Stats.tcache_hits > 0);
  Alcotest.(check int) "one shard" 1 (Serve.Server.shard_count server);
  let telem = Serve.Server.shards_telemetry server in
  Alcotest.(check bool) "shard telemetry saw the hits" true
    (telem.Smarq.Tcache.Telemetry.hits > 0);
  (* a warm shard changes the cost, never the answer: run 2 skips the
     cold interpret-and-profile phase (fewer simulated cycles) but must
     land on the same final guest state *)
  Alcotest.(check bool) "warm run is no slower" true
    ((stats_of second).Runtime.Stats.total_cycles
    <= (stats_of first).Runtime.Stats.total_cycles);
  let machine_of (r : Serve.Server.reply) =
    match r.Serve.Server.resolution with
    | Serve.Server.Done res -> res.Runtime.Driver.machine
    | Serve.Server.Failed e -> raise e
    | _ -> Alcotest.fail "unexpected resolution"
  in
  Alcotest.(check bool) "same final guest state" true
    (Vliw.Machine.equal_guest_state (machine_of first) (machine_of second))

let test_serve_fault_passthrough_deterministic () =
  let run_campaign () =
    let config = { Serve.Server.default_config with domains = 1 } in
    let server = Serve.Server.create ~config () in
    let replies =
      List.init 4 (fun _ ->
          let rq =
            {
              Serve.Server.tenant = "t0";
              job = one_job ();
              shared_cache = true;
              fault = Some { Serve.Server.fault_seed = 5; fault_rate = 0.3 };
              deadline = None;
            }
          in
          match Serve.Server.submit server rq with
          | `Accepted t -> Serve.Server.await t
          | `Rejected -> Alcotest.fail "rejected")
    in
    Serve.Server.shutdown server;
    let r = Serve.Server.report server in
    (replies, r)
  in
  let replies1, report1 = run_campaign () in
  let replies2, report2 = run_campaign () in
  Alcotest.(check int) "no errors" 0 report1.Serve.Server.errors;
  Alcotest.(check bool) "faults actually injected" true
    (report1.Serve.Server.injected_faults > 0);
  Alcotest.(check int) "campaign injects deterministically"
    report1.Serve.Server.injected_faults report2.Serve.Server.injected_faults;
  List.iter2
    (fun (a : Serve.Server.reply) (b : Serve.Server.reply) ->
      Alcotest.(check int) "per-request injection count"
        a.Serve.Server.injected b.Serve.Server.injected;
      match (a.Serve.Server.resolution, b.Serve.Server.resolution) with
      | Serve.Server.Done ra, Serve.Server.Done rb ->
        Alcotest.(check bool) "per-request stats replay" true
          (Suite_exec.strip_wall ra.Runtime.Driver.stats
          = Suite_exec.strip_wall rb.Runtime.Driver.stats)
      | _ -> Alcotest.fail "request errored")
    replies1 replies2;
  (* distinct requests get distinct campaigns (seed + sequence number):
     at rate 0.3 four identical runs injecting identically would mean
     the per-request derivation is broken *)
  let counts =
    List.map (fun (r : Serve.Server.reply) -> r.Serve.Server.injected) replies1
  in
  Alcotest.(check bool) "per-request campaigns differ" true
    (List.sort_uniq compare counts <> [ List.hd counts ]
    || List.length (List.sort_uniq compare counts) > 1)

let test_loadgen_closed_loop () =
  let config =
    { Serve.Server.default_config with domains = 2; queue_limit = 8 }
  in
  let server = Serve.Server.create ~config () in
  let spec =
    {
      Serve.Loadgen.mode = Serve.Loadgen.Closed { clients = 4 };
      requests = 8;
      tenants = 2;
      shared_cache = true;
      fault = None;
      deadline = None;
      jobs = [| one_job () |];
    }
  in
  let res = Serve.Loadgen.run server spec in
  Serve.Server.shutdown server;
  let r = res.Serve.Loadgen.report in
  Alcotest.(check int) "all completed" 8 r.Serve.Server.completed;
  Alcotest.(check int) "none rejected" 0 r.Serve.Server.rejected;
  Alcotest.(check int) "no errors" 0 r.Serve.Server.errors;
  Alcotest.(check bool) "throughput measured" true
    (res.Serve.Loadgen.throughput_rps > 0.0);
  Alcotest.(check int) "a latency sample per request" 8
    r.Serve.Server.queue_wait.Runtime.Percentiles.n;
  (* two tenants on up to two workers *)
  Alcotest.(check bool) "tenant shards created" true
    (Serve.Server.shard_count server >= 2)


(* ---- server: deadlines, shutdown rejection ---- *)

let test_serve_deadline_timeout () =
  let config = { Serve.Server.default_config with domains = 1 } in
  let server = Serve.Server.create ~config () in
  let submit deadline =
    let rq =
      { Serve.Server.tenant = "t0"; job = one_job (); shared_cache = false;
        fault = None; deadline }
    in
    match Serve.Server.submit server rq with
    | `Accepted t -> Serve.Server.await t
    | `Rejected -> Alcotest.fail "rejected"
  in
  (* wupwise at scale 1 dispatches ~850 blocks: 64 must time out *)
  let tight =
    submit (Some { Serve.Server.wall_s = None; blocks = Some 64 })
  in
  (match tight.Serve.Server.resolution with
  | Serve.Server.Timed_out res ->
    Alcotest.(check bool) "outcome marks the deadline" true
      (res.Runtime.Driver.outcome = Runtime.Driver.Deadline_exceeded);
    (* the budget allows 64 full blocks; the 65th dispatch trips and
       is itself counted, so the partial stats read exactly budget+1 *)
    Alcotest.(check int) "partial stats stop at the budget" 65
      res.Runtime.Driver.stats.Runtime.Stats.blocks_dispatched;
    Alcotest.(check bool) "partial stats carry real work" true
      (res.Runtime.Driver.stats.Runtime.Stats.instrs_interpreted > 0)
  | _ -> Alcotest.fail "expected Timed_out");
  (* a generous budget changes nothing *)
  let loose =
    submit (Some { Serve.Server.wall_s = None; blocks = Some 100_000 })
  in
  (match loose.Serve.Server.resolution with
  | Serve.Server.Done res ->
    Alcotest.(check bool) "completed under budget" true
      (res.Runtime.Driver.stats.Runtime.Stats.blocks_dispatched < 100_000)
  | _ -> Alcotest.fail "expected Done");
  Serve.Server.shutdown server;
  let r = Serve.Server.report server in
  Alcotest.(check int) "timed_out counted" 1 r.Serve.Server.timed_out;
  Alcotest.(check int) "completed counted" 1 r.Serve.Server.completed;
  Alcotest.(check int) "timeouts are not errors" 0 r.Serve.Server.errors;
  Alcotest.(check int) "both latencies sampled" 2
    r.Serve.Server.total.Runtime.Percentiles.n

let test_serve_submit_after_shutdown_rejected () =
  let server = Serve.Server.create () in
  Serve.Server.shutdown server;
  let rq =
    { Serve.Server.tenant = "t0"; job = one_job (); shared_cache = true;
      fault = None; deadline = None }
  in
  (match Serve.Server.submit server rq with
  | `Rejected -> ()
  | `Accepted _ -> Alcotest.fail "draining server must reject");
  let r = Serve.Server.report server in
  Alcotest.(check int) "rejection counted" 1 r.Serve.Server.rejected;
  Alcotest.(check int) "nothing accepted" 0 r.Serve.Server.submitted

let test_serve_failed_then_done () =
  (* one worker: the raising request must not take the worker down, so
     the next request runs on the same worker and completes *)
  let config = { Serve.Server.default_config with domains = 1 } in
  let server = Serve.Server.create ~config () in
  let boom =
    { (one_job ()) with
      Exec.Matrix.label = "boom";
      program = (fun () -> failwith "boom") }
  in
  let submit job =
    let rq =
      { Serve.Server.tenant = "t0"; job; shared_cache = false; fault = None;
        deadline = None }
    in
    match Serve.Server.submit server rq with
    | `Accepted t -> t
    | `Rejected -> Alcotest.fail "rejected"
  in
  let t_boom = submit boom in
  let t_ok = submit (one_job ()) in
  let failed = Serve.Server.await t_boom in
  let ok = Serve.Server.await t_ok in
  (match failed.Serve.Server.resolution with
  | Serve.Server.Failed (Failure msg) ->
    Alcotest.(check string) "the thunk's exception" "boom" msg
  | _ -> Alcotest.fail "expected Failed");
  (match ok.Serve.Server.resolution with
  | Serve.Server.Done _ -> ()
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check int) "same worker" failed.Serve.Server.worker
    ok.Serve.Server.worker;
  Serve.Server.shutdown server;
  let r = Serve.Server.report server in
  Alcotest.(check int) "errors" 1 r.Serve.Server.errors;
  Alcotest.(check int) "completed" 1 r.Serve.Server.completed;
  Alcotest.(check int) "both latencies sampled" 2
    r.Serve.Server.total.Runtime.Percentiles.n

(* A served run carries the job's whole config, whichever cache it
   runs against: a certified job on a fresh shared shard reports the
   same certification (and cycles) as the batch run of that job. *)
let test_serve_certify_on_shared_shard () =
  let job =
    Exec.Matrix.of_bench
      ~config:{ Runtime.Config.default with unroll = 4; certify = true }
      ~scale:1 ~scheme:(Smarq.Scheme.Smarq 64)
      (Workload.Specfp.find "ammp")
  in
  let batch = (Exec.Matrix.run_job job).Exec.Matrix.result.Runtime.Driver.stats in
  Alcotest.(check bool) "batch run certifies pairs" true
    (batch.Runtime.Stats.certified_pairs > 0);
  let config =
    {
      Serve.Server.default_config with
      domains = 1;
      shard_policy = Smarq.Tcache.Policy.Unbounded;
    }
  in
  let server = Serve.Server.create ~config () in
  let serve ~shared_cache =
    let rq =
      { Serve.Server.tenant = "t0"; job; shared_cache; fault = None;
        deadline = None }
    in
    match Serve.Server.submit server rq with
    | `Rejected -> Alcotest.fail "rejected"
    | `Accepted t ->
      (match (Serve.Server.await t).Serve.Server.resolution with
      | Serve.Server.Done r -> r.Runtime.Driver.stats
      | Serve.Server.Failed e -> raise e
      | _ -> Alcotest.fail "unexpected resolution")
  in
  let private_ = serve ~shared_cache:false in
  let shared = serve ~shared_cache:true in
  Serve.Server.shutdown server;
  List.iter
    (fun (path, (st : Runtime.Stats.t)) ->
      let check field a b =
        Alcotest.(check int) (Printf.sprintf "%s cache: %s" path field) a b
      in
      check "total_cycles" batch.Runtime.Stats.total_cycles
        st.Runtime.Stats.total_cycles;
      check "certified_pairs" batch.Runtime.Stats.certified_pairs
        st.Runtime.Stats.certified_pairs;
      check "verified_regions" batch.Runtime.Stats.verified_regions
        st.Runtime.Stats.verified_regions)
    [ ("private", private_); ("shared", shared) ]

let suite =
  ( "serve",
    [
      case "percentiles: empty" test_percentiles_empty;
      case "percentiles: nearest rank" test_percentiles_nearest_rank;
      case "percentiles: merge and summary" test_percentiles_merge_summary;
      case "pool: drains on shutdown" test_pool_drains_on_shutdown;
      case "pool: shutdown idempotent" test_pool_shutdown_idempotent;
      case "pool: failed jobs counted" test_pool_failed_jobs_counted;
      qcase ~count:200 "shards == independent stores (telemetry)"
        arb_shard_ops shards_match_independent_stores;
      case "shards: tenant eviction budgets isolate" test_tenant_budget_isolation;
      case "serve matrix == batch matrix (small, full stats)"
        test_serve_matrix_small_bit_identical;
      case "serve matrix: fig15 seed cycles (scale 5)"
        test_serve_matrix_fig15_seed_cycles;
      case "server: admission control" test_serve_admission_control;
      case "server: tenant shard reuse" test_serve_shared_cache_reuse;
      case "server: per-request fault campaigns replay"
        test_serve_fault_passthrough_deterministic;
      case "loadgen: closed loop" test_loadgen_closed_loop;
      case "server: deadline resolves Timed_out with partial stats"
        test_serve_deadline_timeout;
      case "server: submit after shutdown rejects"
        test_serve_submit_after_shutdown_rejected;
      case "server: a raising run resolves Failed, the worker serves on"
        test_serve_failed_then_done;
      case "server: a certified job stays certified on a shared shard"
        test_serve_certify_on_shared_shard;
    ] )
