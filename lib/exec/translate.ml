(* Parallel per-region translation by capture and replay.

   The driver's dispatch loop is inherently serial — it translates a
   region the moment its entry turns hot, executes it, and only then
   discovers the next hot label — so there is never more than one
   pending translation to hand a pool.  What IS parallel is the work
   itself: after Frontend.Region_form every request the driver issues is
   a pure function of its captured inputs (superblock, policy,
   known-alias set, id-counter base), independent of every other
   request.  So the driver records each request as it happens
   ([Driver.run ?capture]) and this module replays the batch over the
   persistent domain pool, reassembling artifacts and per-phase timers
   in submission order.  Replay at any job count is bit-identical to
   sequential replay by construction; the test suite checks it anyway. *)

type artifact = {
  region : Ir.Region.t;
  issue_pos : int array;
  issue_cycle : int array;
  stats : Opt.Optimizer.opt_stats;
  policy_used : Sched.Policy.t;
}

(* [Opt.Optimizer.t] also carries the depgraph, hazard graph and the
   allocator's internal result — hashtable-bearing structures whose
   physical layout depends on insertion history.  The artifact keeps
   only the pure-data outputs, so structural equality is exactly
   "same translation". *)
let artifact_of (o : Opt.Optimizer.t) =
  {
    region = o.Opt.Optimizer.region;
    issue_pos = o.Opt.Optimizer.issue_pos;
    issue_cycle = o.Opt.Optimizer.issue_cycle;
    stats = o.Opt.Optimizer.stats;
    policy_used = o.Opt.Optimizer.policy_used;
  }

let equal_artifact (a : artifact) (b : artifact) = a = b

type result = {
  artifacts : artifact list;  (* in submission order *)
  profile : Sched.Profile.t;  (* per-phase timers, merged in order *)
  wall_seconds : float;
}

let capture_program ?(config = Runtime.Config.default) ?unroll ~scheme
    program =
  let config =
    match unroll with
    | Some unroll -> { config with Runtime.Config.unroll }
    | None -> config
  in
  let reqs = ref [] in
  let driver_result =
    Smarq.run_program ~config
      ~capture:(fun r -> reqs := r :: !reqs)
      ~scheme program
  in
  (driver_result, Smarq.machine_config config scheme, List.rev !reqs)

let replay ?pool ?jobs ~config requests =
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let t0 = Unix.gettimeofday () in
  let issue_width = config.Vliw.Config.issue_width in
  let mem_ports = config.Vliw.Config.mem_ports in
  let latency = Vliw.Config.latency config in
  (* per-request collectors: each request times into its own profile,
     and the merge below walks them in submission order — so the
     float-sum order of the aggregate is the same at every job count *)
  let profiles = Array.init n (fun _ -> Sched.Profile.create ()) in
  let artifacts = Array.make n None in
  let run_one ~arena i =
    let o =
      Opt.Optimizer.run_request ~issue_width ~mem_ports ~latency
        ~profile:profiles.(i) ~arena reqs.(i)
    in
    artifacts.(i) <- Some (artifact_of o)
  in
  let sequential () =
    let arena = Analysis.Arena.create () in
    for i = 0 to n - 1 do
      run_one ~arena i
    done
  in
  (match pool, jobs with
  | None, (None | Some 1) -> sequential ()
  | Some _, Some 1 ->
    (* one job: not worth a queue round-trip per request *)
    sequential ()
  | _ ->
    let owned, p =
      match pool with
      | Some p -> (false, p)
      | None -> (true, Pool.create ?domains:jobs ())
    in
    let window =
      min
        (match jobs with Some j -> max 1 j | None -> Pool.size p)
        (max 1 n)
    in
    (* Sliding window: at most [window] requests are in flight, so a
       shared pool larger than [jobs] still translates with exactly
       [jobs]-way concurrency.  Each worker keeps its own arena,
       indexed by the worker id the pool hands every job. *)
    let arenas = Array.init (Pool.size p) (fun _ -> Analysis.Arena.create ()) in
    let m = Mutex.create () in
    let all_done = Condition.create () in
    let completed = ref 0 in
    let next = ref 0 in
    let failure = ref None in
    let rec submit_next () =
      (* under [m] *)
      if !next < n then begin
        let i = !next in
        incr next;
        Pool.submit p (fun w ->
            (try run_one ~arena:arenas.(w) i
             with e ->
               Mutex.lock m;
               if !failure = None then
                 (failure := Some (e, Printexc.get_raw_backtrace ()));
               Mutex.unlock m);
            Mutex.lock m;
            incr completed;
            submit_next ();
            if !completed = n then Condition.signal all_done;
            Mutex.unlock m)
      end
    in
    Mutex.lock m;
    for _ = 1 to window do
      submit_next ()
    done;
    while !completed < n do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    if owned then Pool.shutdown p;
    (match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()));
  let profile = Sched.Profile.create () in
  Array.iter (fun p -> Sched.Profile.accumulate ~into:profile p) profiles;
  let artifacts =
    Array.to_list artifacts
    |> List.map (function Some a -> a | None -> assert false)
  in
  { artifacts; profile; wall_seconds = Unix.gettimeofday () -. t0 }
