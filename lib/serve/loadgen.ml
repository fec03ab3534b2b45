(* Load generation against a running server.

   Closed loop: a pipeline of [clients] outstanding requests — submit
   until [clients] are in flight, then await the oldest and refill.
   Throughput is whatever the service sustains; nothing is rejected as
   long as [clients <= queue_limit].

   Open loop: requests are issued on a fixed arrival schedule
   (request [i] at [start + i / rate]), regardless of completions.
   When the service falls behind, admission control rejects the excess
   — which is the point: the rejection count under an offered-rate
   sweep is the measured capacity curve.

   Request [i] goes to tenant ["t" ^ i mod tenants] and runs job
   [i mod length jobs]: fully deterministic assignment, so a (spec,
   seed) pair names one exact workload. *)

type mode =
  | Closed of { clients : int }
  | Open of { rate : float }

type spec = {
  mode : mode;
  requests : int;
  tenants : int;
  shared_cache : bool;
  fault : Server.fault_spec option;
  deadline : Server.deadline option;
  jobs : Exec.Matrix.job array;
}

type result = {
  report : Server.report;
  elapsed_s : float;
  throughput_rps : float;  (* completed / elapsed *)
  offered_rps : float option;  (* open loop only *)
}

let request_of spec i =
  {
    Server.tenant = "t" ^ string_of_int (i mod spec.tenants);
    job = spec.jobs.(i mod Array.length spec.jobs);
    shared_cache = spec.shared_cache;
    fault = spec.fault;
    deadline = spec.deadline;
  }

let validate spec =
  if spec.requests < 0 then invalid_arg "Serve.Loadgen.run: requests < 0";
  if spec.tenants < 1 then invalid_arg "Serve.Loadgen.run: tenants < 1";
  if Array.length spec.jobs = 0 then invalid_arg "Serve.Loadgen.run: no jobs";
  match spec.mode with
  | Closed { clients } ->
    if clients < 1 then invalid_arg "Serve.Loadgen.run: clients < 1"
  | Open { rate } ->
    if rate <= 0.0 then invalid_arg "Serve.Loadgen.run: rate <= 0"

let run_closed server spec clients =
  (* FIFO of outstanding tickets, depth [clients] *)
  let outstanding = Queue.create () in
  for i = 0 to spec.requests - 1 do
    (match Server.submit server (request_of spec i) with
    | `Accepted ticket -> Queue.push ticket outstanding
    | `Rejected -> ()
    (* only when clients > queue_limit; the pipeline shrinks *));
    if Queue.length outstanding >= clients then
      ignore (Server.await (Queue.pop outstanding))
  done;
  Queue.iter (fun ticket -> ignore (Server.await ticket)) outstanding

let run_open server spec rate =
  let start = Unix.gettimeofday () in
  let accepted = ref [] in
  for i = 0 to spec.requests - 1 do
    let due = start +. (float_of_int i /. rate) in
    let now = Unix.gettimeofday () in
    if due > now then Unix.sleepf (due -. now);
    match Server.submit server (request_of spec i) with
    | `Accepted ticket -> accepted := ticket :: !accepted
    | `Rejected -> ()
  done;
  List.iter (fun ticket -> ignore (Server.await ticket)) !accepted

let run server spec =
  validate spec;
  let t0 = Unix.gettimeofday () in
  (match spec.mode with
  | Closed { clients } -> run_closed server spec clients
  | Open { rate } -> run_open server spec rate);
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let report = Server.report server in
  {
    report;
    elapsed_s;
    throughput_rps =
      (if elapsed_s > 0.0 then float_of_int report.Server.completed /. elapsed_s
       else 0.0);
    offered_rps =
      (match spec.mode with Closed _ -> None | Open { rate } -> Some rate);
  }
