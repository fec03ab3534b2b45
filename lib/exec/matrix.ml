type job = {
  label : string;
  scheme : Smarq.Scheme.t;
  config : Runtime.Config.t;
  program : unit -> Ir.Program.t;
}

type outcome = {
  job : job;
  result : Runtime.Driver.result;
  wall_seconds : float;
}

let job ?(config = Runtime.Config.default) ~scheme ~label program =
  { label; scheme; config; program }

let of_bench ?config ?(scale = 1) ~scheme (b : Workload.Specfp.bench) =
  job ?config ~scheme
    ~label:(Printf.sprintf "%s/%s" b.Workload.Specfp.name (Smarq.Scheme.name scheme))
    (fun () -> Workload.Specfp.program ~scale b)

let run_job j =
  let t0 = Unix.gettimeofday () in
  let result =
    Smarq.run_program ~config:j.config ~scheme:j.scheme (j.program ())
  in
  { job = j; result; wall_seconds = Unix.gettimeofday () -. t0 }

let run_matrix ?domains jobs = Pool.map ?domains run_job jobs
