(* exec-fig15: the Figure 15 matrix.  Every suite program runs to halt
   under none, smarq64, smarq16 and alat through [Smarq.run_program],
   each run with a private translation cache.  One request is one run;
   one pass is the whole matrix on the calling domain, in an order
   shuffled afresh for every pass from the seeded stream, so a major
   collection does not keep landing in the same runs. *)

let schemes = Smarq.Scheme.[ None_; Smarq 64; Smarq 16; Alat ]

type cell = {
  label : string;
  scheme : Smarq.Scheme.t;
  program : Ir.Program.t;
  reference : Vliw.Machine.t;  (** interpreter final state *)
  mutable cycles : int;  (** simulated cycles of the warm-up run *)
}

let run probe c =
  Probe.span probe "runtime.driver" (fun () ->
      Smarq.run_program ~scheme:c.scheme c.program)

let setup ~seed ~tiny =
  let benches, scale =
    if tiny then (List.filteri (fun i _ -> i < 2) Workload.Specfp.suite, 1)
    else (Workload.Specfp.suite, 4)
  in
  let cells =
    List.concat_map
      (fun (b : Workload.Specfp.bench) ->
        let program = Workload.Specfp.program ~scale b in
        let reference = Verify.Oracle.reference program in
        List.map
          (fun scheme ->
            {
              label = b.Workload.Specfp.name ^ "/" ^ Smarq.Scheme.name scheme;
              scheme;
              program;
              reference;
              cycles = 0;
            })
          schemes)
      benches
  in
  let prng = Verify.Prng.create ~seed in
  let rotation = Bench.shuffle prng (Array.of_list cells) in
  (* warm-up: every cell once, checked, recording its exact cycles *)
  Array.iter
    (fun c ->
      let r = run None c in
      if not (Bench.matches_reference r c.reference) then
        raise (Bench.Incorrect (c.label ^ ": warm-up diverged from the interpreter"));
      c.cycles <- r.Runtime.Driver.stats.Runtime.Stats.total_cycles)
    rotation;
  let rid = ref 0 in
  let run_pass probe =
    let sim = ref 0 in
    let outcomes =
      Array.map
        (fun c ->
          incr rid;
          Probe.request probe ~rid:!rid (fun () ->
              let t0 = Bench.now () in
              let r = run probe c in
              let latency_s = Bench.now () -. t0 in
              let stats = r.Runtime.Driver.stats in
              Bench.note_stats probe stats;
              sim := !sim + stats.Runtime.Stats.total_cycles;
              let ok =
                Probe.span probe "verify.oracle" (fun () ->
                    Bench.matches_reference r c.reference)
                && stats.Runtime.Stats.total_cycles = c.cycles
              in
              { Bench.latency_s; ok }))
        (Bench.shuffle prng rotation)
    in
    { Bench.outcomes = Array.to_list outcomes; sim_cycles = !sim }
  in
  {
    Bench.inputs =
      Bench.digest
        (string_of_int scale :: Array.to_list (Array.map (fun c -> c.label) rotation));
    worker_domains = 0;
    run_pass;
    shutdown = ignore;
  }

let workload = { Bench.name = "exec-fig15"; setup }
