(* translate-verify: one request is one hot region going from superblock
   to a verified artifact — [Opt.Optimizer.run_request] (default
   pipeline, certification on) followed by [Check.Verifier.verify].
   Nothing executes.

   The requests are captured in setup from suite programs at unroll 2,
   4 and 8 under smarq64, smarq16 and efficeon, plus seeded
   [Workload.Genprog] superblocks.  The captured programs are fixed so
   every seed sees the same spread of region sizes; ammp (smarq16 and
   efficeon), mesa and apsi (efficeon) overflow and take the fallback
   rebuild.  The generated superblocks stay small, below the pool's
   median latency, so the seed cannot move p50 or p95.
   One pass is the whole pool, in an order shuffled afresh for every
   pass from the seeded stream, so a major collection does not keep
   landing in the same requests. *)

let schemes = Smarq.Scheme.[ Smarq 64; Smarq 16; Efficeon ]

(* (unroll, programs captured under every scheme) *)
let captures ~tiny =
  if tiny then [ (2, [ "mesa" ]) ]
  else [ (2, [ "ammp"; "mesa" ]); (4, [ "apsi"; "equake" ]); (8, [ "mgrid"; "sixtrack" ]) ]

(* seeded superblocks: body-length classes, one scheme each *)
let genprog_sizes ~tiny = if tiny then [| 40 |] else [| 50; 100; 150 |]
let genprog_count ~tiny = if tiny then 2 else 12

type item = {
  label : string;
  request : Opt.Optimizer.request;
  config : Vliw.Config.t;
  mutable expected : Exec.Translate.artifact option;  (** warm-up result *)
}

let certified (r : Opt.Optimizer.request) =
  { r with Opt.Optimizer.policy = Sched.Policy.with_certify r.Opt.Optimizer.policy }

let captured ~tiny =
  List.concat_map
    (fun (unroll, names) ->
      List.concat_map
        (fun name ->
          let program = Workload.Specfp.program (Workload.Specfp.find name) in
          List.concat_map
            (fun scheme ->
              let _, config, reqs =
                Exec.Translate.capture_program ~unroll ~scheme program
              in
              List.mapi
                (fun i r ->
                  {
                    label =
                      Printf.sprintf "%s/u%d/%s#%d" name unroll
                        (Smarq.Scheme.name scheme) i;
                    request = certified r;
                    config;
                    expected = None;
                  })
                reqs)
            schemes)
        names)
    (captures ~tiny)

let generated ~seed ~tiny =
  let sizes = genprog_sizes ~tiny in
  List.init (genprog_count ~tiny) (fun i ->
      let params =
        {
          Workload.Genprog.default_params with
          n_instrs = sizes.(i mod Array.length sizes);
          side_exit_every = Some 16;
        }
      in
      let gseed = (seed * 7919) + i in
      let sb, _ = Workload.Genprog.superblock ~seed:gseed ~params in
      let scheme = List.nth schemes (i mod List.length schemes) in
      let fresh_base =
        1
        + List.fold_left
            (fun m (ins : Ir.Instr.t) -> max m ins.Ir.Instr.id)
            0 sb.Ir.Superblock.body
      in
      let policy = (Smarq.Scheme.to_driver scheme).Runtime.Driver.policy in
      {
        label =
          Printf.sprintf "genprog/%d/%d/%s" gseed params.n_instrs
            (Smarq.Scheme.name scheme);
        request =
          certified { Opt.Optimizer.sb; policy; known_alias = []; fresh_base };
        config = Smarq.config_for scheme;
        expected = None;
      })

let translate ?profile ~arena probe it =
  let c = it.config in
  let latency = Vliw.Config.latency c in
  let issue_width = c.Vliw.Config.issue_width and mem_ports = c.Vliw.Config.mem_ports in
  let o =
    Probe.span probe "opt.run_request" (fun () ->
        Opt.Optimizer.run_request ~issue_width ~mem_ports ~latency ?profile ~arena
          it.request)
  in
  let verdict =
    Probe.span probe "check.verify" (fun () ->
        Check.Verifier.verify ~issue_width ~mem_ports ~latency o)
  in
  (o, verdict)

let setup ~seed ~tiny =
  let prng = Verify.Prng.create ~seed in
  let pool =
    Bench.shuffle prng
      (Array.of_list (captured ~tiny @ generated ~seed ~tiny))
  in
  let arena = Analysis.Arena.create () in
  (* warm-up: translate and verify every request once *)
  Array.iter
    (fun it ->
      match translate ~arena None it with
      | o, Check.Verifier.Pass -> it.expected <- Some (Exec.Translate.artifact_of o)
      | _, Check.Verifier.Reject _ ->
        raise (Bench.Incorrect (it.label ^ ": warm-up region rejected by the verifier")))
    pool;
  let rid = ref 0 in
  let run_pass probe =
    let sim = ref 0 in
    let outcomes =
      Array.map
        (fun it ->
          incr rid;
          Probe.request probe ~rid:!rid (fun () ->
              let profile = Option.map (fun _ -> Sched.Profile.create ()) probe in
              let t0 = Bench.now () in
              let o, verdict = translate ?profile ~arena probe it in
              let latency_s = Bench.now () -. t0 in
              let region = o.Opt.Optimizer.region in
              sim := !sim + Ir.Region.schedule_length region;
              let passed = verdict = Check.Verifier.Pass in
              let same =
                Probe.span probe "check.equal_artifact" (fun () ->
                    match it.expected with
                    | Some a -> Exec.Translate.equal_artifact a (Exec.Translate.artifact_of o)
                    | None -> false)
              in
              Option.iter
                (fun p ->
                  List.iter (fun (k, s) -> Probe.add probe k s) (Bench.profile_phases p))
                profile;
              let st = o.Opt.Optimizer.stats in
              Probe.count probe "opt.regions" 1;
              Probe.count probe "opt.fallbacks" (Bool.to_int st.Opt.Optimizer.fell_back);
              Probe.count probe "analysis.certified_pairs"
                (List.length region.Ir.Region.certified_no_alias);
              Probe.count probe "sched.dropped_edges"
                st.Opt.Optimizer.sched_stats.Sched.List_sched.dropped_pairs;
              Probe.count probe "sched.bundles" (Array.length region.Ir.Region.bundles);
              Probe.count probe "check.rejects" (Bool.to_int (not passed));
              { Bench.latency_s; ok = passed && same }))
        (Bench.shuffle prng pool)
    in
    { Bench.outcomes = Array.to_list outcomes; sim_cycles = !sim }
  in
  {
    Bench.inputs = Bench.digest (Array.to_list (Array.map (fun it -> it.label) pool));
    worker_domains = 0;
    run_pass;
    shutdown = ignore;
  }

let workload = { Bench.name = "translate-verify"; setup }
