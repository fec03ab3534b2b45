type scheme = {
  policy : Sched.Policy.t;
  detector : Hw.Detector.t;
}

type cache_entry = {
  mutable region : Ir.Region.t;
  sb : Ir.Superblock.t;
  mutable life : Lifecycle.t;
}

(* A translation cache that outlives one [run] — the serve subsystem
   hands a tenant's shard to successive driver runs so hot regions stay
   translated across requests.  The entry type is private to the
   driver, so external callers build these through [make_cache]. *)
type cache = cache_entry Tcache.Store.t

let make_cache ?capacity ~policy () : cache =
  Tcache.Store.create ?capacity ~policy ()

let cache_telemetry (c : cache) = Tcache.Store.telemetry c

type outcome =
  | Completed
  | Fuel_exhausted
  | Deadline_exceeded

type result = {
  stats : Stats.t;
  machine : Vliw.Machine.t;
  outcome : outcome;
}

type tcache_event =
  | Keep
  | Invalidate
  | Flush

type hooks = {
  detector : Hw.Detector.t -> Hw.Detector.t;
  before_dispatch : Ir.Instr.label -> tcache_event;
  is_injected : Hw.Detector.violation -> bool;
  injected_count : unit -> int;
  deadline : unit -> bool;
}

let no_hooks =
  {
    detector = Fun.id;
    before_dispatch = (fun _ -> Keep);
    is_injected = (fun _ -> false);
    injected_count = (fun () -> 0);
    deadline = (fun () -> false);
  }

(* the faulting pair among a region's assumed keys, in either
   orientation: a binary search per orientation, on every rollback *)
let assumed_mem (region : Ir.Region.t) a b =
  let keys = region.Ir.Region.assumed_no_alias in
  Analysis.Pair_key.mem keys (Analysis.Pair_key.pack a b)
  || Analysis.Pair_key.mem keys (Analysis.Pair_key.pack b a)

let run ?(config = Config.default) ?tcache ?(hooks = no_hooks) ?capture
    ~(scheme : scheme) program =
  let { Config.fuel; unroll; tcache_policy; tcache_capacity; verify; certify;
        max_reopts; vliw } =
    config
  in
  let config = Option.value vliw ~default:Vliw.Config.default in
  let detector = hooks.detector scheme.detector in
  let stats = Stats.create () in
  let translate_profile = stats.Stats.translate in
  let machine = Vliw.Machine.create () in
  let profiler = Frontend.Profiler.create () in
  let liveness = Frontend.Liveness.analyze program in
  let fresh_id = ref (Ir.Program.max_instr_id program + 1) in
  let cache : cache_entry Tcache.Store.t =
    match tcache with
    | Some c -> c
    | None ->
      Tcache.Store.create ?capacity:tcache_capacity ~policy:tcache_policy ()
  in
  (* with a shared cache the telemetry spans many runs; snapshot it so
     this run's stats fold in only its own window of activity *)
  let tcache_baseline =
    Tcache.Telemetry.snapshot (Tcache.Store.telemetry cache)
  in
  let latency = Vliw.Config.latency config in
  let data_cache = Option.map Vliw.Cache.create config.Vliw.Config.cache in
  (* one outcome record per run, refilled by every region execution *)
  let r = Vliw.Region_exec.make_result () in
  (* regions blacklisted to interpreter-only execution, either by the
     livelock watchdog or by a static-verifier rejection *)
  let degraded : (Ir.Instr.label, unit) Hashtbl.t = Hashtbl.create 4 in
  let degrade label =
    Hashtbl.replace degraded label ();
    stats.Stats.degraded_regions <- stats.Stats.degraded_regions + 1;
    Tcache.Store.invalidate cache label
  in
  (* Translation validation: returns [true] when the artifact may be
     installed. *)
  let verify_artifact o =
    match verify with
    | Check.Verifier.Off -> true
    | Check.Verifier.All -> (
      stats.Stats.verified_regions <- stats.Stats.verified_regions + 1;
      match
        Check.Verifier.verify ~issue_width:config.Vliw.Config.issue_width
          ~mem_ports:config.Vliw.Config.mem_ports ~latency o
      with
      | Check.Verifier.Pass -> true
      | Check.Verifier.Reject vs ->
        Stats.note_reject stats
          (List.map
             (fun (v : Check.Verifier.violation) ->
               Check.Verifier.rule_name v.Check.Verifier.rule)
             vs);
        false)
  in
  (* the scheme's register count governs the allocator; the machine
     must expose at least that many (the region executor guards it) *)
  let policy =
    if certify then Sched.Policy.with_certify scheme.policy else scheme.policy
  in
  let charge_optimize n_instrs =
    let opt_cost = n_instrs * config.Vliw.Config.optimize_cycles_per_instr in
    let sched_cost = n_instrs * config.Vliw.Config.schedule_cycles_per_instr in
    stats.Stats.optimize_cycles <- stats.Stats.optimize_cycles + opt_cost;
    stats.Stats.schedule_cycles <- stats.Stats.schedule_cycles + sched_cost;
    stats.Stats.total_cycles <- stats.Stats.total_cycles + opt_cost
  in
  (* one arena per run: depgraph/hazard scratch grows to the largest
     region and is reused by every translation after it *)
  let arena = Analysis.Arena.create () in
  (* every optimize call goes through here so [capture] sees the exact
     inputs (including the id counter) of each translation the run
     performed — the capture-and-replay contract of Exec.Translate *)
  let optimize_with ~policy ~known_alias sb =
    (match capture with
    | Some record ->
      record
        {
          Opt.Optimizer.sb;
          policy;
          known_alias;
          fresh_base = !fresh_id;
        }
    | None -> ());
    Opt.Optimizer.optimize ~policy
      ~issue_width:config.Vliw.Config.issue_width
      ~mem_ports:config.Vliw.Config.mem_ports ~latency ~fresh_id ~known_alias
      ~profile:translate_profile ~arena sb
  in
  let build_region label =
    let sb =
      Frontend.Region_form.form ~program ~liveness ~profiler ~fresh_id label
    in
    let sb =
      if unroll > 1 then
        Option.value
          (Opt.Unroll.unroll ~factor:unroll ~fresh_id sb)
          ~default:sb
      else sb
    in
    let o = optimize_with ~policy ~known_alias:[] sb in
    let ws = Sched.Working_set.measure ~sb ~outcome:{
        Sched.List_sched.region = o.Opt.Optimizer.region;
        alloc_result = o.Opt.Optimizer.alloc_result;
        stats = o.Opt.Optimizer.stats.Opt.Optimizer.sched_stats;
        hazards = o.Opt.Optimizer.hazards;
        issue_pos = o.Opt.Optimizer.issue_pos;
        issue_cycle = o.Opt.Optimizer.issue_cycle;
      }
    in
    Stats.note_region_built stats o ~ws;
    charge_optimize o.Opt.Optimizer.stats.Opt.Optimizer.work_units;
    if verify_artifact o then
      Tcache.Store.insert cache label
        ~size:(Ir.Region.instr_count o.Opt.Optimizer.region)
        { region = o.Opt.Optimizer.region; sb; life = Lifecycle.fresh }
    else
      (* the translation failed validation: never install it — the
         label falls back to the interpreter, like a watchdog kill *)
      degrade label
  in
  (* the rebuild after a rollback: the rung says whether it speculates *)
  let reoptimize entry =
    let o =
      match entry.life.Lifecycle.rung with
      | Lifecycle.Unspeculated ->
        optimize_with ~policy:(Sched.Policy.none ()) ~known_alias:[] entry.sb
      | Lifecycle.Speculative _ ->
        optimize_with ~policy
          ~known_alias:(Lifecycle.known_alias entry.life ~sb:entry.sb) entry.sb
    in
    charge_optimize o.Opt.Optimizer.stats.Opt.Optimizer.work_units;
    if o.Opt.Optimizer.stats.Opt.Optimizer.fell_back then
      stats.Stats.reopt_fallbacks <- stats.Stats.reopt_fallbacks + 1;
    if verify_artifact o then begin
      entry.region <- o.Opt.Optimizer.region;
      (* the translation changed in place: chains into it stay valid,
         chains out of it are rebuilt against the new schedule *)
      Tcache.Store.replace cache entry.region.Ir.Region.entry
        ~size:(Ir.Region.instr_count o.Opt.Optimizer.region)
    end
    else
      (* the rebuilt translation failed validation: drop the stale
         entry and blacklist the label to interpreter-only execution *)
      degrade entry.region.Ir.Region.entry
  in
  let blocks_left = ref fuel in
  (* [chain_from] is the label of the region we just committed out of,
     if any: the dispatch first tries its chain link (skipping the
     cache lookup), and installs one after a successful lookup so the
     next exit takes the fast path.  Returns how the run ended. *)
  let rec step ~chain_from label =
    if !blocks_left <= 0 then Fuel_exhausted
    else begin
      decr blocks_left;
      stats.Stats.blocks_dispatched <- stats.Stats.blocks_dispatched + 1;
      if hooks.deadline () then Deadline_exceeded
      else dispatch ~chain_from label
    end
  and dispatch ~chain_from label =
    (match hooks.before_dispatch label with
    | Keep -> ()
    | Invalidate -> Tcache.Store.invalidate cache label
    | Flush -> Tcache.Store.flush cache);
    let cached =
      if Hashtbl.mem degraded label then None
      else
        match chain_from with
        | None -> Tcache.Store.find cache label
        | Some from ->
          (match Tcache.Store.follow cache ~from ~exit:label with
          | Some entry -> Some entry
          | None ->
            let found = Tcache.Store.find cache label in
            (match found with
            | Some _ -> Tcache.Store.chain cache ~from ~exit:label
            | None -> ());
            found)
    in
    match cached with
    | Some entry ->
      stats.Stats.region_entries <- stats.Stats.region_entries + 1;
      Vliw.Region_exec.run ~config ~detector ~machine ?cache:data_cache
        entry.region r;
      stats.Stats.region_cycles <- stats.Stats.region_cycles + r.Vliw.Region_exec.cycles;
      stats.Stats.total_cycles <- stats.Stats.total_cycles + r.Vliw.Region_exec.cycles;
      stats.Stats.alias_checks <-
        stats.Stats.alias_checks + r.Vliw.Region_exec.alias_checks;
      (match r.Vliw.Region_exec.outcome with
      | Vliw.Region_exec.Committed ->
        stats.Stats.region_commits <- stats.Stats.region_commits + 1;
        entry.life <- Lifecycle.commit entry.life;
        if r.Vliw.Region_exec.side_exit then begin
          let l = r.Vliw.Region_exec.exit_label in
          (match entry.region.Ir.Region.final_exit with
          | Some f when String.equal f l -> ()
          | Some _ | None ->
            stats.Stats.side_exits_taken <- stats.Stats.side_exits_taken + 1);
          step ~chain_from:(Some label) l
        end
        else begin
          match entry.region.Ir.Region.final_exit with
          | Some l -> step ~chain_from:(Some label) l
          | None -> Completed
        end
      | Vliw.Region_exec.Alias_fault v ->
        stats.Stats.rollbacks <- stats.Stats.rollbacks + 1;
        if hooks.is_injected v then
          stats.Stats.spurious_rollbacks <- stats.Stats.spurious_rollbacks + 1;
        let setter = v.Hw.Detector.setter and checker = v.Hw.Detector.checker in
        if not (assumed_mem entry.region setter checker) then
          stats.Stats.rollbacks_not_assumed <-
            stats.Stats.rollbacks_not_assumed + 1;
        if
          (not (hooks.is_injected v))
          && List.mem
               (min setter checker, max setter checker)
               entry.region.Ir.Region.certified_no_alias
        then
          (* a genuine dynamic conflict on a statically certified pair:
             the rollback recovers the guest, but the certificate was
             wrong — count it as a hard soundness error *)
          stats.Stats.certified_alias_faults <-
            stats.Stats.certified_alias_faults + 1;
        let life, transition =
          Lifecycle.fault ~max_reopts ~setter ~checker entry.life
        in
        entry.life <- life;
        Stats.note_transition stats transition;
        (match transition with
        | Lifecycle.Degrade -> degrade label
        | Learned | Pinned _ | Gave_up | Retried_unspeculated ->
          reoptimize entry);
        step ~chain_from:None label)
    | None ->
      let b = Ir.Program.block program label in
      Frontend.Profiler.note_execution profiler label;
      let next = Frontend.Interp.exec_block machine b in
      (match next with
      | Some l -> Frontend.Profiler.note_edge profiler label l
      | None -> ());
      let n = List.length b.Ir.Block.body + 1 in
      stats.Stats.instrs_interpreted <- stats.Stats.instrs_interpreted + n;
      let c = n * config.Vliw.Config.interp_cycles_per_instr in
      stats.Stats.interp_cycles <- stats.Stats.interp_cycles + c;
      stats.Stats.total_cycles <- stats.Stats.total_cycles + c;
      if
        Frontend.Profiler.is_hot profiler label
        && not (Hashtbl.mem degraded label)
      then build_region label;
      (match next with
      | Some l -> step ~chain_from:None l
      | None -> Completed)
  in
  let t0 = Unix.gettimeofday () in
  let outcome = step ~chain_from:None program.Ir.Program.entry in
  Stats.note_tcache stats
    (Tcache.Telemetry.delta ~since:tcache_baseline
       (Tcache.Store.telemetry cache));
  stats.Stats.injected_faults <- hooks.injected_count ();
  stats.Stats.wall_seconds <- Unix.gettimeofday () -. t0;
  { stats; machine; outcome }
