type t = {
  mutable total_cycles : int;
  mutable interp_cycles : int;
  mutable region_cycles : int;
  mutable optimize_cycles : int;
  mutable schedule_cycles : int;
  mutable instrs_interpreted : int;
  mutable blocks_dispatched : int;
  mutable region_entries : int;
  mutable region_commits : int;
  mutable side_exits_taken : int;
  mutable rollbacks : int;
  mutable rollbacks_not_assumed : int;
  mutable reoptimizations : int;
  mutable pinned_ops : int;
  mutable gave_up_regions : int;
  mutable alias_checks : int;
  (* fault injection and graceful degradation *)
  mutable injected_faults : int;
  mutable spurious_rollbacks : int;
  mutable degraded_regions : int;
  (* translation validation *)
  mutable verified_regions : int;
  mutable rejected_regions : int;
  reject_rules : (string, int) Hashtbl.t;
  (* translation cache *)
  mutable tcache_hits : int;
  mutable tcache_misses : int;
  mutable tcache_evictions : int;
  mutable tcache_flushes : int;
  mutable tcache_invalidations : int;
  mutable tcache_chain_follows : int;
  mutable tcache_peak_resident : int;
  mutable regions_built : int;
  mutable superblock_instrs : int;
  mutable superblock_mem_ops : int;
  mutable p_bits : int;
  mutable c_bits : int;
  mutable check_constraints : int;
  mutable anti_constraints : int;
  mutable amov_fresh : int;
  mutable amov_clear : int;
  mutable loads_eliminated : int;
  mutable stores_eliminated : int;
  mutable overflow_fallbacks : int;
  mutable nonspec_mode_regions : int;
  mutable dropped_edges : int;
  (* static alias certification *)
  mutable certified_pairs : int;
  mutable alias_regs_saved : int;
  mutable certified_alias_faults : int;
  mutable working_set : Sched.Working_set.t;
  mutable wall_seconds : float;
  mutable translate : Sched.Profile.t;
}

let create () =
  {
    total_cycles = 0;
    interp_cycles = 0;
    region_cycles = 0;
    optimize_cycles = 0;
    schedule_cycles = 0;
    instrs_interpreted = 0;
    blocks_dispatched = 0;
    region_entries = 0;
    region_commits = 0;
    side_exits_taken = 0;
    rollbacks = 0;
    rollbacks_not_assumed = 0;
    reoptimizations = 0;
    pinned_ops = 0;
    gave_up_regions = 0;
    alias_checks = 0;
    injected_faults = 0;
    spurious_rollbacks = 0;
    degraded_regions = 0;
    verified_regions = 0;
    rejected_regions = 0;
    reject_rules = Hashtbl.create 8;
    tcache_hits = 0;
    tcache_misses = 0;
    tcache_evictions = 0;
    tcache_flushes = 0;
    tcache_invalidations = 0;
    tcache_chain_follows = 0;
    tcache_peak_resident = 0;
    regions_built = 0;
    superblock_instrs = 0;
    superblock_mem_ops = 0;
    p_bits = 0;
    c_bits = 0;
    check_constraints = 0;
    anti_constraints = 0;
    amov_fresh = 0;
    amov_clear = 0;
    loads_eliminated = 0;
    stores_eliminated = 0;
    overflow_fallbacks = 0;
    nonspec_mode_regions = 0;
    dropped_edges = 0;
    certified_pairs = 0;
    alias_regs_saved = 0;
    certified_alias_faults = 0;
    working_set = Sched.Working_set.zero;
    wall_seconds = 0.0;
    translate = Sched.Profile.create ();
  }

let note_region_built t (o : Opt.Optimizer.t) ~ws =
  let s = o.Opt.Optimizer.stats in
  let ss = s.Opt.Optimizer.sched_stats in
  t.regions_built <- t.regions_built + 1;
  t.superblock_instrs <- t.superblock_instrs + ss.Sched.List_sched.instr_count;
  t.superblock_mem_ops <- t.superblock_mem_ops + ss.Sched.List_sched.mem_ops;
  t.p_bits <- t.p_bits + ss.Sched.List_sched.p_bits;
  t.c_bits <- t.c_bits + ss.Sched.List_sched.c_bits;
  t.check_constraints <-
    t.check_constraints + ss.Sched.List_sched.check_constraints;
  t.anti_constraints <-
    t.anti_constraints + ss.Sched.List_sched.anti_constraints;
  t.amov_fresh <- t.amov_fresh + ss.Sched.List_sched.amov_fresh;
  t.amov_clear <- t.amov_clear + ss.Sched.List_sched.amov_clear;
  t.loads_eliminated <- t.loads_eliminated + s.Opt.Optimizer.loads_eliminated;
  t.stores_eliminated <-
    t.stores_eliminated + s.Opt.Optimizer.stores_eliminated;
  if s.Opt.Optimizer.fell_back then
    t.overflow_fallbacks <- t.overflow_fallbacks + 1;
  if ss.Sched.List_sched.used_nonspec_mode then
    t.nonspec_mode_regions <- t.nonspec_mode_regions + 1;
  t.dropped_edges <- t.dropped_edges + ss.Sched.List_sched.dropped_pairs;
  let cert_pairs = o.Opt.Optimizer.region.Ir.Region.certified_no_alias in
  t.certified_pairs <- t.certified_pairs + List.length cert_pairs;
  if cert_pairs <> [] then begin
    (* endpoints of certified pairs that finished the build without
       consuming any alias-detection resource — the per-region
       indicator of slots the certifier saved (the bench experiment
       measures the working-set delta directly) *)
    let endpoints = Hashtbl.create 16 in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace endpoints a ();
        Hashtbl.replace endpoints b ())
      cert_pairs;
    let consumes (i : Ir.Instr.t) =
      match Ir.Instr.annot i with
      | Ir.Annot.No_annot -> false
      | Ir.Annot.Queue { p; c; _ } -> p || c
      | Ir.Annot.Alat { advanced } -> advanced
      | Ir.Annot.Mask { set_index; check_mask } ->
        set_index <> None || check_mask <> 0
    in
    List.iter
      (fun (i : Ir.Instr.t) ->
        if Hashtbl.mem endpoints i.Ir.Instr.id && not (consumes i) then begin
          Hashtbl.remove endpoints i.Ir.Instr.id;
          t.alias_regs_saved <- t.alias_regs_saved + 1
        end)
      (Ir.Region.instrs o.Opt.Optimizer.region)
  end;
  t.working_set <- Sched.Working_set.add t.working_set ws

let note_reject t rules =
  t.rejected_regions <- t.rejected_regions + 1;
  List.iter
    (fun rule ->
      Hashtbl.replace t.reject_rules rule
        (1 + Option.value (Hashtbl.find_opt t.reject_rules rule) ~default:0))
    (List.sort_uniq compare rules)

let reject_histogram t =
  Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) t.reject_rules []
  |> List.sort compare

let note_tcache t (tel : Tcache.Telemetry.t) =
  t.tcache_hits <- t.tcache_hits + tel.Tcache.Telemetry.hits;
  t.tcache_misses <- t.tcache_misses + tel.Tcache.Telemetry.misses;
  t.tcache_evictions <- t.tcache_evictions + tel.Tcache.Telemetry.evictions;
  t.tcache_flushes <- t.tcache_flushes + tel.Tcache.Telemetry.flushes;
  t.tcache_invalidations <-
    t.tcache_invalidations + tel.Tcache.Telemetry.invalidations;
  t.tcache_chain_follows <-
    t.tcache_chain_follows + tel.Tcache.Telemetry.chain_follows;
  t.tcache_peak_resident <-
    max t.tcache_peak_resident tel.Tcache.Telemetry.peak_resident_instrs

let mem_ops_per_superblock t =
  if t.regions_built = 0 then 0.0
  else float_of_int t.superblock_mem_ops /. float_of_int t.regions_built

let constraints_per_mem_op t =
  if t.superblock_mem_ops = 0 then (0.0, 0.0)
  else
    ( float_of_int t.check_constraints /. float_of_int t.superblock_mem_ops,
      float_of_int t.anti_constraints /. float_of_int t.superblock_mem_ops )

let optimize_fraction t =
  if t.total_cycles = 0 then (0.0, 0.0)
  else
    ( float_of_int t.optimize_cycles /. float_of_int t.total_cycles,
      float_of_int t.schedule_cycles /. float_of_int t.total_cycles )

let pp ppf t =
  let f name v = Format.fprintf ppf "  %-26s %d@." name v in
  f "total cycles" t.total_cycles;
  f "  interpreted" t.interp_cycles;
  f "  in regions" t.region_cycles;
  f "  optimizing" t.optimize_cycles;
  f "instrs interpreted" t.instrs_interpreted;
  f "blocks dispatched" t.blocks_dispatched;
  f "region entries" t.region_entries;
  f "region commits" t.region_commits;
  f "side exits taken" t.side_exits_taken;
  f "rollbacks" t.rollbacks;
  f "  not assumed (FP)" t.rollbacks_not_assumed;
  f "reoptimizations" t.reoptimizations;
  f "  ops pinned" t.pinned_ops;
  if t.injected_faults > 0 || t.spurious_rollbacks > 0
     || t.degraded_regions > 0 then begin
    f "injected faults" t.injected_faults;
    f "  spurious rollbacks" t.spurious_rollbacks;
    f "  degraded regions" t.degraded_regions
  end;
  f "regions built" t.regions_built;
  if t.verified_regions > 0 || t.rejected_regions > 0 then begin
    f "regions verified" t.verified_regions;
    f "  rejected" t.rejected_regions;
    List.iter
      (fun (rule, n) -> Format.fprintf ppf "    %-24s %d@." rule n)
      (reject_histogram t)
  end;
  f "tcache hits" t.tcache_hits;
  f "tcache misses" t.tcache_misses;
  f "tcache evictions" t.tcache_evictions;
  f "tcache flushes" t.tcache_flushes;
  f "tcache chain follows" t.tcache_chain_follows;
  f "tcache peak resident" t.tcache_peak_resident;
  f "loads eliminated" t.loads_eliminated;
  f "stores eliminated" t.stores_eliminated;
  f "check constraints" t.check_constraints;
  f "anti constraints" t.anti_constraints;
  f "AMOVs (fresh/clear)" (t.amov_fresh + t.amov_clear);
  f "dropped edges" t.dropped_edges;
  if t.certified_pairs > 0 || t.certified_alias_faults > 0 then begin
    f "certified no-alias pairs" t.certified_pairs;
    f "  alias regs saved" t.alias_regs_saved;
    f "  CERT FAULTS" t.certified_alias_faults
  end;
  f "alias checks" t.alias_checks;
  Format.fprintf ppf "  %-26s %.2f@." "mem ops / superblock"
    (mem_ops_per_superblock t);
  if t.wall_seconds > 0.0 then
    Format.fprintf ppf "  %-26s %.3f s@." "host wall clock" t.wall_seconds;
  Sched.Profile.pp ppf t.translate
