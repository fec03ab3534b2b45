(* What the three workloads share: the shape of a workload, the
   correctness checks, and the readers of the library's public
   counters. *)

type outcome = {
  latency_s : float;
  ok : bool;  (** completed, and its output passed the workload's check *)
}

type pass = {
  outcomes : outcome list;
  sim_cycles : int;  (** simulated cycles of the pass: exact *)
}

type instance = {
  inputs : string;  (** digest of the generated inputs *)
  worker_domains : int;  (** domains the workload runs besides the caller *)
  run_pass : Probe.t option -> pass;
  shutdown : unit -> unit;  (** joins every domain the instance started *)
}

type workload = {
  name : string;
  setup : seed:int -> tiny:bool -> instance;
      (** builds the inputs, the reference results and the warm-up;
          raises [Incorrect] when a warm-up output is wrong *)
}

exception Incorrect of string

let now = Unix.gettimeofday

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Fisher-Yates on a copy, driven by the seeded splitmix stream. *)
let shuffle prng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Verify.Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The run reached halt and its final guest state is the interpreter's. *)
let matches_reference (r : Runtime.Driver.result) reference =
  r.Runtime.Driver.outcome = Runtime.Driver.Completed
  && Vliw.Machine.equal_guest_state r.Runtime.Driver.machine reference

(* The only reader of [Sched.Profile] fields: per-phase translation
   seconds under the benchmark's metric names. *)
let profile_phases (p : Sched.Profile.t) =
  Sched.Profile.
    [
      ("opt.alias_s", p.alias_s);
      ("analysis.depgraph_s", p.depgraph_s);
      ("sched.hazards_s", p.hazards_s);
      ("sched.alloc_s", p.alloc_s);
      ("sched.list_sched_s", p.sched_s);
      ("opt.emit_s", p.emit_s);
    ]

let profile_seconds p =
  List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (profile_phases p)

(* Fold one driver run's public statistics into the per-layer sums. *)
let note_stats probe (s : Runtime.Stats.t) =
  let c = Probe.count probe in
  Runtime.Stats.(
    c "runtime.blocks_dispatched" s.blocks_dispatched;
    c "frontend.instrs_interpreted" s.instrs_interpreted;
    c "vliw.region_entries" s.region_entries;
    c "vliw.region_commits" s.region_commits;
    c "vliw.rollbacks" s.rollbacks;
    c "hw.alias_checks" s.alias_checks;
    c "tcache.hits" s.tcache_hits;
    c "tcache.misses" s.tcache_misses;
    c "tcache.chain_follows" s.tcache_chain_follows;
    c "tcache.invalidations" s.tcache_invalidations;
    c "sim.interp_cycles" s.interp_cycles;
    c "sim.region_cycles" s.region_cycles;
    c "sim.optimize_cycles" s.optimize_cycles;
    c "opt.regions" s.regions_built;
    c "opt.fallbacks" s.overflow_fallbacks;
    c "analysis.certified_pairs" s.certified_pairs;
    c "sched.dropped_edges" s.dropped_edges;
    c "runtime.reoptimizations" s.reoptimizations;
    c "runtime.degraded_regions" s.degraded_regions;
    c "verify.injected_faults" s.injected_faults;
    Probe.add probe "opt.translate_s" (profile_seconds s.translate))

type gc_delta = {
  minor_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

(* The per-layer metrics of a traced run, as (name, unit, value).  Sums
   are divided by [passes], so every figure is per pass; a layer a
   workload does not reach reads 0. *)
let layer_metrics probe ~passes ~(gc : gc_delta) ~overhead_s =
  let sum = Probe.sum probe in
  let per x = x /. float_of_int passes in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let driver = sum "runtime.driver_s" and blocks = sum "runtime.blocks_dispatched" in
  let hits = sum "tcache.hits" and chains = sum "tcache.chain_follows" in
  let phases =
    List.map
      (fun (name, _) -> (name, "s", per (sum name)))
      (profile_phases (Sched.Profile.create ()))
  in
  let phased = List.fold_left (fun acc (_, _, v) -> acc +. v) 0.0 phases in
  let counts names = List.map (fun n -> (n, "count", per (sum n))) names in
  let cycles names = List.map (fun n -> (n, "cycles", per (sum n))) names in
  List.concat
    [
      [
        ("runtime.driver_s", "s", per driver);
        ("runtime.exec_s", "s", per (driver -. sum "opt.translate_s"));
      ];
      counts [ "runtime.blocks_dispatched" ];
      [ ("runtime.ns_per_block", "ns", ratio (driver *. 1e9) blocks) ];
      counts [ "frontend.instrs_interpreted"; "vliw.region_entries" ];
      [
        ( "vliw.commit_ratio",
          "ratio",
          ratio (sum "vliw.region_commits") (sum "vliw.region_entries") );
      ];
      counts [ "vliw.rollbacks"; "hw.alias_checks" ];
      [ ("tcache.chain_ratio", "ratio", ratio chains (hits +. chains)) ];
      counts [ "tcache.misses" ];
      [ ("opt.translate_s", "s", per (sum "opt.translate_s")) ];
      cycles [ "sim.interp_cycles"; "sim.region_cycles"; "sim.optimize_cycles" ];
      [
        ("gc.minor_collections", "count", per (float_of_int gc.minor_collections));
        ("gc.major_collections", "count", per (float_of_int gc.major_collections));
        ("gc.words_per_block", "words", ratio gc.minor_words blocks);
        ("opt.run_request_s", "s", per (sum "opt.run_request_s"));
      ];
      phases;
      [
        ("opt.unphased_s", "s", per (sum "opt.run_request_s") -. phased);
        ( "opt.fallback_ratio",
          "ratio",
          ratio (sum "opt.fallbacks") (sum "opt.regions") );
      ];
      counts
        [ "analysis.certified_pairs"; "sched.dropped_edges"; "sched.bundles" ];
      [ ("check.verify_s", "s", per (sum "check.verify_s")) ];
      counts [ "check.rejects" ];
      [
        ("serve.queue_wait_s.p50", "s", Probe.percentile probe "serve.queue_wait_s" 0.5);
        ("serve.queue_wait_s.p95", "s", Probe.percentile probe "serve.queue_wait_s" 0.95);
        ("serve.service_s.p50", "s", Probe.percentile probe "serve.service_s" 0.5);
        ("serve.translate_s", "s", per (sum "serve.translate_s"));
        ("serve.execute_s", "s", per (sum "serve.execute_s"));
      ];
      counts [ "serve.rejected" ];
      [
        ( "tcache.hit_ratio",
          "ratio",
          ratio hits (hits +. sum "tcache.misses") );
      ];
      counts
        [
          "tcache.invalidations";
          "verify.injected_faults";
          "runtime.reoptimizations";
          "runtime.degraded_regions";
        ];
      [
        ("trace.overhead_s", "s", overhead_s);
        ("trace.passes", "count", float_of_int passes);
      ];
    ]
