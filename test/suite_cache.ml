(* The optional cache hierarchy: hit/miss behaviour, LRU, and the
   robustness claim that enabling it preserves the scheme ordering. *)

open Helpers
module C = Vliw.Cache

let tiny_config =
  C.
    {
      l1 = { size_bytes = 256; line_bytes = 64; ways = 2; hit_latency = 0 };
      l2 = { size_bytes = 1024; line_bytes = 64; ways = 2; hit_latency = 5 };
      memory_latency = 50;
    }

let test_first_access_misses () =
  let c = C.create tiny_config in
  Alcotest.(check int) "cold miss pays memory" 50 (C.access c ~addr:0);
  Alcotest.(check int) "second access hits L1" 0 (C.access c ~addr:8);
  let st = C.stats c in
  Alcotest.(check int) "two accesses" 2 st.C.accesses;
  Alcotest.(check int) "one L1 miss" 1 st.C.l1_misses;
  Alcotest.(check int) "one L2 miss" 1 st.C.l2_misses

let test_l2_catches_l1_eviction () =
  let c = C.create tiny_config in
  (* L1 has 256/64/2 = 2 sets x 2 ways; lines 0, 2, 4 map to set 0 and
     evict line 0 from L1; L2 (8 lines, 2-way, 4 sets... lines 0,2,4
     map to L2 sets 0,2,0) still holds it *)
  ignore (C.access c ~addr:0);
  ignore (C.access c ~addr:(2 * 64));
  ignore (C.access c ~addr:(4 * 64));
  let penalty = C.access c ~addr:0 in
  Alcotest.(check int) "L2 hit after L1 eviction" 5 penalty

let test_lru_order () =
  let c = C.create tiny_config in
  ignore (C.access c ~addr:0);
  ignore (C.access c ~addr:(2 * 64));
  (* touch line 0 again: it becomes most-recent, so the next conflict
     evicts line 2 instead *)
  ignore (C.access c ~addr:0);
  ignore (C.access c ~addr:(4 * 64));
  Alcotest.(check int) "line 0 survived (L1 hit)" 0 (C.access c ~addr:0)

let test_reset_stats () =
  let c = C.create tiny_config in
  ignore (C.access c ~addr:0);
  C.reset_stats c;
  let st = C.stats c in
  Alcotest.(check int) "cleared" 0 st.C.accesses

let test_bad_line_size () =
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Cache: line size must be a power of two") (fun () ->
      ignore
        (C.create
           C.
             {
               tiny_config with
               l1 = { tiny_config.l1 with line_bytes = 48 };
             }))

let test_equivalence_with_cache () =
  (* enabling the hierarchy changes timing only, never results *)
  let config =
    Vliw.Config.with_cache Vliw.Config.default (Some C.default_config)
  in
  let b = Workload.Specfp.find "wupwise" in
  let program = Workload.Specfp.program b in
  let ref_m = Vliw.Machine.create () in
  ignore (interp_run ~fuel:50_000_000 ref_m program);
  let r =
    Smarq.run_program
      ~config:{ Runtime.Config.default with vliw = Some config; fuel = 50_000_000 }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  Alcotest.(check bool) "state unchanged by cache" true
    (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)

let test_cache_slows_execution () =
  let b = Workload.Specfp.find "swim" in
  let program = Workload.Specfp.program b in
  let flat =
    Smarq.run_program
      ~config:{ Runtime.Config.default with fuel = 50_000_000 }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  let cached =
    Smarq.run_program
      ~config:
        {
          Runtime.Config.default with
          vliw =
            Some
              (Vliw.Config.with_alias_registers
                 (Vliw.Config.with_cache Vliw.Config.default
                    (Some C.default_config))
                 64);
          fuel = 50_000_000;
        }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  Alcotest.(check bool) "miss stalls cost cycles" true
    (cached.Runtime.Driver.stats.Runtime.Stats.total_cycles
    > flat.Runtime.Driver.stats.Runtime.Stats.total_cycles)

let test_ordering_survives_cache () =
  let config =
    Vliw.Config.with_cache Vliw.Config.default (Some C.default_config)
  in
  let b = Workload.Specfp.find "wupwise" in
  let program = Workload.Specfp.program ~scale:3 b in
  let cycles scheme =
    (Smarq.run_program
       ~config:{ Runtime.Config.default with vliw = Some config; fuel = 100_000_000 }
       ~scheme program)
      .Runtime.Driver.stats.Runtime.Stats.total_cycles
  in
  let smarq = cycles (Smarq.Scheme.Smarq 64) in
  let none = cycles Smarq.Scheme.None_ in
  Alcotest.(check bool) "smarq still wins under misses" true (smarq < none)

let suite =
  ( "cache",
    [
      case "cold miss, warm hit" test_first_access_misses;
      case "L2 catches L1 evictions" test_l2_catches_l1_eviction;
      case "LRU replacement" test_lru_order;
      case "stats reset" test_reset_stats;
      case "line size validation" test_bad_line_size;
      case "results unchanged by the hierarchy" test_equivalence_with_cache;
      case "misses cost cycles" test_cache_slows_execution;
      case "scheme ordering survives misses" test_ordering_survives_cache;
    ] )
