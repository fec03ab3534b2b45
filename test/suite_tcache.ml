(* The translation cache subsystem: per-policy eviction order, region
   chaining and unchaining, capacity accounting, telemetry, and the
   behavior-preservation guarantee of the default Unbounded policy. *)

open Helpers
module I = Ir.Instr
module P = Smarq.Tcache.Policy
module S = Smarq.Tcache.Store
module T = Smarq.Tcache.Telemetry

let mk ?capacity policy : int S.t = S.create ?capacity ~policy ()

(* value = size, so stores can be cross-checked against accounting *)
let ins c key size = S.insert c key ~size size

let test_lru_eviction_order () =
  let c = mk ~capacity:30 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  ins c "c" 10;
  ignore (S.find c "a");
  (* b is now least recently used *)
  ins c "d" 10;
  Alcotest.(check bool) "b evicted" false (S.mem c "b");
  Alcotest.(check bool) "a kept (recently used)" true (S.mem c "a");
  Alcotest.(check bool) "c kept" true (S.mem c "c");
  Alcotest.(check bool) "d resident" true (S.mem c "d");
  Alcotest.(check int) "one eviction" 1 (S.telemetry c).T.evictions

let test_fifo_eviction_order () =
  let c = mk ~capacity:30 P.Fifo in
  ins c "a" 10;
  ins c "b" 10;
  ins c "c" 10;
  ignore (S.find c "a");
  (* the touch is irrelevant to FIFO: a is still oldest *)
  ins c "d" 10;
  Alcotest.(check bool) "a evicted despite touch" false (S.mem c "a");
  Alcotest.(check bool) "b kept" true (S.mem c "b")

let test_flush_all_policy () =
  let c = mk ~capacity:30 P.Flush_all in
  ins c "a" 10;
  ins c "b" 10;
  ins c "c" 10;
  ins c "d" 10;
  Alcotest.(check int) "only the new entry survives" 1 (S.length c);
  Alcotest.(check bool) "d resident" true (S.mem c "d");
  Alcotest.(check int) "one flush" 1 (S.telemetry c).T.flushes;
  Alcotest.(check int) "no per-entry evictions" 0 (S.telemetry c).T.evictions

let test_unbounded_never_evicts () =
  let c = mk P.Unbounded in
  for i = 0 to 99 do
    ins c (Printf.sprintf "r%d" i) 50
  done;
  Alcotest.(check int) "all resident" 100 (S.length c);
  Alcotest.(check int) "no evictions" 0 (S.telemetry c).T.evictions;
  Alcotest.(check int) "resident accounted" 5000 (S.resident_instrs c)

let test_capacity_accounting () =
  let c = mk ~capacity:25 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  Alcotest.(check int) "resident" 20 (S.resident_instrs c);
  (* replacing a label swaps sizes, not adds *)
  ins c "a" 5;
  Alcotest.(check int) "replace re-accounts" 15 (S.resident_instrs c);
  Alcotest.(check int) "peak tracked" 20
    (S.telemetry c).T.peak_resident_instrs;
  (* a region larger than the whole cache is rejected *)
  ins c "huge" 26;
  Alcotest.(check bool) "oversized rejected" false (S.mem c "huge");
  Alcotest.(check int) "rejection counted" 1 (S.telemetry c).T.rejections;
  Alcotest.(check bool) "others undisturbed" true (S.mem c "a" && S.mem c "b")

let test_hit_miss_telemetry () =
  let c = mk ~capacity:100 P.Lru in
  ins c "a" 10;
  ignore (S.find c "a");
  ignore (S.find c "a");
  ignore (S.find c "nope");
  let t = S.telemetry c in
  Alcotest.(check int) "hits" 2 t.T.hits;
  Alcotest.(check int) "misses" 1 t.T.misses;
  Alcotest.(check int) "insertions" 1 t.T.insertions

let test_chain_follow () =
  let c = mk ~capacity:100 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  Alcotest.(check (option int)) "no link yet" None (S.follow c ~from:"a" ~exit:"b");
  S.chain c ~from:"a" ~exit:"b";
  Alcotest.(check (option int)) "link followed" (Some 10)
    (S.follow c ~from:"a" ~exit:"b");
  (* chaining to an absent label is a no-op *)
  S.chain c ~from:"a" ~exit:"ghost";
  Alcotest.(check (option int)) "absent target" None
    (S.follow c ~from:"a" ~exit:"ghost");
  Alcotest.(check int) "installs counted" 1
    (S.telemetry c).T.chains_installed;
  Alcotest.(check int) "follows counted" 1 (S.telemetry c).T.chain_follows

let test_unchain_on_eviction () =
  let c = mk ~capacity:30 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  S.chain c ~from:"a" ~exit:"b";
  ignore (S.find c "b");
  ignore (S.find c "a");
  (* b is the LRU victim; the chain a -> b must die with it *)
  ins c "d" 15;
  Alcotest.(check bool) "b evicted" false (S.mem c "b");
  Alcotest.(check (option int)) "stale chain broken" None
    (S.follow c ~from:"a" ~exit:"b");
  Alcotest.(check bool) "breaks counted" true
    ((S.telemetry c).T.chains_broken >= 1)

let test_unchain_on_invalidation () =
  let c = mk ~capacity:100 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  S.chain c ~from:"a" ~exit:"b";
  S.chain c ~from:"b" ~exit:"a";
  S.invalidate c "b";
  Alcotest.(check (option int)) "into invalidated" None
    (S.follow c ~from:"a" ~exit:"b");
  Alcotest.(check (option int)) "out of invalidated" None
    (S.follow c ~from:"b" ~exit:"a");
  Alcotest.(check int) "invalidation counted" 1
    (S.telemetry c).T.invalidations;
  (* invalidating an absent label is a no-op *)
  S.invalidate c "ghost";
  Alcotest.(check int) "no-op invalidation" 1 (S.telemetry c).T.invalidations

let test_replace_rechains () =
  let c = mk ~capacity:100 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  S.chain c ~from:"a" ~exit:"b";
  S.chain c ~from:"b" ~exit:"a";
  (* re-optimization rewrites b in place *)
  S.replace c "b" ~size:20;
  Alcotest.(check (option int)) "chains into b survive" (Some 10)
    (S.follow c ~from:"a" ~exit:"b");
  Alcotest.(check (option int)) "chains out of b rebuilt" None
    (S.follow c ~from:"b" ~exit:"a");
  Alcotest.(check int) "size re-accounted" 30 (S.resident_instrs c);
  (* replacing an absent label is a no-op *)
  S.replace c "ghost" ~size:5;
  Alcotest.(check int) "no phantom entries" 2 (S.length c)

let test_flush_clears_everything () =
  let c = mk ~capacity:100 P.Lru in
  ins c "a" 10;
  ins c "b" 10;
  S.chain c ~from:"a" ~exit:"b";
  S.flush c;
  Alcotest.(check int) "empty" 0 (S.length c);
  Alcotest.(check int) "no resident instrs" 0 (S.resident_instrs c);
  Alcotest.(check (option int)) "chains gone" None
    (S.follow c ~from:"a" ~exit:"b");
  Alcotest.(check int) "flush counted" 1 (S.telemetry c).T.flushes

let test_self_chain () =
  (* a self-loop region exits to its own entry — the hottest chain of
     all; it must survive follows and die on invalidation *)
  let c = mk ~capacity:100 P.Lru in
  ins c "loop" 10;
  S.chain c ~from:"loop" ~exit:"loop";
  Alcotest.(check (option int)) "self link" (Some 10)
    (S.follow c ~from:"loop" ~exit:"loop");
  S.invalidate c "loop";
  Alcotest.(check (option int)) "gone" None
    (S.follow c ~from:"loop" ~exit:"loop")

let test_policy_parsing () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (P.to_string p) true
        (P.of_string (P.to_string p) = Ok p))
    P.all;
  Alcotest.(check bool) "flush alias" true (P.of_string "flush" = Ok P.Flush_all);
  Alcotest.(check bool) "unknown policy" true
    (P.of_string "bogus" = Error "unknown tcache policy \"bogus\"")

(* ---- driver-level: the Unbounded default is behavior-preserving ----

   Reference cycle counts recorded from the seed driver (raw Hashtbl
   cache, commit 05cd55a) at scale 1: the subsystem must reproduce them
   exactly, per benchmark, per scheme. *)

let seed_reference =
  (* benchmark, scheme, total_cycles, region_entries, rollbacks *)
  [
    ("wupwise", Smarq.Scheme.Smarq 64, 566972, 650, 0);
    ("wupwise", Smarq.Scheme.Alat, 799334, 652, 2);
    ("wupwise", Smarq.Scheme.None_, 604022, 650, 0);
    ("swim", Smarq.Scheme.Smarq 64, 797872, 650, 0);
    ("swim", Smarq.Scheme.Alat, 1344740, 654, 4);
    ("swim", Smarq.Scheme.None_, 840122, 650, 0);
    ("mgrid", Smarq.Scheme.Smarq 64, 594272, 650, 0);
    ("mgrid", Smarq.Scheme.Alat, 594272, 650, 0);
    ("mgrid", Smarq.Scheme.None_, 615072, 650, 0);
    ("applu", Smarq.Scheme.Smarq 64, 1161422, 650, 0);
    ("applu", Smarq.Scheme.Alat, 1506220, 652, 2);
    ("applu", Smarq.Scheme.None_, 1229672, 650, 0);
    ("mesa", Smarq.Scheme.Smarq 64, 313272, 650, 0);
    ("mesa", Smarq.Scheme.Alat, 457178, 652, 2);
    ("mesa", Smarq.Scheme.None_, 370472, 650, 0);
    ("art", Smarq.Scheme.Smarq 64, 627548, 651, 1);
    ("art", Smarq.Scheme.Alat, 627548, 651, 1);
    ("art", Smarq.Scheme.None_, 544716, 650, 0);
    ("equake", Smarq.Scheme.Smarq 64, 613096, 651, 1);
    ("equake", Smarq.Scheme.Alat, 510566, 650, 0);
    ("equake", Smarq.Scheme.None_, 532666, 650, 0);
    ("ammp", Smarq.Scheme.Smarq 64, 1305098, 651, 1);
    ("ammp", Smarq.Scheme.Alat, 1181872, 650, 0);
    ("ammp", Smarq.Scheme.None_, 1281322, 650, 0);
    ("apsi", Smarq.Scheme.Smarq 64, 789472, 650, 0);
    ("apsi", Smarq.Scheme.Alat, 1069350, 652, 2);
    ("apsi", Smarq.Scheme.None_, 837572, 650, 0);
    ("sixtrack", Smarq.Scheme.Smarq 64, 561422, 650, 0);
    ("sixtrack", Smarq.Scheme.Alat, 561422, 650, 0);
    ("sixtrack", Smarq.Scheme.None_, 572472, 650, 0);
  ]

let test_unbounded_matches_seed () =
  List.iter
    (fun (bench, scheme, cycles, entries, rollbacks) ->
      let program =
        Workload.Specfp.program ~scale:1 (Workload.Specfp.find bench)
      in
      let r =
        Smarq.run_program
          ~config:{ Runtime.Config.default with fuel = 1_000_000_000 }
          ~scheme program
      in
      let st = r.Runtime.Driver.stats in
      let tag field =
        Printf.sprintf "%s/%s %s" bench (Smarq.Scheme.name scheme) field
      in
      Alcotest.(check int) (tag "cycles") cycles st.Runtime.Stats.total_cycles;
      Alcotest.(check int) (tag "entries") entries
        st.Runtime.Stats.region_entries;
      Alcotest.(check int) (tag "rollbacks") rollbacks
        st.Runtime.Stats.rollbacks)
    seed_reference

(* ---- driver-level: bounded cache under region pressure ---- *)

let pressure_program ~loops ~inner ~outer =
  let bld = Workload.Builder.create () in
  let a = r 1 and b = r 2 and idx = r 4 and outer_c = r 10 in
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (a, I.Imm 0x10000);
         I.Mov (b, I.Imm 0x20000);
         I.Mov (outer_c, I.Imm outer);
       ])
    ~next:"setup_0";
  for k = 0 to loops - 1 do
    let setup = Printf.sprintf "setup_%d" k in
    let loop = Printf.sprintf "loop_%d" k in
    let next =
      if k = loops - 1 then "outer_latch" else Printf.sprintf "setup_%d" (k + 1)
    in
    Workload.Builder.straight bld setup
      (Workload.Builder.instrs bld [ I.Mov (idx, I.Imm inner) ])
      ~next:loop;
    let disp = k * 64 in
    let body =
      Workload.Builder.instrs bld
        [
          I.Load
            { dst = f 1; addr = { I.base = a; disp }; width = 8;
              annot = Ir.Annot.none };
          I.Load
            { dst = f 2; addr = { I.base = b; disp }; width = 8;
              annot = Ir.Annot.none };
          I.Fbinop (I.Fadd, f 3, I.Reg (f 1), I.Reg (f 2));
          I.Store
            { src = I.Reg (f 3); addr = { I.base = a; disp = disp + 8 };
              width = 8; annot = Ir.Annot.none };
        ]
    in
    Workload.Builder.loop_back bld loop body ~counter:idx ~back_to:loop
      ~exit_to:next ~iters:inner
  done;
  Workload.Builder.loop_back bld "outer_latch" [] ~counter:outer_c
    ~back_to:"setup_0" ~exit_to:"done" ~iters:outer;
  Workload.Builder.add_block bld "done" [] Ir.Block.Halt;
  Workload.Builder.program bld ~entry:"init"

let test_bounded_pressure_correct () =
  let program = pressure_program ~loops:6 ~inner:70 ~outer:12 in
  let reference = Vliw.Machine.create () in
  ignore (interp_run ~fuel:50_000_000 reference program);
  (* size the cache off the unbounded footprint: half of it forces
     evictions while any single region still fits *)
  let unbounded =
    Smarq.run_program
      ~config:{ Runtime.Config.default with fuel = 50_000_000 }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  Alcotest.(check bool) "unbounded equivalent" true
    (Vliw.Machine.equal_guest_state reference unbounded.Runtime.Driver.machine);
  let full = unbounded.Runtime.Driver.stats.Runtime.Stats.tcache_peak_resident in
  let capacity = max 1 (full / 2) in
  List.iter
    (fun policy ->
      let r =
        Smarq.run_program
          ~config:
            {
              Runtime.Config.default with
              fuel = 50_000_000;
              tcache_policy = policy;
              tcache_capacity = Some capacity;
            }
          ~scheme:(Smarq.Scheme.Smarq 64) program
      in
      let st = r.Runtime.Driver.stats in
      let tag field =
        Printf.sprintf "%s %s" (Smarq.Tcache.Policy.to_string policy) field
      in
      Alcotest.(check bool) (tag "equivalent") true
        (Vliw.Machine.equal_guest_state reference r.Runtime.Driver.machine);
      Alcotest.(check bool) (tag "capacity bound holds") true
        (st.Runtime.Stats.tcache_peak_resident <= capacity);
      Alcotest.(check bool) (tag "pressure causes turnover") true
        (st.Runtime.Stats.tcache_evictions > 0
        || st.Runtime.Stats.tcache_flushes > 0);
      Alcotest.(check bool) (tag "chains followed") true
        (st.Runtime.Stats.tcache_chain_follows > 0);
      Alcotest.(check bool) (tag "re-translation happened") true
        (st.Runtime.Stats.regions_built
        > unbounded.Runtime.Driver.stats.Runtime.Stats.regions_built))
    [ Smarq.Tcache.Policy.Lru; Smarq.Tcache.Policy.Fifo;
      Smarq.Tcache.Policy.Flush_all ]

let test_chain_follows_on_hot_loop () =
  (* a single hot self-loop: after the region is built, every loop-back
     dispatch should follow the self-chain instead of looking up *)
  let program = pressure_program ~loops:1 ~inner:400 ~outer:1 in
  let r =
    Smarq.run_program
      ~config:{ Runtime.Config.default with fuel = 50_000_000 }
      ~scheme:(Smarq.Scheme.Smarq 64) program
  in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "most region dispatches chained" true
    (st.Runtime.Stats.tcache_chain_follows
    > st.Runtime.Stats.region_entries / 2)

let suite =
  ( "tcache",
    [
      case "LRU evicts least recently dispatched" test_lru_eviction_order;
      case "FIFO ignores recency" test_fifo_eviction_order;
      case "flush-all drops everything on overflow" test_flush_all_policy;
      case "unbounded never evicts" test_unbounded_never_evicts;
      case "capacity accounting and rejection" test_capacity_accounting;
      case "hit/miss telemetry" test_hit_miss_telemetry;
      case "chain install and follow" test_chain_follow;
      case "eviction breaks chains" test_unchain_on_eviction;
      case "invalidation breaks chains" test_unchain_on_invalidation;
      case "re-optimization keeps incoming chains only"
        test_replace_rechains;
      case "flush clears entries and chains" test_flush_clears_everything;
      case "self-loop chains" test_self_chain;
      case "policy parsing roundtrip" test_policy_parsing;
      case "unbounded reproduces seed cycle counts"
        test_unbounded_matches_seed;
      case "bounded cache: correct under pressure, all policies"
        test_bounded_pressure_correct;
      case "hot loop dispatches through chains"
        test_chain_follows_on_hot_loop;
    ] )
