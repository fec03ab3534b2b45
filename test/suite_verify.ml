(* The robustness layer: deterministic fault injection, the livelock
   watchdog's graceful degradation, structured fuel exhaustion, and the
   differential interpreter oracle. *)

open Helpers
module I = Ir.Instr

(* The suite_runtime colliding loop: a genuine periodic alias, so
   injected faults land on top of real recovery traffic. *)
let colliding_loop ~iters =
  let bld = Workload.Builder.create () in
  let a = r 1 and b = r 2 and idx = r 4 in
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (a, I.Imm 0x1000);
         I.Mov (b, I.Imm 0x2000);
         I.Mov (idx, I.Imm iters);
       ])
    ~next:"loop";
  let body =
    Workload.Builder.instrs bld
      [
        I.Binop (I.And, r 6, I.Reg idx, I.Imm 7);
        I.Binop (I.Mul, r 6, I.Reg (r 6), I.Imm 64);
        I.Binop (I.Add, r 7, I.Reg a, I.Reg (r 6));
        I.Load { dst = f 1; addr = { I.base = b; disp = 0 }; width = 8;
                 annot = Ir.Annot.none };
        I.Store { src = I.Reg (f 1); addr = { I.base = r 7; disp = 0 };
                  width = 8; annot = Ir.Annot.none };
        I.Load { dst = f 2; addr = { I.base = a; disp = 0 }; width = 8;
                 annot = Ir.Annot.none };
        I.Fbinop (I.Fadd, f 3, I.Reg (f 2), I.Reg (f 1));
        I.Store { src = I.Reg (f 3); addr = { I.base = b; disp = 8 };
                  width = 8; annot = Ir.Annot.none };
      ]
  in
  Workload.Builder.loop_back bld "loop" body ~counter:idx ~back_to:"loop"
    ~exit_to:"end" ~iters;
  Workload.Builder.add_block bld "end" [] Ir.Block.Halt;
  Workload.Builder.program bld ~entry:"init"

(* [colliding_loop] as a campaign benchmark *)
let colliding_bench ~iters =
  {
    Workload.Specfp.name = "colliding_loop";
    default_iters = iters;
    make = (fun ~iters -> colliding_loop ~iters);
    description = "a genuine periodic alias";
  }

let campaign ?(domains = 1) ~seeds ~rate ~iters () =
  Verify.Campaign.run ~domains
    { Verify.Campaign.seeds; rate; scale = 1 }
    [ colliding_bench ~iters ]

let entries (r : Verify.Campaign.result) =
  List.map (fun (c : Verify.Campaign.run) -> c.Verify.Campaign.entry)
    r.Verify.Campaign.runs

let test_prng_deterministic () =
  let a = Verify.Prng.create ~seed:42 in
  let b = Verify.Prng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Verify.Prng.next a)
      (Verify.Prng.next b)
  done;
  let c = Verify.Prng.create ~seed:43 in
  Alcotest.(check bool) "different seeds diverge" true
    (Verify.Prng.next a <> Verify.Prng.next c);
  let f = Verify.Prng.float a in
  Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0);
  let i = Verify.Prng.int a 7 in
  Alcotest.(check bool) "int in bound" true (i >= 0 && i < 7)

(* The acceptance property, as a fixed smoke here and as a QCheck
   property below: with fault injection at any seed, every scheme's
   final guest state equals the interpreter oracle's. *)
let check_campaign ?domains ~seed ~rate () =
  let result = campaign ?domains ~seeds:[ seed ] ~rate ~iters:120 () in
  if not (Verify.Campaign.ok result) then
    Alcotest.failf "campaign diverged (seed %d rate %.3f):@.%a" seed rate
      Verify.Campaign.pp_summary result;
  result

let test_oracle_no_faults () =
  let result = campaign ~seeds:[] ~rate:0.05 ~iters:200 () in
  Alcotest.(check bool) "all schemes match oracle" true
    (Verify.Campaign.ok result);
  Alcotest.(check int) "every scheme, certify off and on"
    (2 * List.length Verify.Campaign.schemes)
    (List.length result.Verify.Campaign.runs);
  List.iter
    (fun (e : Verify.Oracle.entry) ->
      Alcotest.(check int) "nothing injected" 0 e.Verify.Oracle.injected;
      Alcotest.(check int) "no spurious rollbacks" 0
        e.Verify.Oracle.stats.Runtime.Stats.spurious_rollbacks)
    (entries result)

let test_campaign_injects () =
  (* at a meaty rate the campaign must actually perturb the run, and
     the stats plumbing must see it *)
  let result = check_campaign ~seed:7 ~rate:0.4 () in
  let total_injected =
    List.fold_left
      (fun acc (e : Verify.Oracle.entry) -> acc + e.Verify.Oracle.injected)
      0 (entries result)
  in
  Alcotest.(check bool) "faults were injected" true (total_injected > 0);
  List.iter
    (fun (e : Verify.Oracle.entry) ->
      Alcotest.(check int) "injected flows into stats"
        e.Verify.Oracle.injected
        e.Verify.Oracle.stats.Runtime.Stats.injected_faults)
    (entries result)

let test_campaign_deterministic () =
  let stats_fingerprint r =
    List.map
      (fun (e : Verify.Oracle.entry) ->
        ( e.Verify.Oracle.scheme,
          e.Verify.Oracle.injected,
          e.Verify.Oracle.stats.Runtime.Stats.total_cycles,
          e.Verify.Oracle.stats.Runtime.Stats.rollbacks ))
      (entries r)
  in
  let a = check_campaign ~seed:11 ~rate:0.2 () in
  let b = check_campaign ~seed:11 ~rate:0.2 () in
  Alcotest.(check bool) "same seed, same campaign" true
    (stats_fingerprint a = stats_fingerprint b);
  let report r =
    List.map Verify.Campaign.json_line r.Verify.Campaign.runs
  in
  Alcotest.(check (list string)) "same report on two domains" (report a)
    (report (check_campaign ~domains:2 ~seed:11 ~rate:0.2 ()))

let qtest_campaign_converges =
  qcase ~count:12 "any (seed, rate): optimized state = oracle state"
    (QCheck.make
       ~print:(fun (seed, rate) -> Printf.sprintf "seed=%d rate=%.3f" seed rate)
       QCheck.Gen.(pair (int_bound 1_000_000) (float_range 0.0 0.35)))
    (fun (seed, rate) ->
      ignore (check_campaign ~seed ~rate ());
      true)

let test_storm_walks_the_ladder () =
  (* an endless violation storm on one hot region must climb every
     rung — known-alias, pin, give-up — and then be degraded by the
     watchdog instead of livelocking, still converging to the oracle *)
  let program = colliding_loop ~iters:300 in
  let oracle = Verify.Oracle.reference program in
  let plan = Verify.Fault.forced_storm ~seed:5 () in
  let r =
    Runtime.Driver.run
      ~config:
        {
          Runtime.Config.default with
          vliw = Some (Vliw.Config.with_alias_registers Vliw.Config.default 64);
          max_reopts = 5;
          watchdog = Some 9;
          fuel = 10_000_000;
        }
      ~hooks:(Verify.Fault.hooks plan)
      ~scheme:(Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64))
      program
  in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "completed" true
    (r.Runtime.Driver.outcome = Runtime.Driver.Completed);
  Alcotest.(check bool) "storm injected repeatedly" true
    (st.Runtime.Stats.injected_faults >= 10);
  Alcotest.(check bool) "pin rung reached (two distinct ops)" true
    (st.Runtime.Stats.pinned_ops >= 2);
  Alcotest.(check int) "give-up rung reached exactly once" 1
    st.Runtime.Stats.gave_up_regions;
  Alcotest.(check int) "watchdog degraded the region" 1
    st.Runtime.Stats.degraded_regions;
  Alcotest.(check bool) "no livelock: bounded rollbacks" true
    (st.Runtime.Stats.rollbacks <= 12);
  Alcotest.(check int) "every rollback was injected"
    st.Runtime.Stats.rollbacks st.Runtime.Stats.spurious_rollbacks;
  Alcotest.(check bool) "state equals oracle despite the storm" true
    (Vliw.Machine.equal_guest_state oracle r.Runtime.Driver.machine)

let test_degraded_region_stays_interpreted () =
  let program = colliding_loop ~iters:300 in
  let plan = Verify.Fault.forced_storm ~seed:5 () in
  let r =
    Runtime.Driver.run
      ~config:
        {
          Runtime.Config.default with
          vliw = Some (Vliw.Config.with_alias_registers Vliw.Config.default 64);
          max_reopts = 5;
          watchdog = Some 9;
          fuel = 10_000_000;
        }
      ~hooks:(Verify.Fault.hooks plan)
      ~scheme:(Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64))
      program
  in
  let st = r.Runtime.Driver.stats in
  (* after degradation the loop runs interpreted: region entries stop
     at the watchdog bound while interpreted instructions dominate *)
  Alcotest.(check bool) "region entries bounded by the watchdog" true
    (st.Runtime.Stats.region_entries <= 12);
  Alcotest.(check bool) "the loop ran interpreted afterwards" true
    (st.Runtime.Stats.instrs_interpreted > 2000)

let test_tcache_faults_survivable () =
  (* a campaign heavy enough that translation-cache invalidations and
     flushes actually happen, and the system still converges *)
  let program = colliding_loop ~iters:250 in
  let oracle = Verify.Oracle.reference program in
  let plan = Verify.Fault.plan ~seed:3 ~rate:0.6 () in
  let r, _injected =
    Verify.Oracle.run_scheme ~fault:plan ~scheme:(Smarq.Scheme.Smarq 64)
      program
  in
  let c = Verify.Fault.counters plan in
  Alcotest.(check bool) "tcache faults delivered" true
    (c.Verify.Fault.tcache_invalidate + c.Verify.Fault.tcache_flush > 0);
  Alcotest.(check bool) "completed" true
    (r.Runtime.Driver.outcome = Runtime.Driver.Completed);
  Alcotest.(check bool) "state equals oracle" true
    (Vliw.Machine.equal_guest_state oracle r.Runtime.Driver.machine)

let test_fuel_exhaustion_structured () =
  let program = colliding_loop ~iters:100_000 in
  let r =
    Runtime.Driver.run
      ~config:
        {
          Runtime.Config.default with
          vliw = Some (Vliw.Config.with_alias_registers Vliw.Config.default 64);
          fuel = 500;
        }
      ~scheme:(Smarq.Scheme.to_driver (Smarq.Scheme.Smarq 64))
      program
  in
  Alcotest.(check bool) "fuel exhaustion is an outcome, not an exception"
    true
    (r.Runtime.Driver.outcome = Runtime.Driver.Fuel_exhausted);
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "partial stats survive" true
    (st.Runtime.Stats.total_cycles > 0
    && st.Runtime.Stats.instrs_interpreted > 0);
  Alcotest.(check bool) "wall clock set on the fuel path" true
    (st.Runtime.Stats.wall_seconds >= 0.0
    && st.Runtime.Stats.wall_seconds < 60.0)

let test_campaign_runner () =
  let seeds = [ 1; 2 ] in
  let runs =
    (campaign ~seeds ~rate:0.1 ~iters:150 ()).Verify.Campaign.runs
  in
  Alcotest.(check int) "(fault-free + seeds) x schemes x certify runs"
    ((1 + List.length seeds) * List.length Verify.Campaign.schemes * 2)
    (List.length runs);
  List.iter
    (fun (c : Verify.Campaign.run) ->
      if not (Verify.Campaign.run_ok c) then
        Alcotest.failf "campaign cell failed: %a" Verify.Oracle.pp_entry
          c.Verify.Campaign.entry;
      let line = Verify.Campaign.json_line c in
      Alcotest.(check bool) "json line shape" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}'))
    runs

let suite =
  ( "verify",
    [
      case "prng is seed-deterministic" test_prng_deterministic;
      case "oracle: all schemes match without faults" test_oracle_no_faults;
      case "fault campaign injects and counts" test_campaign_injects;
      case "fault campaign is seed-deterministic" test_campaign_deterministic;
      qtest_campaign_converges;
      case "violation storm walks known-alias -> pin -> give-up -> degrade"
        test_storm_walks_the_ladder;
      case "degraded region stays interpreter-only"
        test_degraded_region_stays_interpreted;
      case "tcache invalidation/flush faults are survivable"
        test_tcache_faults_survivable;
      case "fuel exhaustion returns a structured outcome"
        test_fuel_exhaustion_structured;
      case "campaign runner emits one ok JSON line per cell"
        test_campaign_runner;
    ] )
