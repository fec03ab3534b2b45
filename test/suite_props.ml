(* Property-based tests (QCheck): the paper's core guarantees checked
   over random superblocks and programs.

   - Soundness + end-to-end equivalence: speculate, detect, roll back,
     re-optimize until commit; the final state must equal the reference
     interpreter's, under every scheme.
   - Precision: when none of the region's speculation assumptions
     actually alias at runtime, the queue detector must stay silent.
   - Allocation validity: every allocation satisfies the
     REGISTER-ALLOCATION-RULE and the window discipline.
   - Scheduler validity: hard dependences and exit fences hold for
     every schedule. *)

open Helpers
module I = Ir.Instr
module C = Analysis.Constraints

let params_gen =
  QCheck.Gen.(
    let* n_instrs = int_range 10 80 in
    let* mem_fraction = float_range 0.2 0.75 in
    let* store_fraction = float_range 0.2 0.65 in
    let* n_bases = int_range 2 6 in
    let* collide_fraction = float_range 0.0 0.4 in
    let* exits = opt (int_range 8 20) in
    return
      Workload.Genprog.
        {
          n_instrs;
          mem_fraction;
          store_fraction;
          n_bases;
          collide_fraction;
          side_exit_every = exits;
        })

let sb_arb =
  QCheck.make
    ~print:(fun (seed, p) ->
      Printf.sprintf "seed=%d n=%d mem=%.2f st=%.2f bases=%d collide=%.2f"
        seed p.Workload.Genprog.n_instrs p.Workload.Genprog.mem_fraction
        p.Workload.Genprog.store_fraction p.Workload.Genprog.n_bases
        p.Workload.Genprog.collide_fraction)
    QCheck.Gen.(pair (int_bound 1_000_000) params_gen)

let make_sb (seed, params) =
  let sb, bases = Workload.Genprog.superblock ~seed ~params in
  let init = Workload.Genprog.setup_machine_regs ~params ~bases in
  (sb, init)

let policies =
  [
    (fun () ->
      ( Sched.Policy.smarq ~ar_count:64,
        Hw.Queue.detector (Hw.Queue.create ~size:64) ));
    (fun () ->
      ( Sched.Policy.smarq ~ar_count:16,
        Hw.Queue.detector (Hw.Queue.create ~size:16) ));
    (fun () ->
      ( Sched.Policy.naive_order ~ar_count:64,
        Hw.Queue.detector (Hw.Queue.create ~size:64) ));
    (fun () ->
      (Sched.Policy.alat (), Hw.Alat.detector (Hw.Alat.create ())));
    (fun () ->
      ( Sched.Policy.efficeon (),
        Hw.Efficeon.detector (Hw.Efficeon.create ()) ));
    (fun () -> (Sched.Policy.none (), Hw.No_detect.detector ()));
  ]

(* End-to-end: every scheme converges to the reference state. *)
let prop_end_to_end (seed, params) =
  let sb, init = make_sb (seed, params) in
  List.for_all
    (fun mk_scheme ->
      let policy, detector = mk_scheme () in
      ignore (run_to_commit ~policy ~detector ~init sb);
      true)
    policies

(* Precision: with no genuine collisions the queue must never fault. *)
let prop_no_false_positives (seed, params) =
  let params = { params with Workload.Genprog.collide_fraction = 0.0 } in
  let sb, init = make_sb (seed, params) in
  let faults =
    run_to_commit
      ~policy:(Sched.Policy.smarq ~ar_count:64)
      ~detector:(Hw.Queue.detector (Hw.Queue.create ~size:64))
      ~init sb
  in
  faults = 0

(* Allocation validity on arbitrary (collision-rich) superblocks. *)
let prop_allocation_valid (seed, params) =
  let sb, _ = make_sb (seed, params) in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
  match o.Opt.Optimizer.alloc_result with
  | None -> true  (* fell back to no speculation *)
  | Some r ->
    (match
       C.validate r.Sched.Smarq_alloc.allocation
         ~edges:
           (r.Sched.Smarq_alloc.check_edges @ r.Sched.Smarq_alloc.anti_edges)
         ~ar_count:64
     with
    | Ok () -> true
    | Error problems ->
      QCheck.Test.fail_report
        (String.concat "; "
           (List.map (function C.Unsatisfied m | C.Window m -> m) problems)))

(* The final constraint graph is acyclic (AMOVs broke every cycle). *)
let prop_constraints_acyclic (seed, params) =
  let sb, _ = make_sb (seed, params) in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:64) sb in
  match o.Opt.Optimizer.alloc_result with
  | None -> true
  | Some r ->
    not
      (C.has_cycle
         (r.Sched.Smarq_alloc.check_edges @ r.Sched.Smarq_alloc.anti_edges))

(* Hard scheduling edges hold in the final issue order. *)
let prop_schedule_respects_hazards (seed, params) =
  let sb, _ = make_sb (seed, params) in
  let body = sb.Ir.Superblock.body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let policy = Sched.Policy.smarq ~ar_count:64 in
  let hazards = Sched.Hazards.build ~sb ~deps ~policy () in
  let fresh_id = ref 100_000 in
  let outcome =
    scheduled
      (Sched.List_sched.schedule ~sb ~deps ~policy ~issue_width:4
         ~mem_ports:2 ~latency:default_latency ~fresh_id ())
  in
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (i : I.t) -> Hashtbl.replace pos i.I.id idx)
    (Ir.Region.instrs outcome.Sched.List_sched.region);
  List.for_all
    (fun (i : I.t) ->
      List.for_all
        (fun p ->
          match Hashtbl.find_opt pos p, Hashtbl.find_opt pos i.I.id with
          | Some pp, Some pi -> pp < pi
          | _ -> false)
        (Sched.Hazards.preds hazards i.I.id))
    body

(* Working set never exceeds the physical count under the small file. *)
let prop_window_fits_16 (seed, params) =
  let sb, _ = make_sb (seed, params) in
  let o = optimize ~policy:(Sched.Policy.smarq ~ar_count:16) sb in
  o.Opt.Optimizer.region.Ir.Region.ar_window <= 16

(* Whole-program equivalence through the full dynamic system. *)
let prog_arb =
  QCheck.make
    ~print:(fun (seed, loops, iters) ->
      Printf.sprintf "seed=%d loops=%d iters=%d" seed loops iters)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 60 200))

let prop_dynamic_system_equivalent (seed, loops, iters) =
  let program = Workload.Genprog.program ~seed ~n_loops:loops ~iters in
  let ref_machine = Vliw.Machine.create () in
  ignore (Frontend.Interp.run ~fuel:50_000_000 ref_machine program);
  List.for_all
    (fun scheme ->
      let r =
        Smarq.run_program
          ~config:{ Runtime.Config.default with fuel = 50_000_000 }
          ~scheme program
      in
      Vliw.Machine.equal_guest_state ref_machine r.Runtime.Driver.machine)
    [ Smarq.Scheme.Smarq 64; Smarq.Scheme.Smarq 16; Smarq.Scheme.Alat;
      Smarq.Scheme.None_ ]

(* Binary roundtrip: assembling and disassembling any generated guest
   program preserves behaviour exactly. *)
let prop_binary_roundtrip (seed, loops, iters) =
  let program = Workload.Genprog.program ~seed ~n_loops:loops ~iters in
  let decoded =
    match Binary.Codec.disassemble (Binary.Codec.assemble program) with
    | Ok p -> p
    | Error e -> QCheck.Test.fail_report (Binary.Codec.error_to_string e)
  in
  (match Ir.Program.validate decoded with
  | Ok () -> ()
  | Error m -> QCheck.Test.fail_report m);
  let run p =
    let m = Vliw.Machine.create () in
    ignore (Frontend.Interp.run ~fuel:50_000_000 m p);
    m
  in
  Vliw.Machine.equal_guest_state (run program) (run decoded)

(* For reorder-only speculation (the only thing program-order
   allocation supports at all), SMARQ's constraint-order window never
   exceeds the naive greedy-rotation window.  Eliminations are excluded
   from the comparison: their extended dependences deliberately keep
   registers live across long spans the naive scheme never attempts. *)
let prop_naive_window_dominates (seed, params) =
  let sb, _ = make_sb (seed, params) in
  let reorder_only =
    {
      (Sched.Policy.smarq ~ar_count:64) with
      Sched.Policy.allow_load_load_forward = false;
      allow_store_load_forward = false;
      allow_store_elim = false;
    }
  in
  let smarq = optimize ~policy:reorder_only sb in
  let naive = optimize ~policy:(Sched.Policy.naive_order ~ar_count:64) sb in
  match
    ( smarq.Opt.Optimizer.stats.Opt.Optimizer.fell_back,
      naive.Opt.Optimizer.stats.Opt.Optimizer.fell_back )
  with
  | false, false ->
    smarq.Opt.Optimizer.region.Ir.Region.ar_window
    <= naive.Opt.Optimizer.region.Ir.Region.ar_window
  | _ -> true  (* fallbacks have no meaningful window to compare *)

(* Translation cache: under any bounded policy, no sequence of
   operations ever leaves more resident instructions than the capacity,
   and the accounting always equals the sum of resident sizes. *)
let tcache_ops_arb =
  let open QCheck.Gen in
  let key = map (fun i -> Printf.sprintf "r%d" i) (int_bound 7) in
  let op =
    frequency
      [
        (5, map2 (fun k s -> `Insert (k, s)) key (int_range 1 40));
        (3, map (fun k -> `Find k) key);
        (1, map (fun k -> `Invalidate k) key);
        (2, map2 (fun a b -> `Chain (a, b)) key key);
        (2, map2 (fun a b -> `Follow (a, b)) key key);
        (2, map2 (fun k s -> `Replace (k, s)) key (int_range 1 40));
        (1, return `Flush);
      ]
  in
  QCheck.make
    ~print:(fun (cap, pol, ops) ->
      Printf.sprintf "cap=%d policy=%d ops=%d" cap pol (List.length ops))
    (triple (int_range 20 100) (int_bound 2) (list_size (int_range 1 120) op))

let prop_tcache_capacity_never_exceeded (capacity, pol_idx, ops) =
  let module P = Smarq.Tcache.Policy in
  let module S = Smarq.Tcache.Store in
  let policy = [| P.Lru; P.Fifo; P.Flush_all |].(pol_idx) in
  let c : int S.t = S.create ~capacity ~policy () in
  (* shadow model: the last size given for each label; the store's
     accounting must equal the sum over the labels still resident *)
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let check_invariants () =
    let sum =
      Hashtbl.fold
        (fun k s acc -> if S.mem c k then acc + s else acc)
        sizes 0
    in
    S.resident_instrs c <= capacity
    && S.resident_instrs c = sum
    && (S.telemetry c).Smarq.Tcache.Telemetry.peak_resident_instrs <= capacity
  in
  List.for_all
    (fun op ->
      (match op with
      | `Insert (k, s) ->
        S.insert c k ~size:s s;
        Hashtbl.replace sizes k s
      | `Find k -> ignore (S.find c k)
      | `Invalidate k -> S.invalidate c k
      | `Chain (a, b) -> S.chain c ~from:a ~exit:b
      | `Follow (a, b) -> ignore (S.follow c ~from:a ~exit:b)
      | `Replace (k, s) ->
        if S.mem c k then Hashtbl.replace sizes k s;
        S.replace c k ~size:s
      | `Flush -> S.flush c);
      check_invariants ())
    ops

let suite =
  ( "properties",
    [
      qcase ~count:60 "end-to-end equivalence, all schemes" sb_arb
        prop_end_to_end;
      qcase ~count:60 "queue precision: no spurious faults" sb_arb
        prop_no_false_positives;
      qcase ~count:80 "allocation satisfies constraints" sb_arb
        prop_allocation_valid;
      qcase ~count:80 "constraint graph acyclic" sb_arb
        prop_constraints_acyclic;
      qcase ~count:60 "schedules respect hazards" sb_arb
        prop_schedule_respects_hazards;
      qcase ~count:60 "window fits 16 registers" sb_arb prop_window_fits_16;
      qcase ~count:12 "dynamic system equals interpreter" prog_arb
        prop_dynamic_system_equivalent;
      qcase ~count:25 "binary roundtrip preserves behaviour" prog_arb
        prop_binary_roundtrip;
      qcase ~count:40 "SMARQ window never exceeds program order" sb_arb
        prop_naive_window_dominates;
      qcase ~count:300 "tcache capacity never exceeded" tcache_ops_arb
        prop_tcache_capacity_never_exceeded;
    ] )
