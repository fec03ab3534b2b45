(* Differential tests for the O(n log n) translation pipeline: the
   swept dependence builder, the reduced hazard graph, and the heap
   scheduler must be indistinguishable from the seed implementations,
   which live in this directory as independent oracles
   ([Oracle_depgraph], [Oracle_hazards], [Oracle_sched]) — identical
   edge lists for the depgraph, identical reachability for hazards,
   and identical issue sequences for every region a driver run
   builds. *)

open Helpers
module I = Ir.Instr

let params_gen =
  QCheck.Gen.(
    let* n_instrs = int_range 10 120 in
    let* mem_fraction = float_range 0.2 0.8 in
    let* store_fraction = float_range 0.1 0.7 in
    let* n_bases = int_range 1 6 in
    let* collide_fraction = float_range 0.0 0.5 in
    let* exits = opt (int_range 6 20) in
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

(* Seed some recorded alias pairs so the swept builder's out-of-band
   known-pair pass is exercised, including same-bucket disjoint pairs
   that neither sweep would otherwise visit. *)
let known_pairs_of ~seed body =
  let mems = List.filter I.is_memory body in
  let ids = List.map (fun (i : I.t) -> i.I.id) mems in
  match ids with
  | a :: b :: c :: d :: _ when seed land 1 = 0 -> [ (a, d); (b, c) ]
  | a :: _ :: b :: _ when seed land 3 = 1 -> [ (b, a) ]
  | _ -> []

let depgraphs_of (seed, params) =
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  let body = sb.Ir.Superblock.body in
  let known_alias = known_pairs_of ~seed body in
  let const_facts = Analysis.Absint.analyze ~body in
  let alias = Analysis.May_alias.analyze ~known_alias ~const_facts ~body () in
  let fast = Analysis.Depgraph.build ~body ~alias () in
  let slow = Oracle_depgraph.real_edges ~body ~alias in
  (body, fast, slow)

(* The swept builder must reproduce the pairwise builder's edge list
   exactly — same pairs, same strengths, same order.  (No eliminations
   here, so every edge is real.) *)
let prop_depgraph_equal input =
  let _, fast, slow = depgraphs_of input in
  let pr d =
    Format.asprintf "%a" Analysis.Depgraph.pp d |> fun s ->
    if String.length s > 2000 then String.sub s 0 2000 else s
  in
  if Analysis.Depgraph.edges fast = slow then true
  else
    QCheck.Test.fail_reportf
      "swept/pairwise mismatch@.fast:@.%s@.oracle: %d edges" (pr fast)
      (List.length slow)

(* edges_into must agree per target id as well (the allocator's view). *)
let prop_edges_into_equal input =
  let body, fast, slow = depgraphs_of input in
  List.for_all
    (fun (i : I.t) ->
      Analysis.Depgraph.edges_into fast i.I.id
      = List.filter
          (fun (e : Analysis.Depgraph.edge) ->
            e.Analysis.Depgraph.second = i.I.id)
          slow)
    body

(* The reduced hazard graph (two-edge exit fences + transitive
   reduction) must have exactly the seed graph's transitive closure,
   and its edges must be a subset of the seed closure. *)
let hazards_of ~policy (seed, params) =
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  let body = sb.Ir.Superblock.body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let fast = Sched.Hazards.build ~sb ~deps ~policy () in
  let slow = Oracle_hazards.build ~sb ~deps ~policy in
  (body, fast, slow)

let closure h body =
  (* reachable-from sets by id, memoized in reverse body order (the
     graph only runs forward in body position) *)
  let reach : (int, unit) Hashtbl.t array =
    Array.make (List.length body) (Hashtbl.create 0)
  in
  let index = Hashtbl.create 64 in
  List.iteri (fun p (i : I.t) -> Hashtbl.replace index i.I.id p) body;
  let arr = Array.of_list body in
  for p = Array.length arr - 1 downto 0 do
    let t = Hashtbl.create 8 in
    List.iter
      (fun sid ->
        Hashtbl.replace t sid ();
        Hashtbl.iter
          (fun x () -> Hashtbl.replace t x ())
          reach.(Hashtbl.find index sid))
      (Sched.Hazards.succs h arr.(p).I.id);
    reach.(p) <- t
  done;
  fun a b ->
    match Hashtbl.find_opt index a with
    | Some p -> Hashtbl.mem reach.(p) b
    | None -> false

let prop_hazard_closure_equal (seed, params) =
  List.for_all
    (fun policy ->
      let body, fast, slow = hazards_of ~policy (seed, params) in
      let fast_reaches = closure fast body and slow_reaches = closure slow body in
      List.for_all
        (fun (a : I.t) ->
          List.for_all
            (fun (b : I.t) ->
              fast_reaches a.I.id b.I.id = slow_reaches a.I.id b.I.id)
            body)
        body)
    [ Sched.Policy.smarq ~ar_count:64; Sched.Policy.none () ]

(* Every edge the reduced builder keeps exists in the seed graph too:
   reduction and reduced fences only ever remove redundancy, never
   invent precedence. *)
let prop_reduced_edges_subset (seed, params) =
  let body, fast, slow =
    hazards_of ~policy:(Sched.Policy.smarq ~ar_count:64) (seed, params)
  in
  let slow_reaches = closure slow body in
  List.for_all
    (fun (a : I.t) ->
      List.for_all
        (fun sid -> slow_reaches a.I.id sid)
        (Sched.Hazards.succs fast a.I.id))
    body

(* dropped is normalized — ascending (first, second), duplicate-free —
   and agrees with the reference builder's set. *)
let prop_dropped_normalized (seed, params) =
  let _, fast, slow =
    hazards_of ~policy:(Sched.Policy.smarq ~ar_count:64) (seed, params)
  in
  let d = Sched.Hazards.(fast.dropped) in
  let sorted_nodup = List.sort_uniq compare d = d in
  sorted_nodup
  && List.sort_uniq compare Sched.Hazards.(slow.dropped) = d

(* End to end through the full dynamic system: run the driver once per
   scheme, capturing every translation request, and hold each region it
   built to the oracles.  The region's source is the post-elimination
   superblock; its dependence graph's real edges must be the pairwise
   oracle's, its reduced hazard graph must have the all-pairs oracle's
   closure and dropped set, and the oracle scheduler — over the oracle
   hazards, with its own SMARQ allocator — must reproduce the issue
   sequence exactly.  Everything after the issue sequence is shared
   single-path code, so equal sequences mean equal regions. *)
let prog_arb =
  QCheck.make
    ~print:(fun (seed, loops, iters) ->
      Printf.sprintf "seed=%d loops=%d iters=%d" seed loops iters)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 60 200))

let all_schemes =
  [
    Smarq.Scheme.Smarq 64;
    Smarq.Scheme.Smarq 16;
    Smarq.Scheme.Naive_order 64;
    Smarq.Scheme.Alat;
    Smarq.Scheme.Efficeon;
    Smarq.Scheme.None_;
    Smarq.Scheme.None_static;
  ]

(* [Ok ()] when the optimizer output [o] for request [r] matches every
   oracle; otherwise the first disagreement. *)
let check_region ~config (r : Opt.Optimizer.request) (o : Opt.Optimizer.t) =
  let sb = o.Opt.Optimizer.region.Ir.Region.source in
  let body = sb.Ir.Superblock.body in
  let policy = o.Opt.Optimizer.policy_used in
  let deps = o.Opt.Optimizer.deps in
  let alias =
    Analysis.May_alias.analyze ~known_alias:r.Opt.Optimizer.known_alias
      ?const_facts:
        (if policy.Sched.Policy.static_disambiguation then
           Some (Analysis.Absint.analyze ~body)
         else None)
      ~body ()
  in
  Option.iter
    (fun c -> Analysis.May_alias.set_certified alias (Analysis.Disamb.pairs c))
    o.Opt.Optimizer.cert;
  let real =
    List.filter
      (fun (e : Analysis.Depgraph.edge) ->
        e.Analysis.Depgraph.kind = Analysis.Depgraph.Real)
      (Analysis.Depgraph.edges deps)
  in
  let hazards = Oracle_hazards.build ~sb ~deps ~policy in
  let fast_reaches = closure o.Opt.Optimizer.hazards body
  and slow_reaches = closure hazards body in
  let same_closure =
    List.for_all
      (fun (a : I.t) ->
        List.for_all
          (fun (b : I.t) ->
            fast_reaches a.I.id b.I.id = slow_reaches a.I.id b.I.id)
          body)
      body
  in
  (* the CSR rows, content and order, against the oracle graph's
     transitive reduction as descending id lists *)
  let h = o.Opt.Optimizer.hazards in
  let red_preds, red_succs = Oracle_hazards.reduced_rows hazards in
  let row iter p =
    let l = ref [] in
    iter h p (fun q -> l := h.Sched.Hazards.ids.(q) :: !l);
    List.rev !l
  in
  let n = Array.length h.Sched.Hazards.ids in
  let same_rows =
    Array.length red_preds = n
    && List.for_all
         (fun p ->
           row Sched.Hazards.iter_preds p = red_preds.(p)
           && row Sched.Hazards.iter_succs p = red_succs.(p))
         (List.init n Fun.id)
  in
  let latency = Vliw.Config.latency config in
  let heights = Sched.List_sched.heights ~body ~hazards:h ~latency in
  let oracle_heights = Oracle_sched.heights ~body ~hazards ~latency in
  let same_heights =
    List.for_all
      (fun p ->
        heights.(p) = Hashtbl.find oracle_heights h.Sched.Hazards.ids.(p))
      (List.init n Fun.id)
  in
  let issue_seq =
    Oracle_sched.issue_seq ~sb ~deps ~hazards ~policy
      ~issue_width:config.Vliw.Config.issue_width
      ~mem_ports:config.Vliw.Config.mem_ports
      ~latency:(Vliw.Config.latency config)
  in
  if real <> Oracle_depgraph.real_edges ~body ~alias then
    Error "real dependence edges differ from the pairwise oracle"
  else if not same_closure then
    Error "hazard closure differs from the all-pairs oracle"
  else if not same_rows then
    Error "hazard rows differ from the oracle graph's transitive reduction"
  else if not same_heights then
    Error "heights differ from the oracle's memoized heights"
  else if Sched.Hazards.(o.Opt.Optimizer.hazards.dropped) <> hazards.dropped
  then Error "dropped pairs differ from the all-pairs oracle"
  else if issue_seq <> o.Opt.Optimizer.issue_seq then
    Error "issue sequence differs from the rescan scheduler oracle"
  else Ok ()

let check_requests ~scheme ~config requests outputs =
  List.iteri
    (fun k (r, o) ->
      match check_region ~config r o with
      | Ok () -> ()
      | Error why ->
        QCheck.Test.fail_reportf "%s, request %d (%s, policy %s): %s"
          (Smarq.Scheme.name scheme) k
          r.Opt.Optimizer.sb.Ir.Superblock.entry
          o.Opt.Optimizer.policy_used.Sched.Policy.name why)
    (List.combine requests outputs)

let run_requests ~config requests =
  List.map
    (Opt.Optimizer.run_request ~issue_width:config.Vliw.Config.issue_width
       ~mem_ports:config.Vliw.Config.mem_ports
       ~latency:(Vliw.Config.latency config))
    requests

let prop_regions_match_oracles (seed, loops, iters) =
  let program = Workload.Genprog.program ~seed ~n_loops:loops ~iters in
  List.for_all
    (fun scheme ->
      let _, config, requests =
        Exec.Translate.capture_program
          ~config:{ Runtime.Config.default with fuel = 50_000_000 }
          ~scheme program
      in
      check_requests ~scheme ~config requests (run_requests ~config requests);
      true)
    all_schemes

(* Parallel replay: for every scheme, capturing the driver's optimize
   requests and replaying them at -jt 1, 2 and 4 over the domain pool
   must yield bit-identical artifacts in submission order, and the
   merged profile must count the same regions and instructions.  (The
   timer fields are wall measurements and legitimately differ run to
   run; the integers and the artifacts may not.) *)
let prop_parallel_replay_identical (seed, loops, iters) =
  let program = Workload.Genprog.program ~seed ~n_loops:loops ~iters in
  let pool = Exec.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      List.for_all
        (fun scheme ->
          let _, cfg, reqs =
            Exec.Translate.capture_program
              ~config:{ Runtime.Config.default with fuel = 50_000_000 }
              ~scheme program
          in
          let seq = Exec.Translate.replay ~jobs:1 ~config:cfg reqs in
          List.length seq.Exec.Translate.artifacts = List.length reqs
          && List.for_all
               (fun jobs ->
                 let par =
                   Exec.Translate.replay ~pool ~jobs ~config:cfg reqs
                 in
                 List.for_all2 Exec.Translate.equal_artifact
                   seq.Exec.Translate.artifacts par.Exec.Translate.artifacts
                 && par.Exec.Translate.profile.Sched.Profile.regions
                    = seq.Exec.Translate.profile.Sched.Profile.regions
                 && par.Exec.Translate.profile.Sched.Profile.instrs
                    = seq.Exec.Translate.profile.Sched.Profile.instrs)
               [ 1; 2; 4 ])
        all_schemes)

(* The captured batch replayed on one shared arena must match the
   oracle-checked translations of the same requests on fresh arenas —
   capture is a faithful record, and arena reuse across requests leaks
   nothing into the artifacts. *)
let prop_replay_matches_checked_requests (seed, loops, iters) =
  let program = Workload.Genprog.program ~seed ~n_loops:loops ~iters in
  let scheme = Smarq.Scheme.Smarq 64 in
  let _, config, requests =
    Exec.Translate.capture_program
      ~config:{ Runtime.Config.default with fuel = 50_000_000 }
      ~scheme program
  in
  let replayed = Exec.Translate.replay ~jobs:1 ~config requests in
  let outputs = run_requests ~config requests in
  check_requests ~scheme ~config requests outputs;
  List.for_all2 Exec.Translate.equal_artifact
    replayed.Exec.Translate.artifacts
    (List.map Exec.Translate.artifact_of outputs)

(* Deterministic spot check of the reduction itself: a WAW edge made
   redundant by a RAW/WAR path must be pruned yet stay enforced. *)
let test_reduction_prunes_redundant_waw () =
  reset_ids ();
  let w1 = mk (I.Binop (I.Add, r 1, I.Imm 1, I.Imm 2)) in
  let rd = mk (I.Binop (I.Add, r 2, I.Reg (r 1), I.Imm 0)) in
  let w2 = mk (I.Binop (I.Add, r 1, I.Imm 5, I.Imm 5)) in
  let body = [ w1; rd; w2 ] in
  let sb = sb_of body in
  let alias = Analysis.May_alias.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  let policy = Sched.Policy.smarq ~ar_count:64 in
  let fast = Sched.Hazards.build ~sb ~deps ~policy () in
  let slow = Oracle_hazards.build ~sb ~deps ~policy in
  Alcotest.(check bool) "oracle keeps the direct WAW" true
    (List.mem w1.I.id (Sched.Hazards.preds slow w2.I.id));
  Alcotest.(check bool) "fast prunes the redundant WAW" false
    (List.mem w1.I.id (Sched.Hazards.preds fast w2.I.id));
  let reaches = closure fast body in
  Alcotest.(check bool) "but w1 still precedes w2 transitively" true
    (reaches w1.I.id w2.I.id)

(* A base bumped more often than there are memory operations: its
   generation outgrows the bucket key's spread, and (base, generation)
   buckets of different registers must still stay apart — otherwise the
   displacement sweep would call the cross-base pair disjoint. *)
let test_deep_generation_keeps_cross_base_edge () =
  reset_ids ();
  let bumps =
    List.init 9 (fun _ -> mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 1)))
  in
  let s1 = st (I.Imm 1) (r 1) 0 in
  let l1 = ld (f 0) (r 2) 8 in
  let body = bumps @ [ s1; l1 ] in
  let alias = Analysis.May_alias.analyze ~body () in
  let fast = Analysis.Depgraph.build ~body ~alias () in
  let slow = Oracle_depgraph.real_edges ~body ~alias in
  Alcotest.(check int) "oracle keeps the may-alias edge" 1 (List.length slow);
  Alcotest.(check bool) "swept = pairwise" true
    (Analysis.Depgraph.edges fast = slow)

let suite =
  ( "translate pipeline",
    [
      qcase ~count:300 "swept depgraph = pairwise depgraph" sb_arb
        prop_depgraph_equal;
      qcase ~count:150 "edges_into agrees per target" sb_arb
        prop_edges_into_equal;
      qcase ~count:100 "reduced hazards: same transitive closure" sb_arb
        prop_hazard_closure_equal;
      qcase ~count:100 "reduced hazards: edges within seed closure" sb_arb
        prop_reduced_edges_subset;
      qcase ~count:100 "dropped pairs normalized and equal" sb_arb
        prop_dropped_normalized;
      qcase ~count:8 "fast and reference pipelines agree on every region"
        prog_arb prop_regions_match_oracles;
      qcase ~count:5 "parallel replay bit-identical at -jt 1/2/4" prog_arb
        prop_parallel_replay_identical;
      qcase ~count:5 "replay identical under both pipelines" prog_arb
        prop_replay_matches_checked_requests;
      case "transitive reduction prunes redundant WAW"
        test_reduction_prunes_redundant_waw;
      case "deep base generations keep cross-base edges"
        test_deep_generation_keeps_cross_base_edge;
    ] )
