(* Packed pair keys and the allocation they save: both packers (the
   product's [Analysis.Pair_key] and the checker's own in
   [Check.Witness]) round-trip and order like normalized tuples, the
   hazard builder's packed dropped set equals a tuple recomputation,
   and verdicts, [no_alias] lookups and certification allocate per
   result rather than per pair examined. *)

open Helpers
module I = Ir.Instr
module PK = Analysis.Pair_key
module W = Check.Witness
module MA = Analysis.May_alias
module D = Analysis.Disamb

(* ---- packing ---- *)

let id_gen = QCheck.Gen.int_bound (PK.bound - 1)

let two_pairs_arb =
  QCheck.make
    ~print:(fun ((a, b), (c, d)) -> Printf.sprintf "(%d,%d) (%d,%d)" a b c d)
    QCheck.Gen.(pair (pair id_gen id_gen) (pair id_gen id_gen))

let norm (a, b) = if a <= b then (a, b) else (b, a)

(* [norm_key] packs an unordered pair, [lo]/[hi] read it back *)
let packer_laws ~norm_key ~lo ~hi ((a, b), (c, d)) =
  let k1 = norm_key a b and k2 = norm_key c d in
  (lo k1, hi k1) = norm (a, b)
  && k1 = norm_key b a
  && compare k1 k2 = compare (norm (a, b)) (norm (c, d))

let prop_product_packer =
  packer_laws ~norm_key:PK.norm ~lo:PK.first ~hi:PK.second

let prop_checker_packer = packer_laws ~norm_key:W.pair_key ~lo:W.key_lo ~hi:W.key_hi

(* the ordered packing keeps direction: (a, b) and (b, a) differ *)
let prop_ordered_packers ((a, b), _) =
  let k = PK.pack a b in
  PK.first k = a && PK.second k = b
  && (a = b || PK.pack b a <> k)
  && W.ordered_key a b = k

(* the checker's own sort agrees with the stdlib's, repeats included *)
let prop_checker_sort xs =
  let a = Array.of_list xs in
  W.sort_ints a;
  Array.to_list a = List.sort Int.compare xs

let out_of_range = [ -1; min_int; PK.bound; PK.bound + 1; max_int ]

let test_out_of_range_rejected () =
  let rejects name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s accepted an out-of-range id" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun bad ->
      List.iter
        (fun good ->
          rejects "Pair_key.pack" (fun () -> PK.pack bad good);
          rejects "Pair_key.pack" (fun () -> PK.pack good bad);
          rejects "Pair_key.norm" (fun () -> PK.norm bad good);
          rejects "Witness.pair_key" (fun () -> W.pair_key bad good);
          rejects "Witness.ordered_key" (fun () -> W.ordered_key good bad))
        [ 0; 1; PK.bound - 1 ])
    out_of_range;
  (* the largest ids still pack, without colliding *)
  let top = PK.bound - 1 in
  Alcotest.(check bool) "(top, 0) and (0, top) differ" true
    (PK.pack top 0 <> PK.pack 0 top);
  Alcotest.(check bool) "(top, top) round-trips" true
    (PK.first (PK.pack top top) = top && PK.second (PK.pack top top) = top)

(* ---- the hazard builder's dropped set ---- *)

let sb_arb =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 10 120))

let strictly_ascending keys =
  let ok = ref true in
  Array.iteri (fun k key -> if k > 0 && key <= keys.(k - 1) then ok := false) keys;
  !ok

let decode keys = Array.to_list (Array.map (fun k -> (PK.first k, PK.second k)) keys)

(* every scheme, plus the non-speculative and store-fenced variants *)
let all_policies =
  [
    Sched.Policy.smarq ~ar_count:64;
    Sched.Policy.naive_order ~ar_count:64;
    Sched.Policy.alat ();
    Sched.Policy.efficeon ();
    Sched.Policy.smarq_no_store_reorder ~ar_count:64;
    Sched.Policy.none ();
  ]

(* [Hazards.dropped] is strictly ascending and decodes to the droppable
   speculative real dependences, recomputed as tuples and normalized
   with [List.sort_uniq compare] *)
let prop_dropped_recomputed (seed, n_instrs) =
  let params =
    { Workload.Genprog.default_params with n_instrs; side_exit_every = Some 12 }
  in
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  let body = sb.Ir.Superblock.body in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (i : I.t) -> Hashtbl.replace by_id i.I.id i) body;
  let alias = MA.analyze ~body () in
  let deps = Analysis.Depgraph.build ~body ~alias () in
  List.for_all
    (fun policy ->
      let expected = ref [] in
      Analysis.Depgraph.iter_mem_deps deps (fun ~first ~second ~strength ->
          if
            strength = Analysis.Depgraph.Speculative
            && Sched.Policy.may_drop_edge policy ~first:(Hashtbl.find by_id first)
                 ~second:(Hashtbl.find by_id second)
          then expected := (first, second) :: !expected);
      let hazards = Sched.Hazards.build ~sb ~deps ~policy () in
      let d = Sched.Hazards.(hazards.dropped) in
      strictly_ascending d && decode d = List.sort_uniq compare !expected)
    all_policies

(* ---- region assumed keys: dropped keys merged with Elim's pairs ---- *)

(* The optimizer's build, by hand: elimination, the analysis over the
   final body, the dependence graph, then the scheduler with Elim's
   assumed pairs plus every other dropped pair again (so the merge
   meets duplicates).  The region's keys are strictly ascending and
   decode to the sorted-unique union of the dropped pairs and the extra
   pairs. *)
let prop_assumed_union (seed, n_instrs) =
  let params =
    { Workload.Genprog.default_params with n_instrs; side_exit_every = Some 12 }
  in
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  List.for_all
    (fun policy ->
      let body = sb.Ir.Superblock.body in
      let fresh_id = ref (Ir.Superblock.max_instr_id sb + 1_000) in
      let elim = Opt.Elim.run ~policy ~alias:(MA.analyze ~body ()) ~body ~fresh_id () in
      let body' = elim.Opt.Elim.body in
      let sb' = { sb with Ir.Superblock.body = body' } in
      let deps =
        Analysis.Depgraph.build ~body:body' ~alias:(MA.analyze ~body:body' ())
          ~eliminated:elim.Opt.Elim.eliminations ()
      in
      let dropped = decode Sched.Hazards.((build ~sb:sb' ~deps ~policy ()).dropped) in
      let again = List.filteri (fun k _ -> k mod 2 = 0) dropped in
      let extra = elim.Opt.Elim.assumed_no_alias @ again in
      match
        Sched.List_sched.schedule ~sb:sb' ~deps ~policy ~issue_width:4 ~mem_ports:2
          ~latency:default_latency ~fresh_id ~extra_assumed:extra ()
      with
      | Error _ -> true  (* out of alias registers: the optimizer falls back *)
      | Ok out ->
        let a = out.Sched.List_sched.region.Ir.Region.assumed_no_alias in
        strictly_ascending a
        && decode out.Sched.List_sched.hazards.Sched.Hazards.dropped = dropped
        && decode a = List.sort_uniq compare (dropped @ extra))
    all_policies

(* ---- the certificate against a hashtable recomputation ---- *)

(* [units] iterations of: a store through a temporary base, a bump of
   that base, a second store through it, and a load through a shared
   guest base.  Each unit's two stores are a may pair the certifier
   proves disjoint; every cross-unit pair is a may pair between
   different bases, which it examines and cannot prove. *)
let unit_body units =
  reset_ids ();
  List.concat
    (List.init units (fun u ->
         let b = Ir.Reg.T u in
         [
           st ~width:8 (I.Imm u) b 0;
           mk (I.Binop (I.Add, b, I.Reg b, I.Imm 64));
           st ~width:8 (I.Imm u) b 0;
           ld ~width:8 (f 0) (r 2) (8 * u);
         ]))


module AI = Analysis.Absint

(* The certifier as a table keyed by normalized id tuples, read back in
   key order. *)
let certify_oracle ~alias ~body =
  let facts =
    match MA.const_facts alias with Some f -> f | None -> AI.analyze ~body ()
  in
  let table = Hashtbl.create 32 in
  let mems = Array.of_list (List.filter I.is_memory body) in
  let fact (i : I.t) (v : AI.value) width =
    { D.instr = i.I.id; width; origin = v.AI.origin; scale = v.AI.scale; off = v.AI.off }
  in
  Array.iteri
    (fun a (x : I.t) ->
      for b = a + 1 to Array.length mems - 1 do
        let y = mems.(b) in
        match (AI.address facts x.I.id, AI.address facts y.I.id) with
        | Some (vx, wx), Some (vy, wy)
          when (I.is_store x || I.is_store y) && MA.verdict alias x y = MA.May_alias -> (
          match AI.separated vx wx vy wy with
          | Some sep ->
            let reason =
              match sep with AI.Ranges -> D.Ranges | AI.Congruence g -> D.Congruence g
            in
            Hashtbl.replace table (norm (x.I.id, y.I.id))
              { D.x = fact x vx wx; y = fact y vy wy; reason }
          | None -> ())
        | _ -> ()
      done)
    mems;
  let pairs = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) table []) in
  ( Array.of_list (List.map (fun (a, b) -> PK.norm a b) pairs),
    Array.of_list (List.map (Hashtbl.find table) pairs) )

(* a random superblock followed by bump units (whose pairs the
   certifier proves), ids unique *)
let cert_body_arb =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 10 60))

let cert_body (seed, n_instrs) =
  let params =
    { Workload.Genprog.default_params with n_instrs; side_exit_every = Some 12 }
  in
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  let units = unit_body (1 + (seed mod 6)) in
  let base = Ir.Superblock.max_instr_id sb + 1 in
  sb.Ir.Superblock.body
  @ List.map (fun (i : I.t) -> I.make ~id:(base + i.I.id) i.I.op) units

let prop_certificate_recomputed arb =
  let body = cert_body arb in
  let alias = MA.analyze ~const_facts:(AI.analyze ~body ()) ~body () in
  let cert = D.certify ~alias ~body () in
  let keys, ws = certify_oracle ~alias ~body in
  (* [of_witnesses]: the witnesses, then some again with another
     reason — the later copy wins *)
  let listed = Array.to_list ws in
  let again = List.filteri (fun k _ -> k mod 3 = 0) listed in
  let relisted = listed @ List.map (fun w -> { w with D.reason = D.Congruence 7 }) again in
  let table = Hashtbl.create 16 in
  List.iter (fun (w : D.witness) -> Hashtbl.replace table (PK.norm w.D.x.D.instr w.D.y.D.instr) w) relisted;
  let forged = D.of_witnesses relisted in
  D.keys cert = keys
  && D.witnesses cert = ws
  && D.pairs cert = decode keys
  && D.keys forged = keys
  && D.witnesses forged = Array.map (Hashtbl.find table) keys

(* ---- allocation budgets ---- *)

(* the measurement's own boxed floats and closures *)
let slack = 64

let mem_pairs body =
  let mems = Array.of_list (List.filter I.is_memory body) in
  let n = Array.length mems in
  List.concat
    (List.init n (fun i -> List.init (n - i - 1) (fun j -> (mems.(i), mems.(i + j + 1)))))
  |> Array.of_list

let test_verdict_allocates_nothing () =
  let body = unit_body 8 in
  let const_facts = Analysis.Absint.analyze ~body () in
  let mems = List.filter I.is_memory body |> Array.of_list in
  let known_alias = [ (mems.(0).I.id, mems.(5).I.id) ] in
  let alias = MA.analyze ~known_alias ~const_facts ~body () in
  let cert = D.certify ~alias ~body () in
  MA.set_certified alias (D.keys cert);
  let pairs = mem_pairs body in
  let calls n =
    minor_words_of (fun () ->
        for k = 0 to n - 1 do
          let x, y = pairs.(k mod Array.length pairs) in
          ignore (Sys.opaque_identity (MA.verdict alias x y));
          ignore (Sys.opaque_identity (D.no_alias cert x.I.id y.I.id))
        done)
  in
  ignore (calls 1000);
  let once = calls 1000 and four = calls 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "4N calls (%d words) within %d of N calls (%d words)" four
       slack once)
    true
    (four <= once + slack)

(* Certification allocates per memory operation and per certified pair;
   the pairs it examines and cannot prove cost nothing. *)
let per_op = 16
let per_certified = 128

let test_certify_budget () =
  let measure units =
    let body = unit_body units in
    let const_facts = Analysis.Absint.analyze ~body () in
    let alias = MA.analyze ~const_facts ~body () in
    ignore (D.certify ~alias ~body ());
    let cert = ref None in
    let words = minor_words_of (fun () -> cert := Some (D.certify ~alias ~body ())) in
    let n_mem = List.length (List.filter I.is_memory body) in
    (words, n_mem, D.count (Option.get !cert))
  in
  let w1, m1, c1 = measure 16 and w4, m4, c4 = measure 64 in
  Alcotest.(check int) "one certified pair per unit (small)" 16 c1;
  Alcotest.(check int) "one certified pair per unit (large)" 64 c4;
  let examined = (m4 * m4) - (m1 * m1) in
  let budget = (per_op * (m4 - m1)) + (per_certified * (c4 - c1)) + slack in
  Alcotest.(check bool)
    (Printf.sprintf
       "4x body grows by %d words: within %d (%d more ops, %d more certified \
        pairs, ~%d more examined pairs)"
       (w4 - w1) budget (m4 - m1) (c4 - c1) (examined / 2))
    true
    (w4 - w1 <= budget)

(* ---- the checker allocates per instruction, not per pair ---- *)

(* words allocated while [f ()] runs, minor heap and directly in the
   major heap (arrays too large for the minor heap go there).  Minor
   words come from [Gc.minor_words], which counts the live minor heap
   too ([Gc.counters]'s minor count can lag by hundreds of words), and
   direct major words from [Gc.counters].  The fewest of three runs. *)
let words_of f =
  let once () =
    let _, p0, j0 = Gc.counters () in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    let _, p1, j1 = Gc.counters () in
    int_of_float (m1 -. m0 +. (j1 -. p1) -. (j0 -. p0))
  in
  min (once ()) (min (once ()) (once ()))

(* Equal bodies up to base registers: one ALU op, [k] loads, then [k]
   stores through [r1].  The first [far] loads go through another base,
   the rest through [r1] at displacements no store touches, so only the
   [far] loads pair with stores: [far * k] store/load pairs.  With
   [~computed:false] the other base is the entry register [r2], each
   pair a speculative dependence the policy drops; the loads carry the
   larger latency and issue first, so no pair is reordered and no alias
   register is needed.  With [~computed:true] it is [t3 = r1 + 4096],
   and the certifier proves every pair disjoint. *)
let paired_body ~k ~far ~computed =
  reset_ids ();
  let t3 = Ir.Reg.T 3 in
  let alu, other =
    if computed then (mk (I.Binop (I.Add, t3, I.Reg (r 1), I.Imm 4096)), t3)
    else (mk (I.Binop (I.Mul, t3, I.Reg (r 9), I.Reg (r 9))), r 2)
  in
  let loads =
    List.init k (fun j ->
        if j < far then ld ~width:8 (f j) other (8 * j)
        else ld ~width:8 (f j) (r 1) (2048 + (8 * j)))
  in
  let stores = List.init k (fun j -> st ~width:8 (I.Imm j) (r 1) (8 * j)) in
  sb_of ((alu :: loads) @ stores)

(* the pair counts differ 4x; the words may differ by this ratio *)
let pair_ratio_bound = 1.05

let check_ratio what ~few ~many =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d words with 4x the pairs, %d without (ratio %.3f, bound %.2f)"
       what many few (float_of_int many /. float_of_int few) pair_ratio_bound)
    true
    (float_of_int many <= pair_ratio_bound *. float_of_int few)

let verify_words o =
  let run () =
    match Check.Verifier.verify ~issue_width:4 ~mem_ports:2 ~latency:default_latency o with
    | Check.Verifier.Pass -> ()
    | Check.Verifier.Reject _ -> Alcotest.fail "honest artifact rejected"
  in
  run ();
  words_of run

(* loads and stores per paired body *)
let side = 32

let test_verify_per_instruction () =
  List.iter
    (fun policy ->
      let build far =
        let o = optimize ~policy (paired_body ~k:side ~far ~computed:false) in
        Alcotest.(check bool) "no fallback" false o.Opt.Optimizer.stats.Opt.Optimizer.fell_back;
        Alcotest.(check int)
          (policy.Sched.Policy.name ^ ": dropped pairs")
          (far * side)
          (Array.length o.Opt.Optimizer.hazards.Sched.Hazards.dropped);
        verify_words o
      in
      let few = build (side / 4) and many = build side in
      check_ratio (policy.Sched.Policy.name ^ " verify") ~few ~many)
    [ Sched.Policy.smarq ~ar_count:64; Sched.Policy.naive_order ~ar_count:64; Sched.Policy.efficeon () ]

let test_witness_check_per_instruction () =
  let policy = Sched.Policy.with_certify (Sched.Policy.smarq ~ar_count:64) in
  let build far =
    let o = optimize ~policy (paired_body ~k:side ~far ~computed:true) in
    let cert = Option.get o.Opt.Optimizer.cert in
    Alcotest.(check int) "certified pairs" (far * side) (D.count cert);
    Alcotest.(check int) "nothing dropped" 0
      (Array.length o.Opt.Optimizer.hazards.Sched.Hazards.dropped);
    let body =
      Check.Witness.index (Array.of_list o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body)
    in
    let check () =
      match
        Check.Witness.check ~cert ~body
          ~region_certified:o.Opt.Optimizer.region.Ir.Region.certified_no_alias
          ~deps:o.Opt.Optimizer.deps
      with
      | [] -> ()
      | _ -> Alcotest.fail "honest certificate rejected"
    in
    check ();
    (words_of check, verify_words o)
  in
  let few_check, few_verify = build (side / 4) and many_check, many_verify = build side in
  check_ratio "witness check" ~few:few_check ~many:many_check;
  check_ratio "verify with a certificate" ~few:few_verify ~many:many_verify


(* ---- the abstract evaluators allocate per memory op, not per instruction ---- *)

(* [units] bump units (two stores through a bumped temporary base and a
   load through a guest base), then [pad] rounds of address arithmetic
   that redefine the same four registers and touch no memory: the
   memory operations and the registers are the same at every [pad]. *)
let padded_body ~units ~pad =
  let mems = unit_body units in
  let t = Ir.Reg.T 0 in
  let arith =
    List.concat
      (List.init pad (fun j ->
           [
             mk (I.Binop (I.Shl, r 5, I.Reg (r 4), I.Imm 3));
             mk (I.Binop (I.And, r 6, I.Reg (r 5), I.Imm 0xf8));
             mk (I.Binop (I.Add, t, I.Reg (r 6), I.Reg (r 1)));
             mk (I.Binop (I.Mul, t, I.Reg t, I.Imm (j + 1)));
             mk (I.Binop (I.Sub, r 4, I.Reg (r 4), I.Imm 8));
             mk (I.Unop_neg (r 5, I.Reg t));
             mk (I.Mov (r 6, I.Reg (r 5)));
             mk (I.Cmp (I.Lt, r 7, I.Reg t, I.Imm 0));
           ]))
  in
  mems @ arith

(* the padding is this many times the rest of the body *)
let pad_small = 16
let pad_large = 4 * pad_small

let check_flat what ~small ~large =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d words with 4x the instructions, %d without (slack %d)" what
       large small slack)
    true
    (large <= small + slack)

let test_absint_per_memory_op () =
  let arena = Analysis.Arena.create () in
  let small = padded_body ~units:8 ~pad:pad_small in
  let large = padded_body ~units:8 ~pad:pad_large in
  let run body () = ignore (Sys.opaque_identity (AI.analyze ~arena ~body ())) in
  run large ();
  check_flat "Absint.analyze" ~small:(words_of (run small)) ~large:(words_of (run large))

let test_replay_per_memory_op () =
  let small = Array.of_list (padded_body ~units:8 ~pad:pad_small) in
  let large = Array.of_list (padded_body ~units:8 ~pad:pad_large) in
  let run body () = ignore (Sys.opaque_identity (W.replay_addresses body)) in
  check_flat "Witness.replay_addresses" ~small:(words_of (run small))
    ~large:(words_of (run large))

(* [k] stores through one base bumped between them: every pair of them
   is certified, so the pairs grow quadratically and the memory ops
   linearly. *)
let bump_chain k =
  reset_ids ();
  List.concat
    (List.init k (fun j ->
         [
           st ~width:8 (I.Imm j) (r 1) 0;
           mk (I.Binop (I.Add, r 1, I.Reg (r 1), I.Imm 64));
         ]))

(* A certified pair is three cells: its key, its endpoints' fact
   indexes and its separation code; a fact, its origin and offset set,
   the value they are read from and its slot in the shared-facts array
   stay under [per_fact]. *)
let per_witness = 3
let per_fact = 24

let test_certify_shares_facts () =
  let arena = Analysis.Arena.create () in
  let measure k =
    let body = bump_chain k in
    let alias = MA.analyze ~const_facts:(AI.analyze ~body ()) ~body () in
    let run () = ignore (Sys.opaque_identity (D.certify ~arena ~alias ~body ())) in
    run ();
    let cert = D.certify ~arena ~alias ~body () in
    let shared =
      Array.for_all
        (fun (w : D.witness) ->
          Array.for_all
            (fun (v : D.witness) ->
              (w.D.x.D.instr <> v.D.x.D.instr || w.D.x == v.D.x)
              && (w.D.y.D.instr <> v.D.y.D.instr || w.D.y == v.D.y)
              && (w.D.x.D.instr <> v.D.y.D.instr || w.D.x == v.D.y))
            (D.witnesses cert))
        (D.witnesses cert)
    in
    Alcotest.(check bool) "one fact per memory op, shared" true shared;
    (words_of run, k, D.count cert)
  in
  ignore (measure 32);
  let w1, m1, c1 = measure 8 and w4, m4, c4 = measure 32 in
  Alcotest.(check int) "every pair certified (small)" (8 * 7 / 2) c1;
  Alcotest.(check int) "every pair certified (large)" (32 * 31 / 2) c4;
  let budget = (per_witness * (c4 - c1)) + (per_fact * (m4 - m1)) + slack in
  Alcotest.(check bool)
    (Printf.sprintf
       "4x body grows by %d words: within %d (%d more certified pairs, %d more ops)"
       (w4 - w1) budget (c4 - c1) (m4 - m1))
    true
    (w4 - w1 <= budget)

(* Over 256 certified pairs, in words well inside the minor heap: an
   array that size made from a young value ([Array.init] of records)
   would force a minor collection.  The fewest of three runs, so a
   collection another domain happens to start does not count. *)
let test_certify_no_forced_minor () =
  let arena = Analysis.Arena.create () in
  let body = bump_chain 32 in
  let alias = MA.analyze ~const_facts:(AI.analyze ~body ()) ~body () in
  ignore (D.certify ~arena ~alias ~body ());
  let cert = ref None in
  let once () =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    let words = minor_words_of (fun () -> cert := Some (D.certify ~arena ~alias ~body ())) in
    ((Gc.quick_stat ()).Gc.minor_collections - before, words)
  in
  let collections, words = min (once ()) (min (once ()) (once ())) in
  let pairs = D.count (Option.get !cert) in
  Alcotest.(check bool) (Printf.sprintf "%d certified pairs > 256" pairs) true (pairs > 256);
  Alcotest.(check bool)
    (Printf.sprintf "%d words within a tenth of the minor heap" words)
    true
    (words * 10 <= (Gc.get ()).Gc.minor_heap_size);
  Alcotest.(check int) "minor collections during certify" 0 collections

(* Both bodies certify more than 256 pairs, so the certificate's int
   arrays go straight to the major heap: what the minor heap sees grows
   with the memory ops the pairs name (a fact each), not with the pairs
   (16 times as many in the larger body). *)
let test_certify_minor_per_named_op () =
  let arena = Analysis.Arena.create () in
  let measure k =
    let body = bump_chain k in
    let alias = MA.analyze ~const_facts:(AI.analyze ~body ()) ~body () in
    let run () = ignore (Sys.opaque_identity (D.certify ~arena ~alias ~body ())) in
    run ();
    (minor_words_of run, k, D.count (D.certify ~arena ~alias ~body ()))
  in
  ignore (measure 96);
  let w1, m1, c1 = measure 24 and w4, m4, c4 = measure 96 in
  Alcotest.(check bool) "over 256 pairs in both" true (c1 > 256 && c4 > 256);
  let budget = (per_fact * (m4 - m1)) + slack in
  Alcotest.(check bool)
    (Printf.sprintf
       "4x body grows the minor heap's share by %d words: within %d (%d more named ops, %d \
        more certified pairs)"
       (w4 - w1) budget (m4 - m1) (c4 - c1))
    true
    (w4 - w1 <= budget)

(* ---- per-register tables follow the registers a body names ---- *)

(* [units] bases [T (temp + u)], each set from [r1], stored through,
   bumped and stored through again, then a load through [r2]: the same
   body for every [temp] but for the temporaries' register codes. *)
let temp_body ~temp units =
  reset_ids ();
  List.concat
    (List.init units (fun u ->
         let b = Ir.Reg.T (temp + u) in
         [
           mk (I.Binop (I.Add, b, I.Reg (r 1), I.Imm (256 * u)));
           st ~width:8 (I.Imm u) b 0;
           mk (I.Binop (I.Add, b, I.Reg b, I.Imm 64));
           st ~width:8 (I.Imm u) b 0;
           ld ~width:8 (f 0) (r 2) (8 * u);
         ]))

let test_tables_follow_registers () =
  let near = temp_body ~temp:10 8 and far = temp_body ~temp:1_000_000 8 in
  let same what measure =
    Alcotest.(check int)
      (what ^ ": words with T 1_000_000 as with T 10")
      (measure near) (measure far)
  in
  same "May_alias.analyze" (fun body ->
      words_of (fun () -> ignore (Sys.opaque_identity (MA.analyze ~body ()))));
  let policy = Sched.Policy.with_certify (Sched.Policy.smarq ~ar_count:64) in
  let artifact body = optimize ~policy (sb_of body) in
  same "Witness.check" (fun body ->
      let o = artifact body in
      let indexed = W.index (Array.of_list body) in
      words_of (fun () ->
          match
            W.check ~cert:(Option.get o.Opt.Optimizer.cert) ~body:indexed
              ~region_certified:o.Opt.Optimizer.region.Ir.Region.certified_no_alias
              ~deps:o.Opt.Optimizer.deps
          with
          | [] -> ()
          | _ -> Alcotest.fail "honest certificate rejected"));
  same "Verifier.verify" (fun body -> verify_words (artifact body))

let suite =
  ( "pair keys",
    [
      qcase ~count:500 "product packer: round-trip and tuple order"
        two_pairs_arb prop_product_packer;
      qcase ~count:500 "checker packer: round-trip and tuple order"
        two_pairs_arb prop_checker_packer;
      qcase ~count:200 "ordered packers keep direction" two_pairs_arb
        prop_ordered_packers;
      qcase ~count:300 "checker sort agrees with the stdlib sort"
        QCheck.(list_of_size Gen.(0 -- 80) (int_range (-50) 50))
        prop_checker_sort;
      case "out-of-range ids rejected, extreme ids distinct"
        test_out_of_range_rejected;
      qcase ~count:100 "dropped keys = tuple recomputation" sb_arb
        prop_dropped_recomputed;
      qcase ~count:100 "region assumed keys = dropped and Elim pairs merged" sb_arb
        prop_assumed_union;
      qcase ~count:100 "certificate keys and witnesses = table recomputation"
        cert_body_arb prop_certificate_recomputed;
      case "verdict and no_alias allocate nothing" test_verdict_allocates_nothing;
      case "certify allocates per certified pair" test_certify_budget;
      case "verify allocates per instruction, not per dropped pair"
        test_verify_per_instruction;
      case "witness check allocates per instruction, not per certified pair"
        test_witness_check_per_instruction;
      case "Absint.analyze allocates nothing per instruction (warm arena)"
        test_absint_per_memory_op;
      case "witness replay allocates nothing per instruction" test_replay_per_memory_op;
      case "certify allocates one witness per pair and one shared fact per op"
        test_certify_shares_facts;
      case "per-register tables are sized by the registers a body names"
        test_tables_follow_registers;
      case "certify forces no minor collection" test_certify_no_forced_minor;
      case "certify allocates nothing per certified pair on the minor heap"
        test_certify_minor_per_named_op;
    ] )
