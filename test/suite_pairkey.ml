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

(* [Hazards.dropped] equals the droppable speculative real dependences,
   recomputed as tuples and normalized with [List.sort_uniq compare] *)
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
      Sched.Hazards.(hazards.dropped) = List.sort_uniq compare !expected)
    [
      Sched.Policy.smarq ~ar_count:64;
      Sched.Policy.alat ();
      Sched.Policy.smarq_no_store_reorder ~ar_count:64;
      Sched.Policy.none ();
    ]

(* ---- allocation budgets ---- *)

(* words the minor heap saw while [f ()] ran *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* the measurement's own boxed floats and closures *)
let slack = 64

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

let mem_pairs body =
  let mems = Array.of_list (List.filter I.is_memory body) in
  let n = Array.length mems in
  List.concat
    (List.init n (fun i -> List.init (n - i - 1) (fun j -> (mems.(i), mems.(i + j + 1)))))
  |> Array.of_list

let test_verdict_allocates_nothing () =
  let body = unit_body 8 in
  let const_facts = Analysis.Absint.analyze ~body in
  let mems = List.filter I.is_memory body |> Array.of_list in
  let known_alias = [ (mems.(0).I.id, mems.(5).I.id) ] in
  let alias = MA.analyze ~known_alias ~const_facts ~body () in
  let cert = D.certify ~alias ~body in
  MA.set_certified alias (D.pairs cert);
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
    let const_facts = Analysis.Absint.analyze ~body in
    let alias = MA.analyze ~const_facts ~body () in
    ignore (D.certify ~alias ~body);
    let cert = ref None in
    let words = minor_words_of (fun () -> cert := Some (D.certify ~alias ~body)) in
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

let suite =
  ( "pair keys",
    [
      qcase ~count:500 "product packer: round-trip and tuple order"
        two_pairs_arb prop_product_packer;
      qcase ~count:500 "checker packer: round-trip and tuple order"
        two_pairs_arb prop_checker_packer;
      qcase ~count:200 "ordered packers keep direction" two_pairs_arb
        prop_ordered_packers;
      case "out-of-range ids rejected, extreme ids distinct"
        test_out_of_range_rejected;
      qcase ~count:100 "dropped keys = tuple recomputation" sb_arb
        prop_dropped_recomputed;
      case "verdict and no_alias allocate nothing" test_verdict_allocates_nothing;
      case "certify allocates per certified pair" test_certify_budget;
    ] )
