(* Differential tests for the position-indexed back end: the SMARQ
   allocator, speculative elimination and the bit-mask annotator must
   be indistinguishable from the id-keyed versions they replaced, which
   live in this directory as independent oracles ([Oracle_smarq_alloc]
   on [Oracle_cycle_detect], [Oracle_elim], [Oracle_mask_alloc]).

   One harness runs a superblock through the translation pipeline up to
   scheduling with both elimination passes, then feeds the library
   allocator and the oracle allocator the same issue stream — the
   rescan oracle scheduler's — asking both for overflow risk at every
   cycle start, and compares every field of their results; under the
   mask scheme it compares the two annotators instead.  The inputs are
   Genprog superblocks and every translation request the suite programs
   make under the eight campaign schemes. *)

open Helpers
module I = Ir.Instr
module C = Analysis.Constraints
module SA = Sched.Smarq_alloc
module OA = Oracle_smarq_alloc

exception Mismatch of string

(* One arena for every comparison, warm across regions as a driver run's
   is: the library passes lease their scratch from it. *)
let arena = Analysis.Arena.create ()

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let expect what ok = if not ok then fail "%s differs from the oracle" what

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The allocation tables by id, as sorted association lists. *)
let same_allocation (a : C.allocation) (b : C.allocation) =
  sorted a.C.order = sorted b.C.order
  && sorted a.C.base = sorted b.C.base
  && sorted a.C.p_bit = sorted b.C.p_bit
  && sorted a.C.c_bit = sorted b.C.c_bit

(* Every field of the library result against the oracle's.  The oracle
   lists annotations and rotations by id (pseudo-ops included); the
   library keeps them by body position. *)
let compare_results ~ids (r : SA.result) (o : OA.result) =
  let n = Array.length ids in
  expect "annotation array length" (Array.length r.SA.annots = n);
  expect "rotation array length" (Array.length r.SA.rotations = n);
  Array.iteri
    (fun p id ->
      let want =
        Option.value (List.assoc_opt id o.OA.annots) ~default:Ir.Annot.none
      in
      if not (Ir.Annot.equal r.SA.annots.(p) want) then
        fail "annotation of instr %d: %s, oracle %s" id
          (Format.asprintf "%a" Ir.Annot.pp r.SA.annots.(p))
          (Format.asprintf "%a" Ir.Annot.pp want);
      let rot =
        List.fold_left
          (fun acc (i, k) -> if i = id then acc + k else acc)
          0 o.OA.rotations
      in
      if r.SA.rotations.(p) <> rot then
        fail "rotation after instr %d: %d, oracle %d" id r.SA.rotations.(p) rot)
    ids;
  expect "AMOV count" (List.length r.SA.amovs = List.length o.OA.amovs);
  List.iter2
    (fun (a : SA.amov_insertion) (b : OA.amov_insertion) ->
      expect "AMOV"
        (a.SA.amov_id = b.OA.amov_id
        && ids.(a.SA.before_pos) = b.OA.before
        && a.SA.src_instr = b.OA.src_instr
        && a.SA.dst_is_fresh = b.OA.dst_is_fresh
        && a.SA.src_offset = b.OA.src_offset
        && a.SA.dst_offset = b.OA.dst_offset))
    r.SA.amovs o.OA.amovs;
  expect "max offset" (r.SA.max_offset = o.OA.max_offset);
  (* the slot arrays, read through the id-keyed view, and the counts
     kept beside them *)
  let v = SA.allocation_tables r in
  expect "check edges" (v.SA.check_edges = o.OA.check_edges);
  expect "anti edges" (v.SA.anti_edges = o.OA.anti_edges);
  expect "allocation tables" (same_allocation v.SA.allocation o.OA.allocation);
  expect "P-bit count" (r.SA.p_bits = Hashtbl.length o.OA.allocation.C.p_bit);
  expect "C-bit count" (r.SA.c_bits = Hashtbl.length o.OA.allocation.C.c_bit);
  expect "slot count"
    (r.SA.slots
    = n + List.length (List.filter (fun (a : OA.amov_insertion) -> a.OA.dst_is_fresh) o.OA.amovs))

(* Feed both allocators the issue stream [issue_seq] (cycle,
   instruction), the way the list scheduler does: overflow risk at each
   cycle start, then every memory operation in issue order.  Both must
   agree at every step and in the end.  Returns the oracle's finish. *)
let compare_allocators ~body ~hazards ~deps ~ar_count ~fresh_base issue_seq =
  let lib_fresh = ref fresh_base and ora_fresh = ref fresh_base in
  let lib = SA.create ~hazards ~deps ~ar_count ~fresh_id:lib_fresh ~arena () in
  let ora = OA.create ~body ~deps ~ar_count ~fresh_id:ora_fresh in
  let state where =
    expect (where ^ ": overflowed") (SA.overflowed lib = OA.overflowed ora);
    expect (where ^ ": unscheduled extended P count")
      (SA.unscheduled_ext_p lib = OA.unscheduled_ext_p ora);
    List.iter
      (fun lookahead_p ->
        expect
          (Printf.sprintf "%s: overflow risk at lookahead %d" where lookahead_p)
          (SA.overflow_risk lib ~lookahead_p = OA.overflow_risk ora ~lookahead_p))
      [ 0; 2; 5 ]
  in
  let cycle = ref (-1) in
  List.iter
    (fun (c, (i : I.t)) ->
      if c <> !cycle then begin
        cycle := c;
        state (Printf.sprintf "cycle %d" c)
      end;
      if I.is_memory i then begin
        SA.on_schedule lib (Sched.Hazards.position hazards i.I.id);
        OA.on_schedule ora i
      end)
    issue_seq;
  state "end of schedule";
  let r = SA.finish lib and o = OA.finish ora in
  (match r, o with
  | Ok r, Ok o -> compare_results ~ids:hazards.Sched.Hazards.ids r o
  | Error a, Error b -> expect "overflow report" (a = b)
  | Ok _, Error b -> fail "library finished, oracle failed: %s" b
  | Error a, Ok _ -> fail "library failed (%s), oracle finished" a);
  expect "AMOV ids consumed" (!lib_fresh = !ora_fresh);
  o

(* The mask annotator against its oracle on the same issue order. *)
let compare_mask ~hazards ~deps ~ar_count issue_seq =
  let issue =
    Array.of_list
      (List.map (fun (_, (i : I.t)) -> Sched.Hazards.position hazards i.I.id) issue_seq)
  in
  match
    ( Sched.Mask_alloc.annotate ~deps ~hazards ~issue ~ar_count,
      Oracle_mask_alloc.annotate ~deps ~hazards ~issue_order:issue_seq ~ar_count )
  with
  | Ok annots, Ok want ->
    Array.iteri
      (fun p id ->
        let want = Option.value (List.assoc_opt id want) ~default:Ir.Annot.none in
        if not (Ir.Annot.equal annots.(p) want) then
          fail "mask annotation of instr %d: %s, oracle %s" id
            (Format.asprintf "%a" Ir.Annot.pp annots.(p))
            (Format.asprintf "%a" Ir.Annot.pp want))
      hazards.Sched.Hazards.ids
  | Error a, Error b -> expect "mask overflow report" (a = b)
  | Ok _, Error b -> fail "mask annotator finished, oracle failed: %s" b
  | Error a, Ok _ -> fail "mask annotator failed (%s), oracle finished" a

(* Elimination against its oracle: same body, eliminations with their
   intervening instructions, assumptions in order, counts, and ids. *)
let compare_elim ~policy ~alias ~body ~fresh_base =
  let lib_fresh = ref fresh_base and ora_fresh = ref fresh_base in
  let e = Opt.Elim.run ~policy ~alias ~arena ~body ~fresh_id:lib_fresh () in
  let o = Oracle_elim.run ~policy ~alias ~body ~fresh_id:ora_fresh in
  expect "eliminated body" (e.Opt.Elim.body = o.Oracle_elim.body);
  expect "eliminations" (e.Opt.Elim.eliminations = o.Oracle_elim.eliminations);
  expect "assumptions" (e.Opt.Elim.assumed_no_alias = o.Oracle_elim.assumed_no_alias);
  expect "loads eliminated"
    (e.Opt.Elim.loads_eliminated = o.Oracle_elim.loads_eliminated);
  expect "stores eliminated"
    (e.Opt.Elim.stores_eliminated = o.Oracle_elim.stores_eliminated);
  expect "ids consumed by elimination" (!lib_fresh = !ora_fresh);
  e

(* What one comparison saw, for coverage counts. *)
type seen = {
  mutable cases : int;
  mutable finished : int;  (* allocator finished without overflow *)
  mutable fresh_amovs : int;  (* cases with an AMOV to a fresh register *)
  mutable clearing_amovs : int;  (* cases with a clearing AMOV *)
  mutable eliminations : int;  (* cases that eliminated something *)
}

let new_seen () =
  { cases = 0; finished = 0; fresh_amovs = 0; clearing_amovs = 0; eliminations = 0 }

(* The flat certificate against the record-building oracle: its keys,
   its record view witness by witness, and the keys-only path. *)
let compare_certificate ~alias ~body =
  let cert = Analysis.Disamb.certify ~arena ~alias ~body () in
  let keys, ws = Oracle_disamb.certify ~alias ~body in
  expect "certificate keys" (Analysis.Disamb.keys cert = keys);
  let view = Analysis.Disamb.witnesses cert in
  expect "witness count" (Array.length view = Array.length ws);
  Array.iteri
    (fun k w -> if w <> ws.(k) then fail "witness %d of %d" k (Array.length ws))
    view;
  expect "keys-only certification"
    (Analysis.Disamb.certified_keys ~arena ~alias ~body () = keys);
  cert

(* The alias analysis [Opt.Optimizer] builds for [body] under [policy],
   its certificate checked against the oracle's when certifying. *)
let analyze ~policy ~known_alias body =
  let const_facts =
    if policy.Sched.Policy.static_disambiguation then
      Some (Analysis.Absint.analyze ~body ())
    else None
  in
  let alias = Analysis.May_alias.analyze ~known_alias ?const_facts ~body () in
  if policy.Sched.Policy.certify then
    Analysis.May_alias.set_certified alias
      (Analysis.Disamb.keys (compare_certificate ~alias ~body));
  alias

(* The optimizer's pipeline up to scheduling, for [policy] — the same
   analysis, certification and elimination inputs [Opt.Optimizer] gives
   the scheduler — then the oracle scheduler's issue order, and the
   back-end comparisons on it. *)
let compare_backend ?(seen = new_seen ()) ?(known_alias = []) ~config ~policy
    (sb : Ir.Superblock.t) =
  seen.cases <- seen.cases + 1;
  let fresh_base = Ir.Superblock.max_instr_id sb + 1 in
  let analyze = analyze ~policy ~known_alias in
  let body = sb.Ir.Superblock.body in
  let e = compare_elim ~policy ~alias:(analyze body) ~body ~fresh_base in
  if e.Opt.Elim.eliminations <> [] then seen.eliminations <- seen.eliminations + 1;
  let body = e.Opt.Elim.body in
  let sb = { sb with Ir.Superblock.body } in
  let deps =
    Analysis.Depgraph.build ~body ~alias:(analyze body)
      ~eliminated:e.Opt.Elim.eliminations ()
  in
  let hazards = Sched.Hazards.build ~sb ~deps ~policy () in
  let issue_seq =
    Oracle_sched.issue_seq ~sb ~deps ~hazards ~policy
      ~issue_width:config.Vliw.Config.issue_width
      ~mem_ports:config.Vliw.Config.mem_ports
      ~latency:(Vliw.Config.latency config)
  in
  let ar_count = policy.Sched.Policy.ar_count in
  match policy.Sched.Policy.scheme with
  | Sched.Policy.Queue_scheme -> (
    match
      compare_allocators ~body ~hazards ~deps ~ar_count
        ~fresh_base:(fresh_base + 10_000) issue_seq
    with
    | Ok o ->
      seen.finished <- seen.finished + 1;
      if List.exists (fun (a : OA.amov_insertion) -> a.OA.dst_is_fresh) o.OA.amovs
      then seen.fresh_amovs <- seen.fresh_amovs + 1;
      if List.exists (fun (a : OA.amov_insertion) -> not a.OA.dst_is_fresh) o.OA.amovs
      then seen.clearing_amovs <- seen.clearing_amovs + 1
    | Error _ -> ())
  | Sched.Policy.Mask_scheme -> compare_mask ~hazards ~deps ~ar_count issue_seq
  | Sched.Policy.Naive_queue_scheme | Sched.Policy.Alat_scheme
  | Sched.Policy.No_scheme ->
    ()

(* The allocator result a translation carries against the oracle
   allocator fed that translation's own issue sequence: the library
   allocator as the list scheduler drives it.  AMOV ids come from the
   translation's shared counter, which the allocator alone draws on
   while it runs, so the oracle's counter starts at the first AMOV id. *)
let compare_artifact (o : Opt.Optimizer.t) =
  match o.Opt.Optimizer.alloc_result with
  | None -> ()
  | Some r -> (
    let hazards = o.Opt.Optimizer.hazards and deps = o.Opt.Optimizer.deps in
    let body = o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
    let first_amov =
      match r.SA.amovs with a :: _ -> a.SA.amov_id | [] -> max_int
    in
    let ora =
      OA.create ~body ~deps
        ~ar_count:o.Opt.Optimizer.policy_used.Sched.Policy.ar_count
        ~fresh_id:(ref first_amov)
    in
    List.iter
      (fun (_, (i : I.t)) -> if I.is_memory i then OA.on_schedule ora i)
      (issue_seq o);
    (match OA.finish ora with
    | Ok want -> compare_results ~ids:hazards.Sched.Hazards.ids r want
    | Error why ->
      fail "the oracle allocator overflows where the region built: %s" why);
    let sb = o.Opt.Optimizer.region.Ir.Region.source in
    let ws =
      Sched.Working_set.measure ~sb
        ~outcome:
          {
            Sched.List_sched.region = o.Opt.Optimizer.region;
            alloc_result = o.Opt.Optimizer.alloc_result;
            stats = o.Opt.Optimizer.stats.Opt.Optimizer.sched_stats;
            hazards;
            issue_pos = o.Opt.Optimizer.issue_pos;
            issue_cycle = o.Opt.Optimizer.issue_cycle;
          }
    in
    expect "working set" (ws = Oracle_working_set.measure ~sb ~region:o.Opt.Optimizer.region r))

let genprog_policies =
  [
    Sched.Policy.smarq ~ar_count:64;
    Sched.Policy.smarq ~ar_count:16;
    Sched.Policy.smarq_no_store_reorder ~ar_count:64;
    Sched.Policy.efficeon ();
    Sched.Policy.with_certify (Sched.Policy.smarq ~ar_count:16);
  ]

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

let report f =
  match f () with
  | () -> true
  | exception Mismatch why -> QCheck.Test.fail_report why

let prop_genprog_backend (seed, params) =
  let sb, _ = Workload.Genprog.superblock ~seed ~params in
  report (fun () ->
      List.iter
        (fun policy ->
          compare_backend ~config:Vliw.Config.default ~policy sb)
        genprog_policies)

(* The certificates of a Genprog body followed by bump units (whose
   pairs the certifier proves), before and after elimination, under
   each of the eight campaign schemes with certification on. *)
let prop_genprog_certificate arb =
  let body = Suite_pairkey.cert_body arb in
  let sb = sb_of body in
  report (fun () ->
      List.iter
        (fun scheme ->
          let policy =
            Sched.Policy.with_certify (Smarq.Scheme.to_driver scheme).Runtime.Driver.policy
          in
          let alias = analyze ~policy ~known_alias:[] body in
          let fresh_id = ref (Ir.Superblock.max_instr_id sb + 1) in
          let e = Opt.Elim.run ~policy ~alias ~arena ~body ~fresh_id () in
          ignore (analyze ~policy ~known_alias:[] e.Opt.Elim.body : Analysis.May_alias.t))
        Verify.Campaign.schemes)

(* Every translation request the ten suite programs make under the
   eight campaign schemes, certification off and on: the pipeline
   comparison under the request's policy, and the built artifact's
   allocator result. *)
let test_captured_backend () =
  let seen = new_seen () in
  List.iter
    (fun certify ->
      List.iter
        (fun (b : Workload.Specfp.bench) ->
          List.iter
            (fun scheme ->
              let _, config, requests =
                Exec.Translate.capture_program
                  ~config:{ Runtime.Config.default with certify }
                  ~scheme (Workload.Specfp.program b)
              in
              List.iteri
                (fun k (req : Opt.Optimizer.request) ->
                  let where =
                    Printf.sprintf "%s under %s%s, request %d"
                      b.Workload.Specfp.name (Smarq.Scheme.name scheme)
                      (if certify then " (certified)" else "")
                      k
                  in
                  try
                    compare_backend ~seen ~known_alias:req.Opt.Optimizer.known_alias
                      ~config ~policy:req.Opt.Optimizer.policy req.Opt.Optimizer.sb;
                    compare_artifact
                      (Opt.Optimizer.run_request
                         ~issue_width:config.Vliw.Config.issue_width
                         ~mem_ports:config.Vliw.Config.mem_ports
                         ~latency:(Vliw.Config.latency config) ~arena req)
                  with Mismatch why -> Alcotest.failf "%s: %s" where why)
                requests)
            Verify.Campaign.schemes)
        Workload.Specfp.suite)
    [ false; true ];
  Alcotest.(check bool)
    (Printf.sprintf "%d requests compared, %d eliminating, %d allocations"
       seen.cases seen.eliminations seen.finished)
    true
    (seen.cases > 500 && seen.eliminations > 50 && seen.finished > 100)

(* A Genprog family at 4 and 8 alias registers, where the constraint
   graph runs into cycles often: it must reach AMOVs of both kinds, to a
   fresh register and clearing, which the suite programs almost never
   make, and agree with the oracle on every case.  (Over these 150 seeds
   the family reads 32 cases with a fresh AMOV and 125 with a clearing
   one; the bounds leave room for a change of the generator.) *)
let test_amov_family () =
  let seen = new_seen () in
  for seed = 1 to 150 do
    let params =
      {
        Workload.Genprog.n_instrs = 30 + (seed mod 5 * 10);
        mem_fraction = 0.5;
        store_fraction = 0.5;
        n_bases = 6;
        collide_fraction = 0.2;
        side_exit_every = None;
      }
    in
    let sb, _ = Workload.Genprog.superblock ~seed ~params in
    List.iter
      (fun ar_count ->
        try
          let policy = Sched.Policy.smarq ~ar_count in
          compare_backend ~seen ~config:Vliw.Config.default ~policy sb;
          compare_artifact (optimize ~policy sb)
        with Mismatch why ->
          Alcotest.failf "seed %d at %d registers: %s" seed ar_count why)
      [ 4; 8 ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "%d cases: %d allocations, %d with a fresh AMOV, %d with a clearing AMOV"
       seen.cases seen.finished seen.fresh_amovs seen.clearing_amovs)
    true
    (seen.fresh_amovs >= 20 && seen.clearing_amovs >= 80)

let suite =
  ( "back end",
    [
      qcase ~count:150 "allocator, elimination and mask annotator = oracles"
        sb_arb prop_genprog_backend;
      case "captured suite requests = oracles, 8 schemes"
        test_captured_backend;
      case "AMOV family at 4 and 8 registers = oracle" test_amov_family;
      qcase ~count:150 "certificate record view = record-building oracle, 8 schemes"
        Suite_pairkey.cert_body_arb prop_genprog_certificate;
    ] )
