type opt_stats = {
  sched_stats : Sched.List_sched.stats;
  loads_eliminated : int;
  stores_eliminated : int;
  fell_back : bool;
  work_units : int;
}

type t = {
  region : Ir.Region.t;
  alloc_result : Sched.Smarq_alloc.result option;
  stats : opt_stats;
  deps : Analysis.Depgraph.t;
  hazards : Sched.Hazards.t;
  issue_pos : int array;
  issue_cycle : int array;
  policy_used : Sched.Policy.t;
  cert : Analysis.Disamb.t option;
}

type request = {
  sb : Ir.Superblock.t;
  policy : Sched.Policy.t;
  known_alias : (int * int) list;
  fresh_base : int;
}

let build_once ~policy ~issue_width ~mem_ports ~latency ~fresh_id ~known_alias
    ~profile ~arena (sb : Ir.Superblock.t) =
  let module P = Sched.Profile in
  let facts_for body =
    if policy.Sched.Policy.static_disambiguation then
      Some (Analysis.Absint.analyze ?arena ~body ())
    else None
  in
  (* Eager certification keeps the artifact a pure function of the
     superblock: witnesses are derived in one shot instead of memoized
     on verdict-consultation order, so the depgraph builder's traversal
     order can never change them. *)
  let alias =
    P.time profile P.add_alias (fun () ->
        Analysis.May_alias.analyze ~known_alias
          ?const_facts:(facts_for sb.Ir.Superblock.body)
          ?arena ~body:sb.Ir.Superblock.body ())
  in
  (* the pre-elimination certificate only steers [Elim]: its pairs
     alone, no facts *)
  if policy.Sched.Policy.certify then
    Analysis.May_alias.set_certified alias
      (Analysis.Disamb.certified_keys ?arena ~alias ~body:sb.Ir.Superblock.body ());
  let elim =
    Elim.run ~policy ~alias ?arena ~body:sb.Ir.Superblock.body ~fresh_id ()
  in
  let sb' = { sb with Ir.Superblock.body = elim.Elim.body } in
  (* positions changed: rebuild the analysis over the final body *)
  let alias' =
    P.time profile P.add_alias (fun () ->
        Analysis.May_alias.analyze ~known_alias
          ?const_facts:(facts_for elim.Elim.body)
          ?arena ~body:elim.Elim.body ())
  in
  let cert =
    if policy.Sched.Policy.certify then begin
      let cert = Analysis.Disamb.certify ?arena ~alias:alias' ~body:elim.Elim.body () in
      Analysis.May_alias.set_certified alias' (Analysis.Disamb.keys cert);
      Some cert
    end
    else None
  in
  let deps =
    P.time profile P.add_depgraph (fun () ->
        Analysis.Depgraph.build ~body:elim.Elim.body ~alias:alias'
          ~eliminated:elim.Elim.eliminations ?arena ())
  in
  Sched.List_sched.schedule ~sb:sb' ~deps ~policy ~issue_width ~mem_ports
    ~latency ~fresh_id ~extra_assumed:elim.Elim.assumed_no_alias ?profile
    ?arena ()
  |> Result.map (fun outcome -> (outcome, elim, deps, cert))

let optimize ~policy ~issue_width ~mem_ports ~latency ~fresh_id
    ?(known_alias = []) ?profile ?arena sb =
  (* ids stay unique in the region: every id this call hands out lies
     above the superblock's, whatever counter it was issued from *)
  fresh_id := max !fresh_id (Ir.Superblock.max_instr_id sb + 1);
  let work_units = 2 * Ir.Superblock.instr_count sb in
  let finish ~fell_back ~policy_used
      ( (outcome : Sched.List_sched.outcome),
        (elim : Elim.result),
        (deps : Analysis.Depgraph.t),
        (cert : Analysis.Disamb.t option) ) =
    Option.iter
      (fun p ->
        Sched.Profile.note_region p ~instrs:(Ir.Superblock.instr_count sb))
      profile;
    let region = outcome.Sched.List_sched.region in
    let region =
      match cert with
      | None -> region
      | Some c ->
        {
          region with
          Ir.Region.certified_no_alias = Analysis.Disamb.pairs c;
        }
    in
    {
      region;
      alloc_result = outcome.Sched.List_sched.alloc_result;
      stats =
        {
          sched_stats = outcome.Sched.List_sched.stats;
          loads_eliminated = elim.Elim.loads_eliminated;
          stores_eliminated = elim.Elim.stores_eliminated;
          fell_back;
          work_units;
        };
      deps;
      hazards = outcome.Sched.List_sched.hazards;
      issue_pos = outcome.Sched.List_sched.issue_pos;
      issue_cycle = outcome.Sched.List_sched.issue_cycle;
      policy_used;
      cert;
    }
  in
  let attempt policy =
    build_once ~policy ~issue_width ~mem_ports ~latency ~fresh_id ~known_alias
      ~profile ~arena sb
  in
  (* The fallback ladder: the requested policy, then reordering only
     (eliminations are the register hogs — their extended dependences
     keep registers live across long spans — and without them
     non-speculation mode usually fits), then no speculation at all.
     The last tier needs no alias register, so its failure is a bug.
     Only running out of alias registers climbs the ladder: a scheduler
     stall raises instead of falling back. *)
  let has_elims =
    policy.Sched.Policy.allow_load_load_forward
    || policy.Sched.Policy.allow_store_load_forward
    || policy.Sched.Policy.allow_store_elim
  in
  let reorder_only =
    {
      policy with
      Sched.Policy.allow_load_load_forward = false;
      allow_store_load_forward = false;
      allow_store_elim = false;
    }
  in
  let lower_tiers =
    (if has_elims then [ reorder_only ] else []) @ [ Sched.Policy.none () ]
  in
  let rec climb ~fell_back policy_used lower =
    match attempt policy_used, lower with
    | Ok built, _ -> finish ~fell_back ~policy_used built
    | Error (Sched.List_sched.Out_of_alias_registers _), next :: lower ->
      climb ~fell_back:true next lower
    | Error failure, [] ->
      failwith
        ("Optimizer.optimize: non-speculative build failed: "
        ^ Sched.List_sched.failure_to_string failure)
  in
  climb ~fell_back:false policy lower_tiers

(* Replaying a captured request is bit-identical to the original run by
   construction: [fresh_base] restores the id counter the driver held
   when it issued the request, and the ids a translation consumes are a
   pure function of the superblock and that base (every other input is
   in the request).  The private ref also makes replay order-free —
   requests share no mutable state, which is what lets Exec.Translate
   fan them out across domains. *)
let run_request ~issue_width ~mem_ports ~latency ?profile ?arena r =
  optimize ~policy:r.policy ~issue_width ~mem_ports ~latency
    ~fresh_id:(ref r.fresh_base) ~known_alias:r.known_alias ?profile ?arena
    r.sb
