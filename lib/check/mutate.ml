type mutation =
  | Drop_check
  | Swap_orders
  | Widen_offset
  | Delete_amov
  | Drop_advanced
  | Clear_mask_bit
  | Hoist_across_hazard
  | Delete_instr
  | Over_rotate
  | Shift_witness_range
  | Widen_witness_range
  | Swap_witness_origin
  | Drop_witness
  | Forge_witness
  | Desync_region_cert
  | Bogus_witness_endpoint

let mutation_name = function
  | Drop_check -> "drop_check"
  | Swap_orders -> "swap_orders"
  | Widen_offset -> "widen_offset"
  | Delete_amov -> "delete_amov"
  | Drop_advanced -> "drop_advanced"
  | Clear_mask_bit -> "clear_mask_bit"
  | Hoist_across_hazard -> "hoist_across_hazard"
  | Delete_instr -> "delete_instr"
  | Over_rotate -> "over_rotate"
  | Shift_witness_range -> "shift_witness_range"
  | Widen_witness_range -> "widen_witness_range"
  | Swap_witness_origin -> "swap_witness_origin"
  | Drop_witness -> "drop_witness"
  | Forge_witness -> "forge_witness"
  | Desync_region_cert -> "desync_region_cert"
  | Bogus_witness_endpoint -> "bogus_witness_endpoint"

let expected_rules = function
  | Drop_check -> [ Verifier.Queue_uncovered ]
  | Swap_orders ->
    [ Verifier.Alloc_window; Verifier.Queue_uncovered; Verifier.Queue_spurious ]
  | Widen_offset -> [ Verifier.Alloc_window ]
  | Delete_amov -> [ Verifier.Queue_uncovered; Verifier.Queue_spurious ]
  | Drop_advanced -> [ Verifier.Alat_unmarked ]
  | Clear_mask_bit -> [ Verifier.Mask_uncovered ]
  | Hoist_across_hazard -> [ Verifier.Sched_hazard ]
  | Delete_instr -> [ Verifier.Sched_complete ]
  | Over_rotate -> [ Verifier.Queue_uncovered; Verifier.Queue_base_sync ]
  | Shift_witness_range -> [ Verifier.Cert_derivation ]
  | Widen_witness_range -> [ Verifier.Cert_separation ]
  | Swap_witness_origin -> [ Verifier.Cert_derivation ]
  | Drop_witness -> [ Verifier.Dep_missing ]
  | Forge_witness -> [ Verifier.Cert_edge_kept ]
  | Desync_region_cert -> [ Verifier.Cert_region_sync ]
  | Bogus_witness_endpoint -> [ Verifier.Cert_endpoints ]

(* ---- copies: a mutant gets a fresh bundles array; instructions and
   edge lists are immutable and shared *)

let with_region (o : Opt.Optimizer.t) region = { o with Opt.Optimizer.region }

let map_bundles (o : Opt.Optimizer.t) f =
  let r = o.Opt.Optimizer.region in
  with_region o
    { r with Ir.Region.bundles = Array.map (List.map f) r.Ir.Region.bundles }

let remove_from_bundles (o : Opt.Optimizer.t) id =
  let r = o.Opt.Optimizer.region in
  with_region o
    {
      r with
      Ir.Region.bundles =
        Array.map
          (List.filter (fun (i : Ir.Instr.t) -> i.id <> id))
          r.Ir.Region.bundles;
    }

(* ---- execution-order view and the reordered (check-requiring)
   dependence pairs, mirroring the verifier's definition *)

let exec_positions (region : Ir.Region.t) =
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (i : Ir.Instr.t) ->
      if not (Hashtbl.mem pos i.id) then Hashtbl.replace pos i.id idx)
    (Ir.Region.instrs region);
  pos

let required_pairs (o : Opt.Optimizer.t) =
  let pos = exec_positions o.Opt.Optimizer.region in
  List.filter
    (fun (e : Analysis.Depgraph.edge) ->
      (not
         (e.kind = Analysis.Depgraph.Real
         && e.strength = Analysis.Depgraph.Hard))
      &&
      match Hashtbl.find_opt pos e.first, Hashtbl.find_opt pos e.second with
      | Some pf, Some ps -> ps < pf
      | _ -> false)
    (Analysis.Depgraph.edges o.Opt.Optimizer.deps)

let scheme (o : Opt.Optimizer.t) =
  o.Opt.Optimizer.policy_used.Sched.Policy.scheme

let ar_count (o : Opt.Optimizer.t) =
  o.Opt.Optimizer.policy_used.Sched.Policy.ar_count

(* ---- the individual mutations; each returns None when the artifact
   offers no viable target *)

let drop_check (o : Opt.Optimizer.t) =
  match scheme o with
  | Sched.Policy.Queue_scheme -> (
    let checks = Hashtbl.create 64 in
    List.iter
      (fun (i : Ir.Instr.t) ->
        match Ir.Instr.annot i with
        | Ir.Annot.Queue { c = true; _ } -> Hashtbl.replace checks i.id ()
        | _ -> ())
      (Ir.Region.instrs o.Opt.Optimizer.region);
    match
      List.find_opt
        (fun (e : Analysis.Depgraph.edge) -> Hashtbl.mem checks e.first)
        (required_pairs o)
    with
    | None -> None
    | Some e ->
      Some
        (map_bundles o (fun (i : Ir.Instr.t) ->
             if i.id <> e.first then i
             else
               match Ir.Instr.annot i with
               | Ir.Annot.Queue { offset; p; _ } ->
                 Ir.Instr.with_annot i
                   (if p then Ir.Annot.queue ~offset ~p:true ~c:false
                    else Ir.Annot.none)
               | _ -> i)))
  | _ -> None

(* The offsets of a check edge's two ends, re-annotated as if the
   allocator had swapped their orders.  Without AMOVs every slot is a
   body position. *)
let swap_orders (o : Opt.Optimizer.t) =
  match scheme o, o.Opt.Optimizer.alloc_result with
  | Sched.Policy.Queue_scheme, Some res
    when res.Sched.Smarq_alloc.amovs = [] -> (
    let orders = res.Sched.Smarq_alloc.orders and ids = res.Sched.Smarq_alloc.slot_ids in
    let checks = res.Sched.Smarq_alloc.checks in
    let rec first_ordered e =
      if 2 * e >= Array.length checks then None
      else
        let f = checks.(2 * e) and s = checks.((2 * e) + 1) in
        if orders.(f) >= 0 && orders.(s) >= 0 && orders.(f) < orders.(s) then Some (f, s)
        else first_ordered (e + 1)
    in
    match first_ordered 0 with
    | None -> None
    | Some (f, s) ->
      let swapped slot = orders.(if slot = f then s else f) in
      Some
        (map_bundles o (fun (i : Ir.Instr.t) ->
             match Ir.Instr.annot i with
             | Ir.Annot.Queue { p; c; _ } when i.id = ids.(f) || i.id = ids.(s) ->
               let slot = if i.id = ids.(f) then f else s in
               Ir.Instr.with_annot i
                 (Ir.Annot.queue
                    ~offset:(swapped slot - res.Sched.Smarq_alloc.bases.(slot))
                    ~p ~c)
             | _ -> i)))
  | _ -> None

let widen_offset (o : Opt.Optimizer.t) =
  match scheme o with
  | Sched.Policy.Queue_scheme | Sched.Policy.Naive_queue_scheme -> (
    let target =
      List.find_opt
        (fun (i : Ir.Instr.t) ->
          match Ir.Instr.annot i with Ir.Annot.Queue _ -> true | _ -> false)
        (Ir.Region.instrs o.Opt.Optimizer.region)
    in
    match target with
    | None -> None
    | Some t ->
      Some
        (map_bundles o (fun (i : Ir.Instr.t) ->
             if i.id <> t.id then i
             else
               match Ir.Instr.annot i with
               | Ir.Annot.Queue { p; c; _ } ->
                 Ir.Instr.with_annot i
                   (Ir.Annot.queue ~offset:(ar_count o) ~p ~c)
               | _ -> i)))
  | _ -> None

let delete_amov (o : Opt.Optimizer.t) =
  match o.Opt.Optimizer.alloc_result with
  | Some res when res.Sched.Smarq_alloc.amovs <> [] ->
    let m = List.hd res.Sched.Smarq_alloc.amovs in
    Some (remove_from_bundles o m.Sched.Smarq_alloc.amov_id)
  | _ -> None

let drop_advanced (o : Opt.Optimizer.t) =
  match scheme o with
  | Sched.Policy.Alat_scheme -> (
    let instr_at id =
      List.find_opt
        (fun (i : Ir.Instr.t) -> i.id = id)
        (Ir.Region.instrs o.Opt.Optimizer.region)
    in
    match required_pairs o with
    | [] -> None
    | e :: _ -> (
      match instr_at e.second with
      | Some s when Ir.Instr.is_load s ->
        Some
          (map_bundles o (fun (i : Ir.Instr.t) ->
               if i.id = s.id then Ir.Instr.with_annot i Ir.Annot.none else i))
      | _ -> None))
  | _ -> None

let clear_mask_bit (o : Opt.Optimizer.t) =
  match scheme o with
  | Sched.Policy.Mask_scheme -> (
    let instr_at id =
      List.find_opt
        (fun (i : Ir.Instr.t) -> i.id = id)
        (Ir.Region.instrs o.Opt.Optimizer.region)
    in
    let target =
      List.find_map
        (fun (e : Analysis.Depgraph.edge) ->
          match instr_at e.second, instr_at e.first with
          | Some s, Some f -> (
            match Ir.Instr.annot s, Ir.Instr.annot f with
            | ( Ir.Annot.Mask { set_index = Some k; _ },
                Ir.Annot.Mask { check_mask; _ } )
              when check_mask land (1 lsl k) <> 0 ->
              Some (f.Ir.Instr.id, k)
            | _ -> None)
          | _ -> None)
        (required_pairs o)
    in
    match target with
    | None -> None
    | Some (fid, k) ->
      Some
        (map_bundles o (fun (i : Ir.Instr.t) ->
             if i.id <> fid then i
             else
               match Ir.Instr.annot i with
               | Ir.Annot.Mask { set_index; check_mask } ->
                 Ir.Instr.with_annot i
                   (Ir.Annot.mask ~set_index
                      ~check_mask:(check_mask land lnot (1 lsl k)))
               | _ -> i)))
  | _ -> None

let hoist_across_hazard (o : Opt.Optimizer.t) =
  let region = o.Opt.Optimizer.region in
  let cyc = Hashtbl.create 64 in
  Array.iteri
    (fun cycle bundle ->
      List.iter
        (fun (i : Ir.Instr.t) ->
          if not (Hashtbl.mem cyc i.id) then Hashtbl.replace cyc i.id cycle)
        bundle)
    region.Ir.Region.bundles;
  let hazards = o.Opt.Optimizer.hazards in
  let pick = ref None in
  let ids = hazards.Sched.Hazards.ids in
  for p = 0 to Array.length ids - 1 do
    if !pick = None then
      let id = ids.(p) in
      Sched.Hazards.iter_preds hazards p (fun q ->
          let pd = ids.(q) in
          if !pick = None then
            match Hashtbl.find_opt cyc pd, Hashtbl.find_opt cyc id with
            | Some cp, Some cs when cs > cp -> pick := Some (pd, id, cp)
            | _ -> ())
  done;
  match !pick with
  | None -> None
  | Some (_, succ, pred_cycle) ->
    let instr = ref None in
    let bundles =
      Array.map
        (List.filter (fun (i : Ir.Instr.t) ->
             if i.id = succ then begin
               instr := Some i;
               false
             end
             else true))
        region.Ir.Region.bundles
    in
    (match !instr with
    | None -> None
    | Some i ->
      bundles.(pred_cycle) <- bundles.(pred_cycle) @ [ i ];
      Some (with_region o { region with Ir.Region.bundles }))

let delete_instr (o : Opt.Optimizer.t) =
  let body = o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
  match body with
  | [] -> None
  | i :: _ -> Some (remove_from_bundles o i.Ir.Instr.id)

(* Under the naive scheme, +1 at the first ROTATE an annotated op
   follows: every later op's replayed BASE is off by one.  Under SMARQ,
   a flush of the whole window (+[ar_count]) at the first ROTATE a
   reordered pair spans, so the earlier-executing op's range is freed
   before the later one checks it.  A smaller bump, or a ROTATE no
   reordered pair spans, can leave every comparison a dependence needs
   unchanged — an equivalent mutant — so none is generated then. *)
let over_rotate (o : Opt.Optimizer.t) =
  let region = o.Opt.Optimizer.region in
  let instrs = Array.of_list (Ir.Region.instrs region) in
  let n = Array.length instrs in
  let is_rotate p =
    match instrs.(p).Ir.Instr.op with Ir.Instr.Rotate _ -> true | _ -> false
  in
  let rec first_rotate p ok =
    if p >= n then None
    else if is_rotate p && ok p then Some instrs.(p).Ir.Instr.id
    else first_rotate (p + 1) ok
  in
  let target =
    match scheme o with
    | Sched.Policy.Naive_queue_scheme ->
      let annotated p =
        match Ir.Instr.annot instrs.(p) with
        | Ir.Annot.Queue _ -> true
        | _ -> false
      in
      let rec followed p = p < n && (annotated p || followed (p + 1)) in
      Option.map (fun rid -> (rid, 1)) (first_rotate 0 (fun p -> followed (p + 1)))
    | Sched.Policy.Queue_scheme ->
      let pos = exec_positions region in
      let spans =
        List.map
          (fun (e : Analysis.Depgraph.edge) ->
            (Hashtbl.find pos e.second, Hashtbl.find pos e.first))
          (required_pairs o)
      in
      Option.map
        (fun rid -> (rid, ar_count o))
        (first_rotate 0 (fun p -> List.exists (fun (ps, pf) -> ps < p && p < pf) spans))
    | _ -> None
  in
  Option.map
    (fun (rid, bump) ->
      map_bundles o (fun (i : Ir.Instr.t) ->
          if i.id <> rid then i
          else
            match i.op with
            | Ir.Instr.Rotate k -> Ir.Instr.make ~id:i.id (Ir.Instr.Rotate (k + bump))
            | _ -> i))
    target

(* ---- witness-corruption mutations: rebuild the certificate from a
   tampered witness list, keeping the region's certified list in sync
   (each class targets exactly one verifier rule) *)

let with_cert (o : Opt.Optimizer.t) ws =
  let cert = Analysis.Disamb.of_witnesses ws in
  let region =
    {
      o.Opt.Optimizer.region with
      Ir.Region.certified_no_alias = Analysis.Disamb.pairs cert;
    }
  in
  { o with Opt.Optimizer.cert = Some cert; region }

let witnesses_of (o : Opt.Optimizer.t) =
  match o.Opt.Optimizer.cert with
  | None -> []
  | Some c -> Array.to_list (Analysis.Disamb.witnesses c)

(* Shift one endpoint's offset set by +1: the claim stops being
   entailed by the replayed derivation. *)
let shift_witness_range (o : Opt.Optimizer.t) =
  match witnesses_of o with
  | [] -> None
  | (w : Analysis.Disamb.witness) :: rest ->
    let off = w.Analysis.Disamb.x.Analysis.Disamb.off in
    let off' =
      {
        off with
        Analysis.Absint.lo = off.Analysis.Absint.lo + 1;
        hi = off.Analysis.Absint.hi + 1;
        rem =
          (if off.Analysis.Absint.stride = 0 then 0
           else (off.Analysis.Absint.rem + 1) mod off.Analysis.Absint.stride);
      }
    in
    Some
      (with_cert o
         ({ w with Analysis.Disamb.x = { w.Analysis.Disamb.x with off = off' } }
          :: rest))

(* Widen one endpoint's range until it swallows the other: entailment
   still holds (the claim only got weaker) but the claimed facts no
   longer imply disjointness. *)
let widen_witness_range (o : Opt.Optimizer.t) =
  let ws = witnesses_of o in
  match
    List.partition
      (fun (w : Analysis.Disamb.witness) ->
        w.Analysis.Disamb.reason = Analysis.Disamb.Ranges)
      ws
  with
  | [], _ -> None
  | w :: same, rest ->
    let fx = w.Analysis.Disamb.x and fy = w.Analysis.Disamb.y in
    let cx = fx.Analysis.Disamb.off and cy = fy.Analysis.Disamb.off in
    let off' =
      {
        Analysis.Absint.lo = min cx.Analysis.Absint.lo cy.Analysis.Absint.lo;
        hi =
          max cx.Analysis.Absint.hi
            (cy.Analysis.Absint.hi + fy.Analysis.Disamb.width);
        stride = 1;
        rem = 0;
      }
    in
    Some
      (with_cert o
         (({ w with Analysis.Disamb.x = { fx with off = off' } } :: same)
          @ rest))

(* Re-anchor one endpoint on a fabricated origin: replay derives a
   different anchor, so the claim is no longer entailed. *)
let swap_witness_origin (o : Opt.Optimizer.t) =
  match witnesses_of o with
  | [] -> None
  | (w : Analysis.Disamb.witness) :: rest ->
    let fx = w.Analysis.Disamb.x in
    let fx' =
      {
        fx with
        Analysis.Disamb.origin =
          Analysis.Absint.Opaque fx.Analysis.Disamb.instr;
      }
    in
    Some (with_cert o ({ w with Analysis.Disamb.x = fx' } :: rest))

(* Silently drop a witness (and its pair from the region list): the
   pair now has neither a dependence edge nor a proof. *)
let drop_witness (o : Opt.Optimizer.t) =
  match witnesses_of o with
  | [] -> None
  | _ :: rest when o.Opt.Optimizer.cert <> None -> Some (with_cert o rest)
  | _ -> None

(* Fabricate a witness for a pair that genuinely depends (it carries a
   Real edge): the certified pair keeps its dependence edge. *)
let forge_witness (o : Opt.Optimizer.t) =
  match o.Opt.Optimizer.cert with
  | None -> None
  | Some _ -> (
    let body = o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
    let by_id = Hashtbl.create 64 in
    List.iter
      (fun (i : Ir.Instr.t) -> Hashtbl.replace by_id i.Ir.Instr.id i)
      body;
    let target =
      List.find_opt
        (fun (e : Analysis.Depgraph.edge) ->
          e.Analysis.Depgraph.kind = Analysis.Depgraph.Real
          && Hashtbl.mem by_id e.Analysis.Depgraph.first
          && Hashtbl.mem by_id e.Analysis.Depgraph.second)
        (Analysis.Depgraph.edges o.Opt.Optimizer.deps)
    in
    match target with
    | None -> None
    | Some e ->
      let width id =
        Option.value
          (Ir.Instr.mem_width (Hashtbl.find by_id id))
          ~default:4
      in
      let fact instr k =
        {
          Analysis.Disamb.instr;
          width = width instr;
          origin = Analysis.Absint.Const;
          scale = 0;
          off = { Analysis.Absint.lo = k; hi = k; stride = 0; rem = 0 };
        }
      in
      let w =
        {
          Analysis.Disamb.x = fact e.Analysis.Depgraph.first 0;
          y = fact e.Analysis.Depgraph.second 4096;
          reason = Analysis.Disamb.Ranges;
        }
      in
      Some (with_cert o (w :: witnesses_of o)))

(* Desynchronize the region's certified list from the certificate. *)
let desync_region_cert (o : Opt.Optimizer.t) =
  match o.Opt.Optimizer.cert with
  | None -> None
  | Some _ ->
    let region = o.Opt.Optimizer.region in
    let max_id =
      List.fold_left
        (fun acc (i : Ir.Instr.t) -> max acc i.Ir.Instr.id)
        0 region.Ir.Region.source.Ir.Superblock.body
    in
    Some
      (with_region o
         {
           region with
           Ir.Region.certified_no_alias =
             (max_id + 1, max_id + 2) :: region.Ir.Region.certified_no_alias;
         })

(* Point a witness at a non-memory instruction. *)
let bogus_witness_endpoint (o : Opt.Optimizer.t) =
  match witnesses_of o with
  | [] -> None
  | (w : Analysis.Disamb.witness) :: rest -> (
    let body = o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
    match
      List.find_opt (fun (i : Ir.Instr.t) -> not (Ir.Instr.is_memory i)) body
    with
    | None -> None
    | Some i ->
      let fx =
        { w.Analysis.Disamb.x with Analysis.Disamb.instr = i.Ir.Instr.id }
      in
      Some (with_cert o ({ w with Analysis.Disamb.x = fx } :: rest)))

let mutants (o : Opt.Optimizer.t) =
  List.filter_map
    (fun (m, apply) -> Option.map (fun o' -> (m, o')) (apply o))
    [
      (Drop_check, drop_check);
      (Swap_orders, swap_orders);
      (Widen_offset, widen_offset);
      (Delete_amov, delete_amov);
      (Drop_advanced, drop_advanced);
      (Clear_mask_bit, clear_mask_bit);
      (Hoist_across_hazard, hoist_across_hazard);
      (Delete_instr, delete_instr);
      (Over_rotate, over_rotate);
      (Shift_witness_range, shift_witness_range);
      (Widen_witness_range, widen_witness_range);
      (Swap_witness_origin, swap_witness_origin);
      (Drop_witness, drop_witness);
      (Forge_witness, forge_witness);
      (Desync_region_cert, desync_region_cert);
      (Bogus_witness_endpoint, bogus_witness_endpoint);
    ]

type outcome = {
  mutation : mutation;
  killed : bool;
  rules_hit : Verifier.rule list;
}

type summary = {
  baseline_pass : bool;
  total : int;
  killed : int;
  outcomes : outcome list;
}

let run ~issue_width ~mem_ports ~latency (o : Opt.Optimizer.t) =
  let verify = Verifier.verify ~issue_width ~mem_ports ~latency in
  let baseline_pass = verify o = Verifier.Pass in
  let outcomes =
    List.map
      (fun (m, o') ->
        let rules_hit =
          match verify o' with
          | Verifier.Pass -> []
          | Verifier.Reject vs ->
            List.sort_uniq compare
              (List.map (fun (v : Verifier.violation) -> v.Verifier.rule) vs)
        in
        let expected = expected_rules m in
        let killed = List.exists (fun r -> List.mem r expected) rules_hit in
        { mutation = m; killed; rules_hit })
      (mutants o)
  in
  {
    baseline_pass;
    total = List.length outcomes;
    killed = List.length (List.filter (fun (oc : outcome) -> oc.killed) outcomes);
    outcomes;
  }

let pp_summary ppf s =
  Format.fprintf ppf "baseline %s, %d/%d mutants killed"
    (if s.baseline_pass then "pass" else "REJECT")
    s.killed s.total;
  List.iter
    (fun (oc : outcome) ->
      if not oc.killed then
        Format.fprintf ppf "@ SURVIVOR: %s (hit: %s)"
          (mutation_name oc.mutation)
          (String.concat "," (List.map Verifier.rule_name oc.rules_hit)))
    s.outcomes
