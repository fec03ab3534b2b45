(* Test oracle for [Sched.Mask_alloc]: the Efficeon-like bit-mask
   annotator as it stood before it read the scheduler's issue arrays,
   moved here verbatim (id-keyed tables over the (cycle, instruction)
   issue list and a sorted pair list).  The library annotator must give
   every instruction the same annotation and fail on the same
   instruction. *)

(* Which (protected, checker) pairs need a runtime check?  Exactly the
   pairs SMARQ would check: a dependence realized out of order, or an
   extended dependence in either order.  The protected op is whichever
   of the pair issues first; the checker issues second. *)
let check_pairs ~deps ~hazards ~pos =
  let keys = ref [] in
  let add a b = keys := Analysis.Pair_key.pack a b :: !keys in
  Analysis.Depgraph.iter_edges deps
    (fun ~first:a ~second:b ~kind ~strength ->
      match kind, strength with
      | Analysis.Depgraph.Real, Analysis.Depgraph.Hard ->
        (* order enforced by a hazard edge; never reordered, no check *)
        ()
      | Analysis.Depgraph.Real, Analysis.Depgraph.Speculative ->
        (* checked only if actually reordered (b issued before a) *)
        if pos b < pos a then add b a
      | Analysis.Depgraph.Extended, _ ->
        (* always checked, in whichever issue order the pair landed.
           Hard extended edges are checked too: unlike real hard
           edges no hazard pins the pair's order, so an elimination
           whose span a known-alias store crosses (reoptimization
           feeds observed pairs back as must-alias, and pairwise
           verdicts are not transitive) still needs its runtime
           guard — the SMARQ and ALAT annotators already cover
           extended edges of either strength. *)
        if pos a < pos b then add a b else add b a);
  (* only pairs whose edge was really dropped need checking; realized
     reorderings of dropped edges are already covered above, but a
     non-dropped pair cannot be reordered, so the filter is implicit *)
  ignore hazards;
  let keys = Array.of_list !keys in
  Array.sort Int.compare keys;
  Analysis.Pair_key.to_pairs keys ~len:(Array.length keys)

let annotate ~deps ~hazards ~issue_order ~ar_count =
  let issue_pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (_, (i : Ir.Instr.t)) -> Hashtbl.replace issue_pos i.id idx)
    issue_order;
  let pos id = Option.value (Hashtbl.find_opt issue_pos id) ~default:max_int in
  let pairs = check_pairs ~deps ~hazards ~pos in
  (* protected -> last checker issue position *)
  let last_checker = Hashtbl.create 16 in
  List.iter
    (fun (p, c) ->
      let cur = Option.value (Hashtbl.find_opt last_checker p) ~default:(-1) in
      Hashtbl.replace last_checker p (max cur (pos c)))
    pairs;
  (* greedy register assignment in issue order *)
  let reg_of = Hashtbl.create 16 in
  let free_at = Array.make ar_count (-1) in  (* issue pos after which free *)
  let rec assign = function
    | [] -> Ok ()
    | (_, (i : Ir.Instr.t)) :: rest -> (
      match Hashtbl.find_opt last_checker i.id with
      | None -> assign rest
      | Some last -> (
        let here = pos i.id in
        let rec find k =
          if k >= ar_count then None
          else if free_at.(k) < here then Some k
          else find (k + 1)
        in
        match find 0 with
        | None ->
          Error (Printf.sprintf "no free mask register for instr %d" i.id)
        | Some k ->
          free_at.(k) <- last;
          Hashtbl.replace reg_of i.id k;
          assign rest))
  in
  match assign issue_order with
  | Error reason -> Error reason
  | Ok () ->
    (* build annotations *)
    let masks = Hashtbl.create 16 in
    List.iter
      (fun (p, c) ->
        match Hashtbl.find_opt reg_of p with
        | Some k ->
          let m = Option.value (Hashtbl.find_opt masks c) ~default:0 in
          Hashtbl.replace masks c (m lor (1 lsl k))
        | None -> ())
      pairs;
    Ok
      (List.filter_map
         (fun (_, (i : Ir.Instr.t)) ->
           let set_index = Hashtbl.find_opt reg_of i.id in
           let check_mask =
             Option.value (Hashtbl.find_opt masks i.id) ~default:0
           in
           if set_index = None && check_mask = 0 then None
           else Some (i.id, Ir.Annot.mask ~set_index ~check_mask))
         issue_order)
