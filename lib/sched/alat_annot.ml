let annotate ~sb ~deps ~hazards ~issue_order ~ar_count =
  ignore sb;
  let issue_pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (_, (i : Ir.Instr.t)) -> Hashtbl.replace issue_pos i.id idx)
    issue_order;
  let pos id = Option.value (Hashtbl.find_opt issue_pos id) ~default:max_int in
  let advanced = Hashtbl.create 16 in
  (* dropped (store, load) pairs where the load really moved above *)
  List.iter
    (fun (first, second) ->
      if pos second < pos first then Hashtbl.replace advanced second ())
    Hazards.(hazards.dropped);
  (* forwarding sources: the [second] of an extended dependence *)
  Analysis.Depgraph.iter_edges deps
    (fun ~first:_ ~second ~kind ~strength:_ ->
      match kind with
      | Analysis.Depgraph.Extended -> Hashtbl.replace advanced second ()
      | Analysis.Depgraph.Real -> ());
  let annots =
    List.filter_map
      (fun (_, (i : Ir.Instr.t)) ->
        if Ir.Instr.is_load i && Hashtbl.mem advanced i.id then
          Some (i.id, Ir.Annot.alat ~advanced:true)
        else if Ir.Instr.is_store i then
          Some (i.id, Ir.Annot.alat ~advanced:false)
        else None)
      issue_order
  in
  (* The ALAT holds [ar_count] entries and evicts the oldest on
     overflow — an evicted advanced load silently loses its protection
     (the modeled hardware, unlike Itanium's chk.a, cannot fail
     conservatively on a missing entry).  A total population above
     [ar_count] is fine as long as each entry survives until the store
     it guards snoops the table: the precise bound is per protection
     window.  Count the advanced loads issued strictly between a
     reordered load and the store it was hoisted above; if [ar_count]
     or more fit inside that window, FIFO eviction can drop the entry
     before the check and the optimizer must fall back. *)
  let flat = Array.of_list (List.map snd issue_order) in
  let advanced_inside ~ps ~pf =
    let inserted = ref 0 in
    for p = ps + 1 to pf - 1 do
      let j = flat.(p) in
      if Ir.Instr.is_load j && Hashtbl.mem advanced j.id then incr inserted
    done;
    !inserted
  in
  let windows = ref [] in
  let note_window first second =
    let pf = pos first and ps = pos second in
    if ps < pf && pf <> max_int then windows := (ps, pf) :: !windows
  in
  List.iter
    (fun (first, second) -> note_window first second)
    Hazards.(hazards.dropped);
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind:_ ~strength:_ ->
      note_window first second);
  let overflowing =
    List.find_map
      (fun (ps, pf) ->
        let inserted = advanced_inside ~ps ~pf in
        if inserted >= ar_count then Some inserted else None)
      (List.rev !windows)
  in
  match overflowing with
  | Some inserted ->
    Error
      (Printf.sprintf
         "%d advanced loads inside a protection window evict the entry \
          before its check (%d-entry ALAT)"
         inserted ar_count)
  | None -> Ok annots
