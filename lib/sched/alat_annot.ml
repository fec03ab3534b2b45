let annotate ~body ~deps ~hazards ~issue ~ar_count =
  let n = Array.length issue in
  (* issue index of each body position; [max_int] for an id outside the
     body, which never issues *)
  let rank = Array.make n 0 in
  for k = 0 to n - 1 do
    rank.(issue.(k)) <- k
  done;
  let pos id =
    let p = Hazards.position hazards id in
    if p < 0 then max_int else rank.(p)
  in
  let advanced = Bytes.make n '\000' in
  let advance id =
    let p = Hazards.position hazards id in
    if p >= 0 then Bytes.set advanced p '\001'
  in
  (* dropped (store, load) pairs where the load really moved above *)
  Array.iter
    (fun key ->
      let first = Analysis.Pair_key.first key
      and second = Analysis.Pair_key.second key in
      if pos second < pos first then advance second)
    hazards.Hazards.dropped;
  (* forwarding sources: the [second] of an extended dependence *)
  Analysis.Depgraph.iter_edges deps
    (fun ~first:_ ~second ~kind ~strength:_ ->
      match kind with
      | Analysis.Depgraph.Extended -> advance second
      | Analysis.Depgraph.Real -> ());
  let is_advanced_load p =
    Ir.Instr.is_load body.(p) && Bytes.get advanced p <> '\000'
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
     before the check and the optimizer must fall back.  [before.(k)]
     counts the advanced loads among the first [k] issued, so a
     window's count is one subtraction.  The first overflowing window
     wins, dropped pairs before dependences. *)
  let before = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    before.(k + 1) <- (before.(k) + if is_advanced_load issue.(k) then 1 else 0)
  done;
  let overflowing = ref (-1) in
  let note_window first second =
    if !overflowing < 0 then begin
      let pf = pos first and ps = pos second in
      if ps < pf && pf <> max_int then begin
        let inserted = before.(pf) - before.(ps + 1) in
        if inserted >= ar_count then overflowing := inserted
      end
    end
  in
  Array.iter
    (fun key ->
      note_window (Analysis.Pair_key.first key) (Analysis.Pair_key.second key))
    hazards.Hazards.dropped;
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind:_ ~strength:_ ->
      note_window first second);
  if !overflowing >= 0 then
    Error
      (Printf.sprintf
         "%d advanced loads inside a protection window evict the entry \
          before its check (%d-entry ALAT)"
         !overflowing ar_count)
  else
    Ok
      (Array.init n (fun p ->
           let i = body.(p) in
           if is_advanced_load p then Ir.Annot.alat ~advanced:true
           else if Ir.Instr.is_store i then Ir.Annot.alat ~advanced:false
           else Ir.Annot.none))
