(* Which (protected, checker) pairs need a runtime check?  Exactly the
   pairs SMARQ would check: a dependence realized out of order, or an
   extended dependence in either order.  The protected op is whichever
   of the pair issues first; the checker issues second.  [f] gets the
   pair's body positions, -1 for an id outside the body; [rank] is the
   issue index of each body position.  What the annotator derives from
   the pairs — each protected op's last checker, each checker's mask —
   is a max and an or, so it does not depend on the order they come
   in, and a pair met twice changes nothing. *)
let iter_check_pairs ~deps ~hazards ~rank f =
  let pos p = if p < 0 then max_int else rank.(p) in
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      let a = Hazards.position hazards first
      and b = Hazards.position hazards second in
      match kind, strength with
      | Analysis.Depgraph.Real, Analysis.Depgraph.Hard ->
        (* order enforced by a hazard edge; never reordered, no check *)
        ()
      | Analysis.Depgraph.Real, Analysis.Depgraph.Speculative ->
        (* checked only if actually reordered (b issued before a) *)
        if pos b < pos a then f b a
      | Analysis.Depgraph.Extended, _ ->
        (* always checked, in whichever issue order the pair landed.
           Hard extended edges are checked too: unlike real hard
           edges no hazard pins the pair's order, so an elimination
           whose span a known-alias store crosses (reoptimization
           feeds observed pairs back as must-alias, and pairwise
           verdicts are not transitive) still needs its runtime
           guard — the SMARQ and ALAT annotators already cover
           extended edges of either strength. *)
        if pos a < pos b then f a b else f b a)

let annotate ~deps ~hazards ~issue ~ar_count =
  let n = Array.length issue in
  let rank = Array.make n 0 in
  for k = 0 to n - 1 do
    rank.(issue.(k)) <- k
  done;
  (* protected position -> issue index of its last checker, -1 for an
     op nothing checks *)
  let last = Array.make n (-1) in
  iter_check_pairs ~deps ~hazards ~rank (fun p c ->
      if p >= 0 then begin
        let at = if c < 0 then max_int else rank.(c) in
        if at > last.(p) then last.(p) <- at
      end);
  (* greedy register assignment in issue order *)
  let reg = Array.make n (-1) in
  let free_at = Array.make ar_count (-1) in  (* issue index after which free *)
  let rec assign k =
    if k >= n then Ok ()
    else
      let p = issue.(k) in
      if last.(p) < 0 then assign (k + 1)
      else begin
        let r = ref 0 in
        while !r < ar_count && free_at.(!r) >= k do
          incr r
        done;
        if !r >= ar_count then
          Error
            (Printf.sprintf "no free mask register for instr %d"
               hazards.Hazards.ids.(p))
        else begin
          free_at.(!r) <- last.(p);
          reg.(p) <- !r;
          assign (k + 1)
        end
      end
  in
  match assign 0 with
  | Error reason -> Error reason
  | Ok () ->
    (* checker position -> the registers it checks; [last] is done *)
    let mask = last in
    Array.fill mask 0 n 0;
    iter_check_pairs ~deps ~hazards ~rank (fun p c ->
        if p >= 0 && c >= 0 && reg.(p) >= 0 then
          mask.(c) <- mask.(c) lor (1 lsl reg.(p)));
    Ok
      (Array.init n (fun p ->
           if reg.(p) < 0 && mask.(p) = 0 then Ir.Annot.none
           else
             Ir.Annot.mask
               ~set_index:(if reg.(p) < 0 then None else Some reg.(p))
               ~check_mask:mask.(p)))
