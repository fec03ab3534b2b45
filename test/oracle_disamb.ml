(* The certificate as records: the certifier as it was before the
   certificate went flat, kept as the oracle its record view
   ([Disamb.witnesses]) is held to.  The same pair loop over the
   product's [Absint] facts, then one witness record per certified pair
   and one shared fact per memory op a witness names, sorted by
   normalized pair key with the latest witness of a repeated pair
   kept. *)

module D = Analysis.Disamb
module Absint = Analysis.Absint
module Arena = Analysis.Arena
module Pair_key = Analysis.Pair_key
module May_alias = Analysis.May_alias

(* The certificate of [m] witnesses, [key x] and [witness x] for
   [x < m] in the order they were found: sorted by (key, x), one per
   key, the latest. *)
let assemble m ~key ~witness =
  let order = Array.init m Fun.id in
  Arena.sort_by order ~lo:0 ~hi:m ~cmp:(fun a b ->
      let c = Int.compare (key a) (key b) in
      if c <> 0 then c else Int.compare a b);
  let kept = ref 0 in
  for x = 0 to m - 1 do
    if x = m - 1 || key order.(x) <> key order.(x + 1) then begin
      order.(!kept) <- order.(x);
      incr kept
    end
  done;
  (Array.init !kept (fun k -> key order.(k)), Array.init !kept (fun k -> witness order.(k)))

(* The keys and witnesses [Disamb.certify] proves for [body]. *)
let certify ~alias ~body =
  let facts =
    match May_alias.const_facts alias with
    | Some facts -> facts
    | None -> Absint.analyze ~body ()
  in
  let m = Absint.mem_count facts in
  let found = ref [] in
  for i = m - 1 downto 0 do
    if Absint.has_address facts i then begin
      let x = Absint.mem facts i in
      for j = m - 1 downto i + 1 do
        let y = Absint.mem facts j in
        if
          Absint.has_address facts j
          && (Ir.Instr.is_store x || Ir.Instr.is_store y)
          && May_alias.verdict alias x y = May_alias.May_alias
        then begin
          let sep = Absint.separation facts i j in
          if sep >= 0 then found := (i, j, sep) :: !found
        end
      done
    end
  done;
  let found = Array.of_list !found in
  let shared = Hashtbl.create 16 in
  let fact k =
    match Hashtbl.find_opt shared k with
    | Some f -> f
    | None ->
      let v = Absint.value_at facts k in
      let f =
        {
          D.instr = (Absint.mem facts k).Ir.Instr.id;
          width = Absint.width facts k;
          origin = v.Absint.origin;
          scale = v.Absint.scale;
          off = v.Absint.off;
        }
      in
      Hashtbl.add shared k f;
      f
  in
  assemble (Array.length found)
    ~key:(fun x ->
      let i, j, _ = found.(x) in
      Pair_key.norm (Absint.mem facts i).Ir.Instr.id (Absint.mem facts j).Ir.Instr.id)
    ~witness:(fun x ->
      let i, j, sep = found.(x) in
      { D.x = fact i; y = fact j; reason = (if sep = 0 then D.Ranges else D.Congruence sep) })
