(* Test oracle for [Analysis.Depgraph]: the seed's O(n^2) pairwise
   real-dependence builder, moved here verbatim — a full may-alias
   verdict per (earlier, later) memory pair with at least one store.
   The swept builder must reproduce its edge list exactly: same pairs,
   same strengths, same order.

   The builder buckets by [May_alias.generation]; to keep this
   differential independent of that key, the oracle decides same-base
   pairs with the seed's own redefinition rule (a sorted list of
   definition positions per register, scanned over the half-open
   interval between the two operations).  Recorded alias pairs,
   cross-base constant addresses and certification still come from
   [May_alias.verdict]. *)

open Analysis.Depgraph
module MA = Analysis.May_alias

let strength_of = function
  | MA.Must_alias -> Some Hard
  | MA.May_alias -> Some Speculative
  | MA.No_alias -> None

let same_base_verdict ~body ~alias =
  let position = Hashtbl.create 64 in
  List.iteri (fun idx (i : Ir.Instr.t) -> Hashtbl.replace position i.id idx)
    body;
  let def_positions = Hashtbl.create 64 in
  List.iteri
    (fun idx (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          let l = Option.value (Hashtbl.find_opt def_positions r) ~default:[] in
          Hashtbl.replace def_positions r (idx :: l))
        (Ir.Instr.defs i))
    body;
  Hashtbl.iter
    (fun r l -> Hashtbl.replace def_positions r (List.rev l))
    (Hashtbl.copy def_positions);
  (* Is [r] (re)defined at any body index in [lo, hi)? *)
  let defined_in r ~lo ~hi =
    match Hashtbl.find_opt def_positions r with
    | None -> false
    | Some l -> List.exists (fun k -> k >= lo && k < hi) l
  in
  let ranges_overlap d1 w1 d2 w2 = d1 < d2 + w2 && d2 < d1 + w1 in
  fun (x : Ir.Instr.t) (y : Ir.Instr.t) ->
    match Ir.Instr.mem_addr x, Ir.Instr.mem_addr y with
    | Some ax, Some ay
      when Ir.Reg.equal ax.base ay.base && not (MA.is_known alias x.id y.id)
      -> (
      match Hashtbl.find_opt position x.id, Hashtbl.find_opt position y.id with
      | Some px, Some py ->
        let lo = min px py and hi = max px py in
        if defined_in ax.base ~lo ~hi then
          if MA.certified alias x.id y.id then MA.No_alias else MA.May_alias
        else begin
          let wx = Option.value (Ir.Instr.mem_width x) ~default:1 in
          let wy = Option.value (Ir.Instr.mem_width y) ~default:1 in
          if ranges_overlap ax.disp wx ay.disp wy then MA.Must_alias
          else MA.No_alias
        end
      | _ -> MA.verdict alias x y)
    | _ -> MA.verdict alias x y

let real_edges ~body ~alias =
  let verdict = same_base_verdict ~body ~alias in
  let mems = Array.of_list (List.filter Ir.Instr.is_memory body) in
  let n = Array.length mems in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = mems.(i) and y = mems.(j) in
      if Ir.Instr.is_store x || Ir.Instr.is_store y then
        match strength_of (verdict x y) with
        | Some strength ->
          acc := { first = x.id; second = y.id; kind = Real; strength } :: !acc
        | None -> ()
    done
  done;
  List.rev !acc
