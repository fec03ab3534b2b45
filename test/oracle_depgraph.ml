(* Test oracle for [Analysis.Depgraph]: the seed's O(n^2) pairwise
   real-dependence builder, moved here verbatim — a full may-alias
   verdict per (earlier, later) memory pair with at least one store.
   The swept builder must reproduce its edge list exactly: same pairs,
   same strengths, same order. *)

open Analysis.Depgraph

let strength_of = function
  | Analysis.May_alias.Must_alias -> Some Hard
  | Analysis.May_alias.May_alias -> Some Speculative
  | Analysis.May_alias.No_alias -> None

let real_edges ~body ~alias =
  let mems = Array.of_list (List.filter Ir.Instr.is_memory body) in
  let n = Array.length mems in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = mems.(i) and y = mems.(j) in
      if Ir.Instr.is_store x || Ir.Instr.is_store y then
        match strength_of (Analysis.May_alias.verdict alias x y) with
        | Some strength ->
          acc := { first = x.id; second = y.id; kind = Real; strength } :: !acc
        | None -> ()
    done
  done;
  List.rev !acc
