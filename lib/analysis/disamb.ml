type fact = {
  instr : int;
  width : int;
  origin : Absint.origin;
  scale : int;
  off : Absint.cset;
}

type reason = Ranges | Congruence of int

type witness = {
  x : fact;
  y : fact;
  reason : reason;
}

type t = { table : (int * int, witness) Hashtbl.t }

let norm_pair a b = if a <= b then (a, b) else (b, a)

let fact_of_value instr width (v : Absint.value) =
  {
    instr;
    width;
    origin = v.Absint.origin;
    scale = v.Absint.scale;
    off = v.Absint.off;
  }

let certify ~alias ~body =
  let table = Hashtbl.create 32 in
  let facts = Absint.analyze ~body in
  let mems =
    List.filter Ir.Instr.is_memory body |> Array.of_list
  in
  let n = Array.length mems in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = mems.(i) and y = mems.(j) in
      if Ir.Instr.is_store x || Ir.Instr.is_store y then
        if May_alias.verdict alias x y = May_alias.May_alias then begin
          match
            ( Absint.address facts x.Ir.Instr.id,
              Absint.address facts y.Ir.Instr.id )
          with
          | Some (vx, wx), Some (vy, wy) -> (
            match Absint.separated vx wx vy wy with
            | Some sep ->
              let reason =
                match sep with
                | Absint.Ranges -> Ranges
                | Absint.Congruence g -> Congruence g
              in
              Hashtbl.replace table
                (norm_pair x.Ir.Instr.id y.Ir.Instr.id)
                {
                  x = fact_of_value x.Ir.Instr.id wx vx;
                  y = fact_of_value y.Ir.Instr.id wy vy;
                  reason;
                }
            | None -> ())
          | _ -> ()
        end
    done
  done;
  { table }

let no_alias t a b = Hashtbl.mem t.table (norm_pair a b)

let pairs t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.table [] |> List.sort compare

let witnesses t =
  Hashtbl.fold (fun p w acc -> (p, w) :: acc) t.table []
  |> List.sort (fun (p1, _) (p2, _) -> compare p1 p2)
  |> List.map snd

let of_witnesses ws =
  let table = Hashtbl.create (List.length ws * 2) in
  List.iter
    (fun w -> Hashtbl.replace table (norm_pair w.x.instr w.y.instr) w)
    ws;
  { table }

let count t = Hashtbl.length t.table

