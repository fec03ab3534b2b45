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

(* certified pairs keyed by [Pair_key.norm] *)
type t = { table : (int, witness) Hashtbl.t }

let fact_of_value instr width (v : Absint.value) =
  {
    instr;
    width;
    origin = v.Absint.origin;
    scale = v.Absint.scale;
    off = v.Absint.off;
  }

(* Addresses are looked up once per memory operation; the pair loop
   then allocates only for the pairs it certifies. *)
let certify ~alias ~body =
  let table = Hashtbl.create 32 in
  let facts =
    match May_alias.const_facts alias with
    | Some facts -> facts
    | None -> Absint.analyze ~body
  in
  let mems = List.filter Ir.Instr.is_memory body |> Array.of_list in
  let addrs = Array.map (fun (x : Ir.Instr.t) -> Absint.address facts x.id) mems in
  let n = Array.length mems in
  for i = 0 to n - 1 do
    match addrs.(i) with
    | None -> ()
    | Some (vx, wx) ->
      let x = mems.(i) in
      for j = i + 1 to n - 1 do
        match addrs.(j) with
        | None -> ()
        | Some (vy, wy) ->
          let y = mems.(j) in
          if
            (Ir.Instr.is_store x || Ir.Instr.is_store y)
            && May_alias.verdict alias x y = May_alias.May_alias
          then begin
            match Absint.separated vx wx vy wy with
            | Some sep ->
              let reason =
                match sep with
                | Absint.Ranges -> Ranges
                | Absint.Congruence g -> Congruence g
              in
              Hashtbl.replace table
                (Pair_key.norm x.Ir.Instr.id y.Ir.Instr.id)
                {
                  x = fact_of_value x.Ir.Instr.id wx vx;
                  y = fact_of_value y.Ir.Instr.id wy vy;
                  reason;
                }
            | None -> ()
          end
      done
  done;
  { table }

let no_alias t a b = Hashtbl.mem t.table (Pair_key.norm a b)

(* the certified keys, ascending — pair order, by the packing *)
let sorted_keys t =
  let keys = Array.make (Hashtbl.length t.table) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun key _ ->
      keys.(!k) <- key;
      incr k)
    t.table;
  Array.sort Int.compare keys;
  keys

let pairs t =
  let keys = sorted_keys t in
  Pair_key.to_pairs keys ~len:(Array.length keys)

let witnesses t =
  Array.fold_right
    (fun key acc -> Hashtbl.find t.table key :: acc)
    (sorted_keys t) []

let of_witnesses ws =
  let table = Hashtbl.create (List.length ws * 2) in
  List.iter
    (fun w -> Hashtbl.replace table (Pair_key.norm w.x.instr w.y.instr) w)
    ws;
  { table }

let count t = Hashtbl.length t.table
