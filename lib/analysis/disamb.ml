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

(* [keys] ascending and duplicate-free [Pair_key.norm] keys;
   [ws.(x)] is the witness of [keys.(x)] *)
type t = {
  keys : int array;
  ws : witness array;
}

let key_of w = Pair_key.norm w.x.instr w.y.instr

(* The certificate of [m] witnesses given newest first.  Positions are
   sorted by (key, age), so each run of equal keys ends with the newest
   witness, the one kept.  Only a forged list ([of_witnesses]) can name
   a pair twice: [certify] visits each pair of a body once. *)
let of_rev_list rev m =
  match rev with
  | [] -> { keys = [||]; ws = [||] }
  | newest :: _ ->
    let ws = Array.make m newest in
    List.iteri (fun x w -> ws.(m - 1 - x) <- w) rev;
    let keys = Array.map key_of ws in
    let order = Array.init m Fun.id in
    Arena.sort_by order ~lo:0 ~hi:m ~cmp:(fun a b ->
        let c = Int.compare keys.(a) keys.(b) in
        if c <> 0 then c else Int.compare a b);
    let last x = x = m - 1 || keys.(order.(x)) <> keys.(order.(x + 1)) in
    let distinct = ref 0 in
    for x = 0 to m - 1 do
      if last x then incr distinct
    done;
    let out_keys = Array.make !distinct 0 and out_ws = Array.make !distinct newest in
    let k = ref 0 in
    for x = 0 to m - 1 do
      if last x then begin
        out_keys.(!k) <- keys.(order.(x));
        out_ws.(!k) <- ws.(order.(x));
        incr k
      end
    done;
    { keys = out_keys; ws = out_ws }

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
  let found = ref [] and count = ref 0 in
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
              found :=
                {
                  x = fact_of_value x.Ir.Instr.id wx vx;
                  y = fact_of_value y.Ir.Instr.id wy vy;
                  reason;
                }
                :: !found;
              incr count
            | None -> ()
          end
      done
  done;
  of_rev_list !found !count

let no_alias t a b = Pair_key.mem t.keys (Pair_key.norm a b)
let keys t = t.keys
let pairs t = Pair_key.to_pairs t.keys ~len:(Array.length t.keys)
let witnesses t = t.ws
let of_witnesses ws = of_rev_list (List.rev ws) (List.length ws)
let count t = Array.length t.keys
