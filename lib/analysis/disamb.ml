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

(* The certificate of [m] witnesses, [key x] and [witness x] for
   [x < m] in the order they were found.  [order] (capacity [m]) is
   sorted by (key, x), so each run of equal keys ends with the latest
   witness, the one kept; the kept entries are compacted to the front
   and [witness] is called for them only.  Only a forged list
   ([of_witnesses]) or a body that repeats an id can name a pair
   twice. *)
let assemble ~order m ~key ~witness =
  for x = 0 to m - 1 do
    order.(x) <- x
  done;
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
  {
    keys = Array.init !kept (fun k -> key order.(k));
    ws = Array.init !kept (fun k -> witness order.(k));
  }

(* A fact placeholder, told apart by physical equality. *)
let no_fact =
  { instr = -1; width = 0; origin = Absint.Const; scale = 0; off = Absint.point 0 }

(* Addresses are read by memory-op position, and the pair loop records
   each certified pair as three ints (both positions and the
   separation code) in a leased vector: nothing is allocated per
   examined pair.  The certificate then makes one witness per
   certified pair and one fact per memory op it names, shared by every
   witness naming that op. *)
let certify ?arena ~alias ~body () =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let facts =
    match May_alias.const_facts alias with
    | Some facts -> facts
    | None -> Absint.analyze ~arena ~body ()
  in
  let m = Absint.mem_count facts in
  let found = Arena.vec arena ~slot:3 in
  for i = 0 to m - 1 do
    if Absint.has_address facts i then begin
      let x = Absint.mem facts i in
      for j = i + 1 to m - 1 do
        let y = Absint.mem facts j in
        if
          Absint.has_address facts j
          && (Ir.Instr.is_store x || Ir.Instr.is_store y)
          && May_alias.verdict alias x y = May_alias.May_alias
        then begin
          let sep = Absint.separation facts i j in
          if sep >= 0 then begin
            Arena.vec_push found i;
            Arena.vec_push found j;
            Arena.vec_push found sep
          end
        end
      done
    end
  done;
  let c = found.Arena.len / 3 in
  if c = 0 then { keys = [||]; ws = [||] }
  else begin
    let f = found.Arena.buf in
    let keys = Arena.ints arena ~slot:40 c in
    for x = 0 to c - 1 do
      keys.(x) <-
        Pair_key.norm (Absint.mem facts f.(3 * x)).Ir.Instr.id
          (Absint.mem facts f.((3 * x) + 1)).Ir.Instr.id
    done;
    let shared = Array.make m no_fact in
    let fact k =
      if shared.(k) == no_fact then begin
        let v = Absint.value_at facts k in
        shared.(k) <-
          {
            instr = (Absint.mem facts k).Ir.Instr.id;
            width = Absint.width facts k;
            origin = v.Absint.origin;
            scale = v.Absint.scale;
            off = v.Absint.off;
          }
      end;
      shared.(k)
    in
    assemble ~order:(Arena.ints arena ~slot:41 c) c
      ~key:(fun x -> keys.(x))
      ~witness:(fun x ->
        let sep = f.((3 * x) + 2) in
        {
          x = fact f.(3 * x);
          y = fact f.((3 * x) + 1);
          reason = (if sep = 0 then Ranges else Congruence sep);
        })
  end

let no_alias t a b = Pair_key.mem t.keys (Pair_key.norm a b)
let keys t = t.keys
let pairs t = Pair_key.to_pairs t.keys ~len:(Array.length t.keys)
let witnesses t = t.ws
let of_witnesses ws =
  let ws = Array.of_list ws in
  let m = Array.length ws in
  assemble ~order:(Array.make m 0) m
    ~key:(fun x -> key_of ws.(x))
    ~witness:(fun x -> ws.(x))
let count t = Array.length t.keys
