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

(* [keys] ascending and duplicate-free [Pair_key.norm] keys.  Pair [k]
   (the pair of [keys.(k)]) names its two endpoints' facts by index into
   [facts], packed as [Pair_key.pack x y] in [ends.(k)] with [x] the
   earlier op in body order, and its separation argument as
   [seps.(k)]: 0 for [Ranges], [g > 0] for [Congruence g]. *)
type t = {
  keys : int array;
  facts : fact array;
  ends : int array;
  seps : int array;
}

let empty = { keys = [||]; facts = [||]; ends = [||]; seps = [||] }

(* Sort the [m] candidates [x < m], held in [order] (capacity [m]), by
   (key, x) and compact one per key to the front: each run of equal keys
   ends with the latest candidate, the one kept.  Returns how many are
   kept.  Only a forged list ([of_witnesses]) or a body that repeats an
   id can name a pair twice. *)
let dedupe ~order m ~key =
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
  !kept

(* A fact placeholder for the arrays below.  [Array.make] over more
   than 256 cells with a young value forces a minor collection; this
   one was promoted long ago. *)
let no_fact =
  { instr = -1; width = 0; origin = Absint.Const; scale = 0; off = Absint.point 0 }

(* The certifiable pairs of [body], as memory-op positions and
   separation codes: triples [(i, j, sep)] in [found] (arena vector
   slot 3), [i < j].  Addresses are read by memory-op position, so
   nothing is allocated per examined pair. *)
let find ~arena ~alias ~body =
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
  (facts, found)

(* the id pair key of found triple [x] *)
let found_key facts (f : int array) x =
  Pair_key.norm (Absint.mem facts f.(3 * x)).Ir.Instr.id
    (Absint.mem facts f.((3 * x) + 1)).Ir.Instr.id

let certified_keys ?arena ~alias ~body () =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let facts, found = find ~arena ~alias ~body in
  let c = found.Arena.len / 3 in
  let keys = Arena.ints arena ~slot:40 c in
  for x = 0 to c - 1 do
    keys.(x) <- found_key facts found.Arena.buf x
  done;
  Arena.sort_ints keys ~lo:0 ~hi:c;
  Pair_key.sorted_unique keys ~len:c

(* The certificate is three int arrays over its pairs and one fact per
   memory op a pair names, numbered in body order: nothing is allocated
   per certified pair but its three cells. *)
let certify ?arena ~alias ~body () =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let facts, found = find ~arena ~alias ~body in
  let c = found.Arena.len / 3 in
  if c = 0 then empty
  else begin
    let f = found.Arena.buf in
    let key_of = Arena.ints arena ~slot:40 c in
    for x = 0 to c - 1 do
      key_of.(x) <- found_key facts f x
    done;
    let order = Arena.ints arena ~slot:41 c in
    let kept = dedupe ~order c ~key:(fun x -> key_of.(x)) in
    (* the fact index of each named memory op, -1 for the others *)
    let m = Absint.mem_count facts in
    let fact_of = Arena.filled_ints arena ~slot:42 m (-1) in
    for k = 0 to kept - 1 do
      let x = order.(k) in
      fact_of.(f.(3 * x)) <- 0;
      fact_of.(f.((3 * x) + 1)) <- 0
    done;
    let named = ref 0 in
    for i = 0 to m - 1 do
      if fact_of.(i) >= 0 then begin
        fact_of.(i) <- !named;
        incr named
      end
    done;
    let shared = Array.make !named no_fact in
    for i = 0 to m - 1 do
      if fact_of.(i) >= 0 then begin
        let v = Absint.value_at facts i in
        shared.(fact_of.(i)) <-
          {
            instr = (Absint.mem facts i).Ir.Instr.id;
            width = Absint.width facts i;
            origin = v.Absint.origin;
            scale = v.Absint.scale;
            off = v.Absint.off;
          }
      end
    done;
    let keys = Array.make kept 0 and ends = Array.make kept 0 and seps = Array.make kept 0 in
    for k = 0 to kept - 1 do
      let x = order.(k) in
      keys.(k) <- key_of.(x);
      ends.(k) <- Pair_key.pack fact_of.(f.(3 * x)) fact_of.(f.((3 * x) + 1));
      seps.(k) <- f.((3 * x) + 2)
    done;
    { keys; facts = shared; ends; seps }
  end

let no_alias t a b = Pair_key.mem t.keys (Pair_key.norm a b)
let keys t = t.keys
let pairs t = Pair_key.to_pairs t.keys ~len:(Array.length t.keys)
let count t = Array.length t.keys
let x_fact t k = t.facts.(Pair_key.first t.ends.(k))
let y_fact t k = t.facts.(Pair_key.second t.ends.(k))
let separation t k = t.seps.(k)

let witnesses t =
  Array.init (count t) (fun k ->
      let g = t.seps.(k) in
      { x = x_fact t k; y = y_fact t k; reason = (if g = 0 then Ranges else Congruence g) })

let of_witnesses ws =
  let ws = Array.of_list ws in
  let m = Array.length ws in
  let key_of = Array.map (fun w -> Pair_key.norm w.x.instr w.y.instr) ws in
  let order = Array.make m 0 in
  let kept = dedupe ~order m ~key:(fun x -> key_of.(x)) in
  let facts = Array.make (2 * kept) no_fact in
  let keys = Array.make kept 0 and ends = Array.make kept 0 and seps = Array.make kept 0 in
  for k = 0 to kept - 1 do
    let w = ws.(order.(k)) in
    keys.(k) <- key_of.(order.(k));
    facts.(2 * k) <- w.x;
    facts.((2 * k) + 1) <- w.y;
    ends.(k) <- Pair_key.pack (2 * k) ((2 * k) + 1);
    seps.(k) <-
      (match w.reason with
      | Ranges -> 0
      | Congruence g when g >= 1 -> g
      | Congruence g ->
        invalid_arg (Printf.sprintf "Disamb.of_witnesses: congruence stride %d < 1" g))
  done;
  { keys; facts; ends; seps }
