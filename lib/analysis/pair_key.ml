let shift = 31
let bound = 1 lsl shift
let mask = bound - 1

(* one test for both ids: a negative id or one of 2^31 or more has a
   bit at or above [shift] *)
let pack a b =
  if (a lor b) lsr shift <> 0 then
    invalid_arg (Printf.sprintf "Pair_key.pack: id pair (%d, %d) out of range" a b);
  (a lsl shift) lor b

let norm a b = if a <= b then pack a b else pack b a
let first k = k lsr shift
let second k = k land mask

let to_pairs keys ~len =
  let acc = ref [] in
  for x = len - 1 downto 0 do
    let k = keys.(x) in
    if x = len - 1 || k <> keys.(x + 1) then acc := (first k, second k) :: !acc
  done;
  !acc
