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

let sorted_unique keys ~len =
  let distinct = ref 0 in
  for x = 0 to len - 1 do
    if x = 0 || keys.(x) <> keys.(x - 1) then incr distinct
  done;
  let out = Array.make !distinct 0 in
  let k = ref 0 in
  for x = 0 to len - 1 do
    if x = 0 || keys.(x) <> keys.(x - 1) then begin
      out.(!k) <- keys.(x);
      incr k
    end
  done;
  out

let of_pairs pairs =
  let keys = Array.of_list (List.map (fun (a, b) -> pack a b) pairs) in
  Array.sort Int.compare keys;
  sorted_unique keys ~len:(Array.length keys)

let union a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    (* count first, so the result is allocated once at its final size *)
    let count = ref 0 and i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      (if !j >= nb || (!i < na && a.(!i) < b.(!j)) then incr i
       else if !i >= na || b.(!j) < a.(!i) then incr j
       else begin
         incr i;
         incr j
       end);
      incr count
    done;
    let out = Array.make !count 0 in
    i := 0;
    j := 0;
    for x = 0 to !count - 1 do
      if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
        out.(x) <- a.(!i);
        incr i
      end
      else if !i >= na || b.(!j) < a.(!i) then begin
        out.(x) <- b.(!j);
        incr j
      end
      else begin
        out.(x) <- a.(!i);
        incr i;
        incr j
      end
    done;
    out
  end

let mem keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length keys && keys.(!lo) = k

let to_pairs keys ~len =
  let acc = ref [] in
  for x = len - 1 downto 0 do
    let k = keys.(x) in
    if x = len - 1 || k <> keys.(x + 1) then acc := (first k, second k) :: !acc
  done;
  !acc
