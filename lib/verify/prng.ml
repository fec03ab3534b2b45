type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  (* pre-scramble so seed 0 does not start the stream at mix(golden)'s
     low-entropy neighborhood of seed 1, etc. *)
  { state = mix (Int64.add (Int64.of_int seed) golden) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 53 high bits; modulo bias is irrelevant at harness bounds *)
  Int64.to_int (Int64.shift_right_logical (next t) 11) mod bound

let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
