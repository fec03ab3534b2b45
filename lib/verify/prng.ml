(* The state is an unboxed int64 in [Bytes], read and written through
   the compiler primitives, so a draw that stays inside this module
   allocates nothing: only [next] boxes the int64 it returns, and no
   float crosses the module boundary ([below] compares here). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let t = Bytes.create 8 in
  (* pre-scramble so seed 0 does not start the stream at mix(golden)'s
     low-entropy neighborhood of seed 1, etc. *)
  set64 t 0 (mix (Int64.add (Int64.of_int seed) golden));
  t

(* the 53 high bits of the next draw *)
let bits53 t =
  let state = Int64.add (get64 t 0) golden in
  set64 t 0 state;
  Int64.to_int (Int64.shift_right_logical (mix state) 11)

let next t =
  let state = Int64.add (get64 t 0) golden in
  set64 t 0 state;
  mix state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* modulo bias is irrelevant at harness bounds *)
  bits53 t mod bound

let float t = float_of_int (bits53 t) /. 9007199254740992.0
let below t p = float_of_int (bits53 t) /. 9007199254740992.0 < p
