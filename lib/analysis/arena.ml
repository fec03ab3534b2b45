(* Reusable per-domain scratch for the translation hot path.

   One arena serves one sequence of region translations (a driver run,
   or one worker domain of a parallel replay).  Buffers grow to the
   high-water mark of the regions seen and are then reused, so the
   depgraph and hazard builders stop allocating (and stop dragging the
   GC write barrier) once warm.  Nothing leased from an arena may
   escape the build that leased it. *)

type vec = {
  mutable buf : int array;
  mutable len : int;
}

let vec_make () = { buf = Array.make 64 0; len = 0 }
let vec_clear v = v.len <- 0

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let bigger = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 bigger 0 v.len;
    v.buf <- bigger
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* Open-addressed int->int map with epoch-stamped slots: [reset] is
   O(1), lookups never allocate.  Keys must be >= 0. *)
type intmap = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable epoch : int;
  mutable mask : int;
  mutable used : int;
}

let map_make () =
  {
    keys = Array.make 64 0;
    vals = Array.make 64 0;
    stamps = Array.make 64 (-1);
    epoch = 0;
    mask = 63;
    used = 0;
  }

let map_reset m =
  m.epoch <- m.epoch + 1;
  m.used <- 0

(* Fibonacci-style multiplicative hash; deterministic within a run. *)
let hash_int k = (k * 0x2545F4914F6CDD1D) land max_int

let map_slot m k =
  let i = ref (hash_int k land m.mask) in
  while m.stamps.(!i) = m.epoch && m.keys.(!i) <> k do
    i := (!i + 1) land m.mask
  done;
  !i

let map_grow m =
  let old_keys = m.keys
  and old_vals = m.vals
  and old_stamps = m.stamps
  and old_cap = m.mask + 1 in
  let cap = 2 * old_cap in
  m.keys <- Array.make cap 0;
  m.vals <- Array.make cap 0;
  m.stamps <- Array.make cap (-1);
  m.mask <- cap - 1;
  for i = 0 to old_cap - 1 do
    if old_stamps.(i) = m.epoch then begin
      let s = map_slot m old_keys.(i) in
      m.keys.(s) <- old_keys.(i);
      m.vals.(s) <- old_vals.(i);
      m.stamps.(s) <- m.epoch
    end
  done

let map_set m k v =
  if 2 * (m.used + 1) > m.mask + 1 then map_grow m;
  let s = map_slot m k in
  if m.stamps.(s) <> m.epoch then begin
    m.stamps.(s) <- m.epoch;
    m.keys.(s) <- k;
    m.used <- m.used + 1
  end;
  m.vals.(s) <- v

let map_get m k ~default =
  let s = map_slot m k in
  if m.stamps.(s) = m.epoch then m.vals.(s) else default

type t = {
  mutable slots : int array array;
  mutable instrs : Ir.Instr.t array;
  mutable seen : Bitset.t option;
  mutable reach : Bitset.Matrix.m option;
  mutable vecs : vec array;
  mutable maps : intmap array;
}

let create () =
  {
    slots = Array.make 24 [||];
    instrs = [||];
    seen = None;
    reach = None;
    vecs = [||];
    maps = [||];
  }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(* Scratch int array of capacity >= n; contents are stale — callers
   must initialize everything they read. *)
let ints t ~slot n =
  if slot >= Array.length t.slots then begin
    let bigger = Array.make (next_pow2 (slot + 1) 1) [||] in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end;
  let a = t.slots.(slot) in
  if Array.length a >= n then a
  else begin
    let b = Array.make (next_pow2 (max 64 n) 64) 0 in
    t.slots.(slot) <- b;
    b
  end

let filled_ints t ~slot n x =
  let a = ints t ~slot n in
  Array.fill a 0 n x;
  a

let rec blit_list a k = function
  | [] -> ()
  | x :: rest ->
    a.(k) <- x;
    blit_list a (k + 1) rest

let instrs t ~of_list =
  let n = List.length of_list in
  (match of_list with
  | i :: _ when Array.length t.instrs < n ->
    t.instrs <- Array.make (next_pow2 (max 64 n) 64) i
  | _ -> ());
  blit_list t.instrs 0 of_list;
  t.instrs

let vec t ~slot =
  if slot >= Array.length t.vecs then begin
    let bigger = Array.init (next_pow2 (slot + 1) 1) (fun _ -> vec_make ()) in
    Array.blit t.vecs 0 bigger 0 (Array.length t.vecs);
    t.vecs <- bigger
  end;
  let v = t.vecs.(slot) in
  vec_clear v;
  v

let map t ~slot =
  if slot >= Array.length t.maps then begin
    let old = t.maps in
    t.maps <-
      Array.init (next_pow2 (slot + 1) 1) (fun i ->
          if i < Array.length old then old.(i) else map_make ())
  end;
  let m = t.maps.(slot) in
  map_reset m;
  m

let seen t n =
  let s = Bitset.lease ~prev:t.seen n in
  t.seen <- Some s;
  s

let reach t ~rows ~cols =
  let m = Bitset.Matrix.lease ~prev:t.reach ~rows ~cols in
  t.reach <- Some m;
  m

(* In-place ascending sort of [a.(lo), a.(hi)): quicksort with an
   insertion-sort tail, median-of-three pivot.  Deterministic. *)
let sort_ints a ~lo ~hi =
  let rec qsort lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let p1 = a.(lo) and p2 = a.(mid) and p3 = a.(hi - 1) in
      let pivot =
        if p1 <= p2 then if p2 <= p3 then p2 else max p1 p3
        else if p1 <= p3 then p1
        else max p2 p3
      in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while a.(!i) < pivot do incr i done;
        while a.(!j) > pivot do decr j done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo (!j + 1);
      qsort !i hi
    end
  in
  if hi - lo > 1 then qsort lo hi

(* Same, under an arbitrary total order. *)
let sort_by a ~lo ~hi ~cmp =
  let rec qsort lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && cmp a.(!j) x > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let p1 = a.(lo) and p2 = a.(mid) and p3 = a.(hi - 1) in
      let pivot =
        if cmp p1 p2 <= 0 then
          if cmp p2 p3 <= 0 then p2 else if cmp p1 p3 >= 0 then p1 else p3
        else if cmp p1 p3 <= 0 then p1
        else if cmp p2 p3 >= 0 then p2
        else p3
      in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while cmp a.(!i) pivot < 0 do incr i done;
        while cmp a.(!j) pivot > 0 do decr j done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo (!j + 1);
      qsort !i hi
    end
  in
  if hi - lo > 1 then qsort lo hi

(* Compact encoding of [Ir.Reg.t] as a non-negative int, for direct
   array indexing: 3 * index + rank. *)
let reg_code = function
  | Ir.Reg.R i -> 3 * i
  | Ir.Reg.F i -> (3 * i) + 1
  | Ir.Reg.T i -> (3 * i) + 2
