(* Test oracle for [Analysis.Absint] and [Analysis.Disamb.certify]:
   the record-and-Hashtbl forward evaluator and the certifier's pair
   loop as they stood before the evaluator went flat, moved here
   verbatim.  Every value is a record, every register lives in a
   [Reg.t]-keyed table and every address is looked up by id; the flat
   product must reproduce its addresses and its certificates exactly.
   The types are the product's, so results compare structurally. *)

type origin = Analysis.Absint.origin = Const | Entry of Ir.Reg.t | Opaque of int

type cset = Analysis.Absint.cset = {
  lo : int;
  hi : int;
  stride : int;
  rem : int;
}

type value = Analysis.Absint.value = {
  origin : origin;
  scale : int;
  off : cset;
}

let origin_equal a b =
  match (a, b) with
  | Const, Const -> true
  | Entry r1, Entry r2 -> Ir.Reg.equal r1 r2
  | Opaque i, Opaque j -> i = j
  | _ -> false

(* Offsets are kept far away from the int domain boundary so that the
   separation arithmetic (differences, width extensions) can never
   wrap.  Anything larger degrades to an opaque value. *)
let max_mag = 1 lsl 50

let point n = { lo = n; hi = n; stride = 0; rem = 0 }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* gcd over strides where 0 means "singleton, exact": the singleton
   imposes no congruence constraint of its own, so it inherits the
   other side's. *)
let gcd0 a b = if a = 0 then b else if b = 0 then a else gcd a b

let residue c = if c.stride = 0 then c.lo else c.rem
let pos_mod a m = ((a mod m) + m) mod m

let norm c =
  if c.lo = c.hi then point c.lo
  else { c with rem = pos_mod c.rem c.stride }

(* Explicit bounds rather than [abs]: [abs min_int] is negative. *)
let in_guard n = n >= -max_mag && n <= max_mag

let guard c = if in_guard c.lo && in_guard c.hi then Some c else None

let cset_add c1 c2 =
  let stride = gcd0 c1.stride c2.stride in
  let rem = if stride = 0 then 0 else pos_mod (residue c1 + residue c2) stride in
  guard (norm { lo = c1.lo + c2.lo; hi = c1.hi + c2.hi; stride; rem })

let cset_neg c =
  let rem = if c.stride = 0 then 0 else pos_mod (-residue c) c.stride in
  norm { lo = -c.hi; hi = -c.lo; stride = c.stride; rem }

(* [a * k] stays inside the guard, checked before multiplying so a
   wrapped product can never pass for a small one. *)
let mul_fits a k = a = 0 || (in_guard a && in_guard k && abs a <= max_mag / abs k)

(* Non-singleton sets keep [stride <= hi - lo], so once both scaled
   bounds fit, the scaled stride cannot wrap either. *)
let cset_scale k c =
  if k = 0 then Some (point 0)
  else if not (mul_fits c.lo k && mul_fits c.hi k) then None
  else
    let lo, hi =
      if k > 0 then (c.lo * k, c.hi * k) else (c.hi * k, c.lo * k)
    in
    let stride = c.stride * abs k in
    let rem = if stride = 0 then 0 else pos_mod (residue c * k) stride in
    guard (norm { lo; hi; stride; rem })

type sep = Analysis.Absint.sep = Ranges | Congruence of int

let range_separated c1 w1 c2 w2 =
  c2.lo > c1.hi + (w1 - 1) || c1.lo > c2.hi + (w2 - 1)

(* With equal origins and scales, the address difference a2 - a1 equals
   the offset difference d = k2 - k1.  The ranges [a1, a1+w1) and
   [a2, a2+w2) overlap exactly when d lies in (-w2, w1); the window is
   at most w1 + w2 - 1 values, so the congruence check just walks it. *)
let congruence_separated c1 w1 c2 w2 =
  let g = gcd0 c1.stride c2.stride in
  if g = 0 then None
  else
    let d0 = pos_mod (residue c2 - residue c1) g in
    let hit = ref false in
    for d = -(w2 - 1) to w1 - 1 do
      if pos_mod d g = d0 then hit := true
    done;
    if !hit then None else Some (Congruence g)

let separated v1 w1 v2 w2 =
  if not (origin_equal v1.origin v2.origin && v1.scale = v2.scale) then None
  else if range_separated v1.off w1 v2.off w2 then Some Ranges
  else congruence_separated v1.off w1 v2.off w2

(* --- transfer functions ------------------------------------------- *)

let vconst n = { origin = Const; scale = 0; off = point n }
let ventry r = { origin = Entry r; scale = 1; off = point 0 }
let vopaque id = { origin = Opaque id; scale = 1; off = point 0 }

let const_of v =
  match v.origin with
  | Const when v.off.stride = 0 -> Some v.off.lo
  | _ -> None

let with_off v off =
  match off with None -> None | Some off -> Some { v with off }

(* Re-anchor a value whose symbolic part cancelled to zero. *)
let norm_scale v = if v.scale = 0 then { v with origin = Const } else v

let vadd v1 v2 =
  match (v1.origin, v2.origin) with
  | Const, _ -> with_off v2 (cset_add v2.off v1.off)
  | _, Const -> with_off v1 (cset_add v1.off v2.off)
  | o1, o2 when origin_equal o1 o2 ->
    Option.map
      (fun off -> norm_scale { v1 with scale = v1.scale + v2.scale; off })
      (cset_add v1.off v2.off)
  | _ -> None

let vsub v1 v2 =
  match (v1.origin, v2.origin) with
  | _, Const -> with_off v1 (cset_add v1.off (cset_neg v2.off))
  | o1, o2 when origin_equal o1 o2 ->
    Option.map
      (fun off -> norm_scale { v1 with scale = v1.scale - v2.scale; off })
      (cset_add v1.off (cset_neg v2.off))
  | _ -> None

let scale_by k v =
  if k = 0 then Some (vconst 0)
  else
    Option.map
      (fun off -> { v with scale = v.scale * k; off })
      (cset_scale k v.off)

let vmul v1 v2 =
  match (const_of v1, const_of v2) with
  | Some k, _ -> scale_by k v2
  | _, Some k -> scale_by k v1
  | _ -> None

(* x land m with a non-negative mask gives [0, m] with all bits below
   the mask's lowest set bit forced to zero — sound for any x, even
   negative, because land with m >= 0 clears the sign bit too. *)
let vand_mask m =
  if m = 0 then Some (vconst 0)
  else
    let tz =
      let rec go k = if m land (1 lsl k) <> 0 then k else go (k + 1) in
      go 0
    in
    Some
      {
        origin = Const;
        scale = 0;
        off = { lo = 0; hi = m; stride = 1 lsl tz; rem = 0 };
      }

let safe_div a b = if b = 0 then 0 else a / b

(* Exact integer semantics, identical to Vliw.Eval's binop table. *)
let exact_binop (op : Ir.Instr.binop) a b =
  match op with
  | Ir.Instr.Add -> a + b
  | Ir.Instr.Sub -> a - b
  | Ir.Instr.Mul -> a * b
  | Ir.Instr.Div -> safe_div a b
  | Ir.Instr.And -> a land b
  | Ir.Instr.Or -> a lor b
  | Ir.Instr.Xor -> a lxor b
  | Ir.Instr.Shl -> a lsl (b land 31)
  | Ir.Instr.Shr -> a asr (b land 31)

let vbinop (op : Ir.Instr.binop) v1 v2 =
  match (const_of v1, const_of v2) with
  | Some a, Some b ->
    let n = exact_binop op a b in
    if in_guard n then Some (vconst n) else None
  | _ -> (
    match op with
    | Ir.Instr.Add -> vadd v1 v2
    | Ir.Instr.Sub -> vsub v1 v2
    | Ir.Instr.Mul -> vmul v1 v2
    | Ir.Instr.Shl -> (
      match const_of v2 with
      | Some k when k land 31 < 50 -> scale_by (1 lsl (k land 31)) v1
      | _ -> None)
    | Ir.Instr.And -> (
      match (const_of v1, const_of v2) with
      | Some m, _ when m >= 0 && in_guard m -> vand_mask m
      | _, Some m when m >= 0 && in_guard m -> vand_mask m
      | _ -> None)
    | _ -> None)

(* --- the forward pass --------------------------------------------- *)

type t = { addr : (int, value * int) Hashtbl.t }

let analyze ~body =
  let env : (Ir.Reg.t, value) Hashtbl.t = Hashtbl.create 64 in
  let lookup r =
    match Hashtbl.find_opt env r with Some v -> v | None -> ventry r
  in
  let operand = function
    | Ir.Instr.Reg r -> lookup r
    | Ir.Instr.Imm n -> vconst n
  in
  let set r v = Hashtbl.replace env r v in
  let addr = Hashtbl.create 32 in
  let record_addr id (a : Ir.Instr.addr) width =
    match vadd (lookup a.Ir.Instr.base) (vconst a.Ir.Instr.disp) with
    | Some v -> Hashtbl.replace addr id (v, width)
    | None -> ()
  in
  List.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.op with
      | Ir.Instr.Mov (d, src) -> set d (operand src)
      | Ir.Instr.Unop_neg (d, src) -> (
        match scale_by (-1) (operand src) with
        | Some v -> set d v
        | None -> set d (vopaque i.Ir.Instr.id))
      | Ir.Instr.Binop (op, d, a, b) -> (
        match vbinop op (operand a) (operand b) with
        | Some v -> set d v
        | None -> set d (vopaque i.Ir.Instr.id))
      | Ir.Instr.Cmp (_, d, _, _) ->
        (* comparison results are exactly 0 or 1 *)
        set d
          {
            origin = Const;
            scale = 0;
            off = { lo = 0; hi = 1; stride = 1; rem = 0 };
          }
      | Ir.Instr.Fbinop (_, d, _, _) ->
        (* float ops share integer carriers in this simulator but are
           never address material; keep them opaque *)
        set d (vopaque i.Ir.Instr.id)
      | Ir.Instr.Load { dst; addr = a; width; _ } ->
        record_addr i.Ir.Instr.id a width;
        set dst (vopaque i.Ir.Instr.id)
      | Ir.Instr.Store { addr = a; width; _ } ->
        record_addr i.Ir.Instr.id a width
      | Ir.Instr.Branch _ | Ir.Instr.Jump _ | Ir.Instr.Exit _ | Ir.Instr.Nop
      | Ir.Instr.Rotate _ | Ir.Instr.Amov _ ->
        ())
    body;
  { addr }

let address t id = Hashtbl.find_opt t.addr id

(* --- the certifier ------------------------------------------------- *)

module D = Analysis.Disamb
module Pair_key = Analysis.Pair_key
module May_alias = Analysis.May_alias

type fact = D.fact = {
  instr : int;
  width : int;
  origin : origin;
  scale : int;
  off : cset;
}

type reason = D.reason = Ranges | Congruence of int

type witness = D.witness = {
  x : fact;
  y : fact;
  reason : reason;
}

(* The certificate as its two arrays: ascending keys, one witness each. *)
type cert = {
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
    Analysis.Arena.sort_by order ~lo:0 ~hi:m ~cmp:(fun a b ->
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

let fact_of_value instr width (v : value) =
  {
    instr;
    width;
    origin = v.origin;
    scale = v.scale;
    off = v.off;
  }

(* Addresses are looked up once per memory operation; the pair loop
   then allocates only for the pairs it certifies. *)
let certify ~alias ~body =
  let found = ref [] and count = ref 0 in
  let facts = analyze ~body in
  let mems = List.filter Ir.Instr.is_memory body |> Array.of_list in
  let addrs = Array.map (fun (x : Ir.Instr.t) -> address facts x.id) mems in
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
            match separated vx wx vy wy with
            | Some sep ->
              let reason =
                match sep with
                | Ranges -> Ranges
                | Congruence g -> Congruence g
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

