(* Abstract interpretation of a superblock body: forward pass computing
   [scale * origin + k] values with bounded stride sets for the offset
   [k].  The transfer functions mirror Vliw.Eval's integer semantics
   exactly (safe division, shift counts masked to 5 bits); anything
   they cannot model becomes the opaque-but-fixed result of its
   defining instruction, never "top". *)

type origin = Const | Entry of Ir.Reg.t | Opaque of int

type cset = {
  lo : int;
  hi : int;
  stride : int;
  rem : int;
}

type value = {
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

type sep = Ranges | Congruence of int

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

let pp_origin ppf = function
  | Const -> Format.fprintf ppf "const"
  | Entry r -> Format.fprintf ppf "entry(%a)" Ir.Reg.pp r
  | Opaque id -> Format.fprintf ppf "opaque(#%d)" id

let pp_cset ppf c =
  if c.stride = 0 then Format.fprintf ppf "{%d}" c.lo
  else Format.fprintf ppf "[%d..%d]/%d+%d" c.lo c.hi c.stride c.rem

let pp_value ppf v =
  match v.origin with
  | Const -> pp_cset ppf v.off
  | _ ->
    Format.fprintf ppf "%d*%a + %a" v.scale pp_origin v.origin pp_cset v.off
