(* Abstract interpretation of a superblock body: forward pass computing
   [scale * origin + k] values with bounded stride sets for the offset
   [k].  The transfer functions mirror Vliw.Eval's integer semantics
   exactly (safe division, shift counts masked to 5 bits); anything
   they cannot model becomes the opaque-but-fixed result of its
   defining instruction, never "top".

   The pass runs over flat int storage: a value is seven ints in one
   slot of a struct-of-arrays [store], registers map to slots through
   an arena intmap, and the transfer functions read their operands'
   slots and write a result slot.  Nothing is allocated per
   instruction. *)

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

let pos_mod a m = ((a mod m) + m) mod m

(* Explicit bounds rather than [abs]: [abs min_int] is negative. *)
let in_guard n = n >= -max_mag && n <= max_mag

(* [a * k] stays inside the guard, checked before multiplying so a
   wrapped product can never pass for a small one. *)
let mul_fits a k = a = 0 || (in_guard a && in_guard k && abs a <= max_mag / abs k)

(* --- separation --------------------------------------------------- *)

type sep = Ranges | Congruence of int

(* With equal origins and scales, the address difference a2 - a1 equals
   the offset difference d = k2 - k1.  The ranges [a1, a1+w1) and
   [a2, a2+w2) overlap exactly when d lies in (-w2, w1): disjoint
   intervals decide first, else the window (at most w1 + w2 - 1
   values) is walked for a difference in the residue class.  [res] is
   a set's residue: its [rem], or [lo] for a singleton.  The result is
   a code, so the pair loop allocates nothing: [-1] unproved, [0]
   [Ranges], [g > 0] [Congruence g]. *)
let sep_code ~lo1 ~hi1 ~stride1 ~res1 w1 ~lo2 ~hi2 ~stride2 ~res2 w2 =
  if lo2 > hi1 + (w1 - 1) || lo1 > hi2 + (w2 - 1) then 0
  else
    let g = gcd0 stride1 stride2 in
    if g = 0 then -1
    else
      let d0 = pos_mod (res2 - res1) g in
      let hit = ref false in
      for d = -(w2 - 1) to w1 - 1 do
        if pos_mod d g = d0 then hit := true
      done;
      if !hit then -1 else g

let residue c = if c.stride = 0 then c.lo else c.rem

let separated v1 w1 v2 w2 =
  if not (origin_equal v1.origin v2.origin && v1.scale = v2.scale) then None
  else
    match
      sep_code ~lo1:v1.off.lo ~hi1:v1.off.hi ~stride1:v1.off.stride
        ~res1:(residue v1.off) w1 ~lo2:v2.off.lo ~hi2:v2.off.hi
        ~stride2:v2.off.stride ~res2:(residue v2.off) w2
    with
    | -1 -> None
    | 0 -> Some Ranges
    | g -> Some (Congruence g)

(* --- flat values -------------------------------------------------- *)

(* Origin kinds; [arg] is the register code of an [Entry] (see
   [Arena.reg_code]), the instruction id of an [Opaque] and 0 for a
   [Const].  [k_none] marks a memory operation whose address overflowed
   the guard. *)
let k_none = -1
let k_const = 0
let k_entry = 1
let k_opaque = 2

(* Slot [s] of a store holds one value: [kind.(s)], [arg.(s)],
   [scale.(s)] and the offset set [lo.(s)], [hi.(s)], [stride.(s)],
   [rem.(s)]. *)
type store = {
  kind : int array;
  arg : int array;
  scale : int array;
  lo : int array;
  hi : int array;
  stride : int array;
  rem : int array;
}

let store_make n =
  {
    kind = Array.make n k_none;
    arg = Array.make n 0;
    scale = Array.make n 0;
    lo = Array.make n 0;
    hi = Array.make n 0;
    stride = Array.make n 0;
    rem = Array.make n 0;
  }

(* Environment slots 0-3 are scratch: the two operands, the result and
   a negated offset set; registers get slots from [first_reg] on. *)
let s_a = 0
let s_b = 1
let s_res = 2
let s_neg = 3
let first_reg = 4

let store_lease arena n =
  let module A = Arena in
  {
    kind = A.ints arena ~slot:32 n;
    arg = A.ints arena ~slot:33 n;
    scale = A.ints arena ~slot:34 n;
    lo = A.ints arena ~slot:35 n;
    hi = A.ints arena ~slot:36 n;
    stride = A.ints arena ~slot:37 n;
    rem = A.ints arena ~slot:38 n;
  }

let blit src s dst d =
  dst.kind.(d) <- src.kind.(s);
  dst.arg.(d) <- src.arg.(s);
  dst.scale.(d) <- src.scale.(s);
  dst.lo.(d) <- src.lo.(s);
  dst.hi.(d) <- src.hi.(s);
  dst.stride.(d) <- src.stride.(s);
  dst.rem.(d) <- src.rem.(s)

let set_origin e d ~kind ~arg ~scale =
  e.kind.(d) <- kind;
  e.arg.(d) <- arg;
  e.scale.(d) <- scale

(* the origin and scale of slot [s], copied to [d] *)
let origin_of e d s = set_origin e d ~kind:e.kind.(s) ~arg:e.arg.(s) ~scale:e.scale.(s)

(* Write a normalized offset set; true when it passes the guard. *)
let write_off e d ~lo ~hi ~stride ~rem =
  e.lo.(d) <- lo;
  e.hi.(d) <- hi;
  if lo = hi then begin
    e.stride.(d) <- 0;
    e.rem.(d) <- 0
  end
  else begin
    e.stride.(d) <- stride;
    e.rem.(d) <- pos_mod rem stride
  end;
  in_guard lo && in_guard hi

let vconst e d n =
  set_origin e d ~kind:k_const ~arg:0 ~scale:0;
  ignore (write_off e d ~lo:n ~hi:n ~stride:0 ~rem:0)

let vanchor e d ~kind ~arg =
  set_origin e d ~kind ~arg ~scale:1;
  ignore (write_off e d ~lo:0 ~hi:0 ~stride:0 ~rem:0)

let is_const e s = e.kind.(s) = k_const && e.stride.(s) = 0

let same_origin e a b = e.kind.(a) = e.kind.(b) && e.arg.(a) = e.arg.(b)

let res_of e s = if e.stride.(s) = 0 then e.lo.(s) else e.rem.(s)

(* The transfer functions below write slot [d], never one of their
   operand slots, and return false where the record domain's functions
   return [None]. *)

let off_add e d a b =
  let stride = gcd0 e.stride.(a) e.stride.(b) in
  let rem = if stride = 0 then 0 else pos_mod (res_of e a + res_of e b) stride in
  write_off e d ~lo:(e.lo.(a) + e.lo.(b)) ~hi:(e.hi.(a) + e.hi.(b)) ~stride ~rem

let off_neg e d s =
  let stride = e.stride.(s) in
  let rem = if stride = 0 then 0 else pos_mod (-res_of e s) stride in
  ignore (write_off e d ~lo:(-e.hi.(s)) ~hi:(-e.lo.(s)) ~stride ~rem)

(* Re-anchor a value whose symbolic part cancelled to zero. *)
let norm_scale e d = if e.scale.(d) = 0 then set_origin e d ~kind:k_const ~arg:0 ~scale:0

let vadd e d a b =
  if e.kind.(a) = k_const then begin
    origin_of e d b;
    off_add e d b a
  end
  else if e.kind.(b) = k_const then begin
    origin_of e d a;
    off_add e d a b
  end
  else if same_origin e a b then begin
    set_origin e d ~kind:e.kind.(a) ~arg:e.arg.(a) ~scale:(e.scale.(a) + e.scale.(b));
    let ok = off_add e d a b in
    norm_scale e d;
    ok
  end
  else false

let vsub e d a b =
  if e.kind.(b) = k_const then begin
    off_neg e s_neg b;
    origin_of e d a;
    off_add e d a s_neg
  end
  else if same_origin e a b then begin
    off_neg e s_neg b;
    set_origin e d ~kind:e.kind.(a) ~arg:e.arg.(a) ~scale:(e.scale.(a) - e.scale.(b));
    let ok = off_add e d a s_neg in
    norm_scale e d;
    ok
  end
  else false

(* Non-singleton sets keep [stride <= hi - lo], so once both scaled
   bounds fit, the scaled stride cannot wrap either. *)
let scale_by e d k s =
  if k = 0 then begin
    vconst e d 0;
    true
  end
  else if not (mul_fits e.lo.(s) k && mul_fits e.hi.(s) k) then false
  else begin
    let lo = if k > 0 then e.lo.(s) * k else e.hi.(s) * k in
    let hi = if k > 0 then e.hi.(s) * k else e.lo.(s) * k in
    let stride = e.stride.(s) * abs k in
    let rem = if stride = 0 then 0 else pos_mod (res_of e s * k) stride in
    set_origin e d ~kind:e.kind.(s) ~arg:e.arg.(s) ~scale:(e.scale.(s) * k);
    write_off e d ~lo ~hi ~stride ~rem
  end

let vmul e d a b =
  if is_const e a then scale_by e d e.lo.(a) b
  else if is_const e b then scale_by e d e.lo.(b) a
  else false

(* x land m with a non-negative mask gives [0, m] with all bits below
   the mask's lowest set bit forced to zero — sound for any x, even
   negative, because land with m >= 0 clears the sign bit too. *)
let vand_mask e d m =
  if m = 0 then vconst e d 0
  else begin
    let tz = ref 0 in
    while m land (1 lsl !tz) = 0 do
      incr tz
    done;
    set_origin e d ~kind:k_const ~arg:0 ~scale:0;
    e.lo.(d) <- 0;
    e.hi.(d) <- m;
    e.stride.(d) <- 1 lsl !tz;
    e.rem.(d) <- 0
  end;
  true

let mask_operand e s = is_const e s && e.lo.(s) >= 0 && in_guard e.lo.(s)

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

let vbinop e d (op : Ir.Instr.binop) a b =
  if is_const e a && is_const e b then begin
    let n = exact_binop op e.lo.(a) e.lo.(b) in
    if in_guard n then begin
      vconst e d n;
      true
    end
    else false
  end
  else
    match op with
    | Ir.Instr.Add -> vadd e d a b
    | Ir.Instr.Sub -> vsub e d a b
    | Ir.Instr.Mul -> vmul e d a b
    | Ir.Instr.Shl ->
      is_const e b
      && e.lo.(b) land 31 < 50
      && scale_by e d (1 lsl (e.lo.(b) land 31)) a
    | Ir.Instr.And ->
      if mask_operand e a then vand_mask e d e.lo.(a)
      else if mask_operand e b then vand_mask e d e.lo.(b)
      else false
    | _ -> false

(* --- the forward pass --------------------------------------------- *)

(* Per memory operation, in body order: the operation, its access width
   and its address in row [k] of [addr] ([k_none] when it overflowed).
   Owned by the result, not leased: it outlives the call. *)
type t = {
  mems : Ir.Instr.t array;
  width : int array;
  addr : store;
}

(* The register environment: leased slots, and register code -> slot
   in a leased intmap.  A register without a slot still holds its
   entry value. *)
type env = {
  vals : store;
  slot_of : Arena.intmap;
  mutable next : int;
}

let read_reg env r ~into =
  let code = Arena.reg_code r in
  let s = Arena.map_get env.slot_of code ~default:(-1) in
  if s >= 0 then s
  else begin
    vanchor env.vals into ~kind:k_entry ~arg:code;
    into
  end

let read_operand env (o : Ir.Instr.operand) ~into =
  match o with
  | Ir.Instr.Reg r -> read_reg env r ~into
  | Ir.Instr.Imm n ->
    vconst env.vals into n;
    into

let define env r s =
  let code = Arena.reg_code r in
  let d =
    match Arena.map_get env.slot_of code ~default:(-1) with
    | -1 ->
      let d = env.next in
      env.next <- d + 1;
      Arena.map_set env.slot_of code d;
      d
    | d -> d
  in
  blit env.vals s env.vals d

let no_instr = Ir.Instr.make ~id:(-1) Ir.Instr.Nop

let analyze ?arena ~body () =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let n = ref 0 and m = ref 0 in
  List.iter
    (fun i ->
      incr n;
      if Ir.Instr.is_memory i then incr m)
    body;
  (* each instruction defines at most one register *)
  let env =
    { vals = store_lease arena (first_reg + !n); slot_of = Arena.map arena ~slot:3; next = first_reg }
  in
  let e = env.vals in
  let t = { mems = Array.make !m no_instr; width = Array.make !m 0; addr = store_make !m } in
  let k = ref 0 in
  let record (i : Ir.Instr.t) (a : Ir.Instr.addr) width =
    let x = !k in
    incr k;
    t.mems.(x) <- i;
    t.width.(x) <- width;
    let base = read_reg env a.Ir.Instr.base ~into:s_a in
    vconst e s_b a.Ir.Instr.disp;
    if vadd e s_res base s_b then blit e s_res t.addr x else t.addr.kind.(x) <- k_none
  in
  let opaque (i : Ir.Instr.t) = vanchor e s_res ~kind:k_opaque ~arg:i.Ir.Instr.id in
  List.iter
    (fun (i : Ir.Instr.t) ->
      match i.Ir.Instr.op with
      | Ir.Instr.Mov (d, src) -> define env d (read_operand env src ~into:s_a)
      | Ir.Instr.Unop_neg (d, src) ->
        if not (scale_by e s_res (-1) (read_operand env src ~into:s_a)) then opaque i;
        define env d s_res
      | Ir.Instr.Binop (op, d, a, b) ->
        let sa = read_operand env a ~into:s_a in
        let sb = read_operand env b ~into:s_b in
        if not (vbinop e s_res op sa sb) then opaque i;
        define env d s_res
      | Ir.Instr.Cmp (_, d, _, _) ->
        (* comparison results are exactly 0 or 1 *)
        set_origin e s_res ~kind:k_const ~arg:0 ~scale:0;
        e.lo.(s_res) <- 0;
        e.hi.(s_res) <- 1;
        e.stride.(s_res) <- 1;
        e.rem.(s_res) <- 0;
        define env d s_res
      | Ir.Instr.Fbinop (_, d, _, _) ->
        (* float ops share integer carriers in this simulator but are
           never address material; keep them opaque *)
        opaque i;
        define env d s_res
      | Ir.Instr.Load { dst; addr = a; width; _ } ->
        record i a width;
        opaque i;
        define env dst s_res
      | Ir.Instr.Store { addr = a; width; _ } -> record i a width
      | Ir.Instr.Branch _ | Ir.Instr.Jump _ | Ir.Instr.Exit _ | Ir.Instr.Nop
      | Ir.Instr.Rotate _ | Ir.Instr.Amov _ ->
        ())
    body;
  t

(* --- reading the result by memory-op position --------------------- *)

let mem_count t = Array.length t.mems
let mem t k = t.mems.(k)
let width t k = t.width.(k)
let has_address t k = t.addr.kind.(k) <> k_none

let reg_of_code c =
  match c mod 3 with 0 -> Ir.Reg.R (c / 3) | 1 -> Ir.Reg.F (c / 3) | _ -> Ir.Reg.T (c / 3)

let value_at t k =
  let a = t.addr in
  let origin =
    if a.kind.(k) = k_entry then Entry (reg_of_code a.arg.(k))
    else if a.kind.(k) = k_opaque then Opaque a.arg.(k)
    else Const
  in
  {
    origin;
    scale = a.scale.(k);
    off = { lo = a.lo.(k); hi = a.hi.(k); stride = a.stride.(k); rem = a.rem.(k) };
  }

let constant_address t k =
  if is_const t.addr k then Some t.addr.lo.(k) else None

let separation t i j =
  let a = t.addr in
  if a.kind.(i) = k_none || a.kind.(j) = k_none then -1
  else if not (same_origin a i j && a.scale.(i) = a.scale.(j)) then -1
  else
    sep_code ~lo1:a.lo.(i) ~hi1:a.hi.(i) ~stride1:a.stride.(i) ~res1:(res_of a i)
      t.width.(i) ~lo2:a.lo.(j) ~hi2:a.hi.(j) ~stride2:a.stride.(j)
      ~res2:(res_of a j) t.width.(j)

(* The last recorded operation with this id, as a table keyed by id
   kept it. *)
let address t id =
  let rec find k =
    if k < 0 then None
    else if t.mems.(k).Ir.Instr.id = id && has_address t k then
      Some (value_at t k, t.width.(k))
    else find (k - 1)
  in
  find (mem_count t - 1)

let pp_origin ppf = function
  | Const -> Format.fprintf ppf "const"
  | Entry r -> Format.fprintf ppf "entry(%a)" Ir.Reg.pp r
  | Opaque id -> Format.fprintf ppf "opaque(#%d)" id

let pp_cset ppf (c : cset) =
  if c.stride = 0 then Format.fprintf ppf "{%d}" c.lo
  else Format.fprintf ppf "[%d..%d]/%d+%d" c.lo c.hi c.stride c.rem

let pp_value ppf v =
  match v.origin with
  | Const -> pp_cset ppf v.off
  | _ ->
    Format.fprintf ppf "%d*%a + %a" v.scale pp_origin v.origin pp_cset v.off
