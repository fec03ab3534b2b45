(* Independent replay of alias-certification witnesses.

   The certifier (Analysis.Disamb / Analysis.Absint) claims, per
   certified pair, two abstract address facts and a separation
   argument.  This module re-derives the facts with its own forward
   evaluator — it never calls the engine — and checks three things:

   - the claimed facts are {e entailed} by the replayed ones (the
     claim may be weaker than what replay derives, never stronger);
   - the claimed facts arithmetically imply disjointness under the
     claimed reason;
   - the certificate is complete and consistent with the artifact: no
     certified pair kept a dependence edge, no may-alias pair is both
     edge-less and witness-less, and the region's certified list
     lists the certificate's pairs, in the same ascending order.

   The verifier runs this on every region: one built without
   certification is checked against the empty certificate, so the
   completeness rule still asks whether the dependence graph lost an
   edge, and a region listing certified pairs fails the sync check.

   The certificate is read only as data: its key array, and pair by
   pair its claimed facts and separation code through in-place
   accessors ([Disamb.x_fact], [y_fact], [separation]).  Its pairs must
   be strictly ascending in this module's own packed keys of the
   claimed facts' ids, and its key array must hold exactly those keys:
   pair membership is then a binary search over that array, never a
   [Disamb] query.  Instructions are found by position
   (see [index]), not through id-keyed tables, and nothing is allocated
   per witness or per pair unless a violation is reported.

   Entailment (rather than equality) keeps an honest checker from
   rejecting artifacts over precision differences: any claim at least
   as weak as the replayed fact, that still implies disjointness, is a
   valid proof. *)

type violation =
  | Endpoints of string
  | Derivation of string
  | Separation of string
  | Edge_kept of string
  | Dep_missing of string
  | Region_sync of string

(* --- replay evaluator --------------------------------------------- *)

(* A replayed value is [cell_size] consecutive ints of a flat array,
   from [base = cell * cell_size]: the anchor kind and its argument (a
   register code for an entry anchor, an instruction id for an opaque
   one, 0 for a constant), the multiplier, and the strided offset set —
   members rlo <= n <= rhi with n = rres (mod rstep) when rstep > 0;
   rstep = 0 marks the singleton {rlo}. *)
let cell_size = 7
let f_anchor = 0
let f_arg = 1
let f_mul = 2
let f_rlo = 3
let f_rhi = 4
let f_rstep = 5
let f_rres = 6

let a_none = -1 (* a memory op replay derives no address for *)
let a_const = 0
let a_entry = 1
let a_opaque = 2

let mag = 1 lsl 50
let wrap a m = ((a mod m) + m) mod m

let rec gcd_pos a b = if b = 0 then a else gcd_pos b (a mod b)
let merge_step a b = if a = 0 then b else if b = 0 then a else gcd_pos a b

(* bounds compared directly: [abs min_int] is negative *)
let within n = -mag <= n && n <= mag

(* refuse before multiplying: a wrapped product could land in range *)
let product_within n k = n = 0 || (within n && within k && abs n <= mag / abs k)

let reg_code = function
  | Ir.Reg.R i -> 3 * i
  | Ir.Reg.F i -> (3 * i) + 1
  | Ir.Reg.T i -> (3 * i) + 2

(* the residue of the set at [b] *)
let res v b = if v.(b + f_rstep) = 0 then v.(b + f_rlo) else v.(b + f_rres)

(* Store a strided set at [o], normalized; true when it is within the
   guard. *)
let put_set v o ~rlo ~rhi ~rstep ~rres =
  v.(o + f_rlo) <- rlo;
  v.(o + f_rhi) <- rhi;
  if rlo = rhi then begin
    v.(o + f_rstep) <- 0;
    v.(o + f_rres) <- 0
  end
  else begin
    v.(o + f_rstep) <- rstep;
    v.(o + f_rres) <- wrap rres rstep
  end;
  within rlo && within rhi

let put_anchor v o ~anchor ~arg ~mul =
  v.(o + f_anchor) <- anchor;
  v.(o + f_arg) <- arg;
  v.(o + f_mul) <- mul

let keep_anchor v o b = put_anchor v o ~anchor:v.(b + f_anchor) ~arg:v.(b + f_arg) ~mul:v.(b + f_mul)

let r_const v o n =
  put_anchor v o ~anchor:a_const ~arg:0 ~mul:0;
  ignore (put_set v o ~rlo:n ~rhi:n ~rstep:0 ~rres:0)

let r_anchored v o ~anchor ~arg =
  put_anchor v o ~anchor ~arg ~mul:1;
  ignore (put_set v o ~rlo:0 ~rhi:0 ~rstep:0 ~rres:0)

let r_is_const v b = v.(b + f_anchor) = a_const && v.(b + f_rstep) = 0
let anchors_equal v b1 b2 = v.(b1 + f_anchor) = v.(b2 + f_anchor) && v.(b1 + f_arg) = v.(b2 + f_arg)

(* The operations below write the value at [o] from the values at [b1]
   and [b2], which are never [o], and return false where no value
   results. *)

let s_add v o b1 b2 =
  let rstep = merge_step v.(b1 + f_rstep) v.(b2 + f_rstep) in
  let rres = if rstep = 0 then 0 else wrap (res v b1 + res v b2) rstep in
  put_set v o ~rlo:(v.(b1 + f_rlo) + v.(b2 + f_rlo)) ~rhi:(v.(b1 + f_rhi) + v.(b2 + f_rhi))
    ~rstep ~rres

let s_neg v o b =
  let rstep = v.(b + f_rstep) in
  let rres = if rstep = 0 then 0 else wrap (-res v b) rstep in
  ignore (put_set v o ~rlo:(-v.(b + f_rhi)) ~rhi:(-v.(b + f_rlo)) ~rstep ~rres)

(* a multiplier that cancelled to zero leaves a constant *)
let refit v o = if v.(o + f_mul) = 0 then put_anchor v o ~anchor:a_const ~arg:0 ~mul:0

let r_add v o b1 b2 =
  if v.(b1 + f_anchor) = a_const then begin
    keep_anchor v o b2;
    s_add v o b2 b1
  end
  else if v.(b2 + f_anchor) = a_const then begin
    keep_anchor v o b1;
    s_add v o b1 b2
  end
  else if anchors_equal v b1 b2 then begin
    put_anchor v o ~anchor:v.(b1 + f_anchor) ~arg:v.(b1 + f_arg)
      ~mul:(v.(b1 + f_mul) + v.(b2 + f_mul));
    let ok = s_add v o b1 b2 in
    refit v o;
    ok
  end
  else false

(* [neg] is a scratch cell for the negated subtrahend *)
let r_sub v o b1 b2 ~neg =
  if v.(b2 + f_anchor) = a_const then begin
    s_neg v neg b2;
    keep_anchor v o b1;
    s_add v o b1 neg
  end
  else if anchors_equal v b1 b2 then begin
    s_neg v neg b2;
    put_anchor v o ~anchor:v.(b1 + f_anchor) ~arg:v.(b1 + f_arg)
      ~mul:(v.(b1 + f_mul) - v.(b2 + f_mul));
    let ok = s_add v o b1 neg in
    refit v o;
    ok
  end
  else false

let r_scale v o k b =
  if k = 0 then begin
    r_const v o 0;
    true
  end
  else if not (product_within v.(b + f_rlo) k && product_within v.(b + f_rhi) k) then false
  else begin
    let rlo = if k > 0 then v.(b + f_rlo) * k else v.(b + f_rhi) * k in
    let rhi = if k > 0 then v.(b + f_rhi) * k else v.(b + f_rlo) * k in
    let rstep = v.(b + f_rstep) * abs k in
    let rres = if rstep = 0 then 0 else wrap (res v b * k) rstep in
    put_anchor v o ~anchor:v.(b + f_anchor) ~arg:v.(b + f_arg) ~mul:(v.(b + f_mul) * k);
    put_set v o ~rlo ~rhi ~rstep ~rres
  end

let r_mask v o m =
  if m = 0 then r_const v o 0
  else begin
    let tz = ref 0 in
    while m land (1 lsl !tz) = 0 do
      incr tz
    done;
    put_anchor v o ~anchor:a_const ~arg:0 ~mul:0;
    v.(o + f_rlo) <- 0;
    v.(o + f_rhi) <- m;
    v.(o + f_rstep) <- 1 lsl !tz;
    v.(o + f_rres) <- 0
  end;
  true

(* exact integer semantics, identical to the VLIW evaluator's *)
let exact (op : Ir.Instr.binop) a b =
  match op with
  | Ir.Instr.Add -> a + b
  | Ir.Instr.Sub -> a - b
  | Ir.Instr.Mul -> a * b
  | Ir.Instr.Div -> if b = 0 then 0 else a / b
  | Ir.Instr.And -> a land b
  | Ir.Instr.Or -> a lor b
  | Ir.Instr.Xor -> a lxor b
  | Ir.Instr.Shl -> a lsl (b land 31)
  | Ir.Instr.Shr -> a asr (b land 31)

let maskable v b = r_is_const v b && v.(b + f_rlo) >= 0 && v.(b + f_rlo) <= mag

let r_binop v o op b1 b2 ~neg =
  if r_is_const v b1 && r_is_const v b2 then begin
    let n = exact op v.(b1 + f_rlo) v.(b2 + f_rlo) in
    within n
    && begin
         r_const v o n;
         true
       end
  end
  else
    match op with
    | Ir.Instr.Add -> r_add v o b1 b2
    | Ir.Instr.Sub -> r_sub v o b1 b2 ~neg
    | Ir.Instr.Mul ->
      if r_is_const v b1 then r_scale v o v.(b1 + f_rlo) b2
      else if r_is_const v b2 then r_scale v o v.(b2 + f_rlo) b1
      else false
    | Ir.Instr.Shl ->
      r_is_const v b2
      && v.(b2 + f_rlo) land 31 < 50
      && r_scale v o (1 lsl (v.(b2 + f_rlo) land 31)) b1
    | Ir.Instr.And ->
      if maskable v b1 then r_mask v o v.(b1 + f_rlo)
      else if maskable v b2 then r_mask v o v.(b2 + f_rlo)
      else false
    | _ -> false

(* the four scratch cells that come first: two operands, the result
   and a negated subtrahend *)
let scratch_x = 0
let scratch_y = cell_size
let scratch_out = 2 * cell_size
let scratch_neg = 3 * cell_size

(* Forward pass over the body array.  Every register the body reads or
   writes gets a cell after the scratch cells, holding its entry value
   until the body defines it.  The result holds one value per memory
   operation, in body order ([a_none] where replay derives no
   address).  Allocates per distinct register and per memory
   operation, nothing per instruction. *)
let replay_addresses (body : Ir.Instr.t array) =
  let cell_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let cells = ref 4 and m = ref 0 in
  let note r =
    let c = reg_code r in
    if not (Hashtbl.mem cell_of c) then begin
      Hashtbl.add cell_of c (!cells * cell_size);
      incr cells
    end
  in
  Array.iter
    (fun i ->
      Ir.Instr.iter_uses note i;
      Ir.Instr.iter_defs note i;
      if Ir.Instr.is_memory i then incr m)
    body;
  let env = Array.make (!cells * cell_size) 0 in
  Hashtbl.iter (fun code b -> r_anchored env b ~anchor:a_entry ~arg:code) cell_of;
  let out = Array.make (!m * cell_size) a_none in
  let at r = Hashtbl.find cell_of (reg_code r) in
  let operand (o : Ir.Instr.operand) scratch =
    match o with
    | Ir.Instr.Reg r -> at r
    | Ir.Instr.Imm n ->
      r_const env scratch n;
      scratch
  in
  let assign d b = Array.blit env b env (at d) cell_size in
  let opaque id = r_anchored env scratch_out ~anchor:a_opaque ~arg:id in
  let k = ref 0 in
  let record (a : Ir.Instr.addr) =
    r_const env scratch_y a.Ir.Instr.disp;
    if r_add env scratch_out (at a.Ir.Instr.base) scratch_y then
      Array.blit env scratch_out out (!k * cell_size) cell_size;
    incr k
  in
  for p = 0 to Array.length body - 1 do
    let i = body.(p) in
    let id = i.Ir.Instr.id in
    match i.Ir.Instr.op with
    | Ir.Instr.Mov (d, src) -> assign d (operand src scratch_x)
    | Ir.Instr.Unop_neg (d, src) ->
      if not (r_scale env scratch_out (-1) (operand src scratch_x)) then opaque id;
      assign d scratch_out
    | Ir.Instr.Binop (op, d, a, b) ->
      let b1 = operand a scratch_x in
      let b2 = operand b scratch_y in
      if not (r_binop env scratch_out op b1 b2 ~neg:scratch_neg) then opaque id;
      assign d scratch_out
    | Ir.Instr.Cmp (_, d, _, _) ->
      put_anchor env scratch_out ~anchor:a_const ~arg:0 ~mul:0;
      env.(scratch_out + f_rlo) <- 0;
      env.(scratch_out + f_rhi) <- 1;
      env.(scratch_out + f_rstep) <- 1;
      env.(scratch_out + f_rres) <- 0;
      assign d scratch_out
    | Ir.Instr.Fbinop (_, d, _, _) ->
      opaque id;
      assign d scratch_out
    | Ir.Instr.Load { dst; addr = a; _ } ->
      record a;
      opaque id;
      assign dst scratch_out
    | Ir.Instr.Store { addr = a; _ } -> record a
    | Ir.Instr.Branch _ | Ir.Instr.Jump _ | Ir.Instr.Exit _
    | Ir.Instr.Nop | Ir.Instr.Rotate _ | Ir.Instr.Amov _ ->
      ()
  done;
  out

(* --- entailment: replayed value ⊆ claimed fact -------------------- *)

(* does replay derive an address for memory op [k]? *)
let derived out k = out.((k * cell_size) + f_anchor) <> a_none

let anchor_matches (o : Analysis.Absint.origin) out b =
  match o with
  | Analysis.Absint.Const -> out.(b + f_anchor) = a_const
  | Analysis.Absint.Entry r -> out.(b + f_anchor) = a_entry && out.(b + f_arg) = reg_code r
  | Analysis.Absint.Opaque i -> out.(b + f_anchor) = a_opaque && out.(b + f_arg) = i

let claimed_covers_set (c : Analysis.Absint.cset) out b =
  c.Analysis.Absint.lo <= out.(b + f_rlo)
  && out.(b + f_rhi) <= c.Analysis.Absint.hi
  &&
  if c.Analysis.Absint.stride = 0 then
    out.(b + f_rstep) = 0 && out.(b + f_rlo) = c.Analysis.Absint.lo
  else
    wrap (res out b) c.Analysis.Absint.stride = c.Analysis.Absint.rem
    && (out.(b + f_rstep) = 0 || out.(b + f_rstep) mod c.Analysis.Absint.stride = 0)

let entails (f : Analysis.Disamb.fact) out k =
  let b = k * cell_size in
  anchor_matches f.Analysis.Disamb.origin out b
  && f.Analysis.Disamb.scale = out.(b + f_mul)
  && claimed_covers_set f.Analysis.Disamb.off out b

(* --- disjointness from the claimed facts alone -------------------- *)

let range_cond (cx : Analysis.Absint.cset) wx (cy : Analysis.Absint.cset) wy =
  cy.Analysis.Absint.lo > cx.Analysis.Absint.hi + (wx - 1)
  || cx.Analysis.Absint.lo > cy.Analysis.Absint.hi + (wy - 1)

let claim_residue (c : Analysis.Absint.cset) =
  if c.Analysis.Absint.stride = 0 then c.Analysis.Absint.lo
  else c.Analysis.Absint.rem

(* [g] is the claimed separation code: 0 for ranges, the stride of a
   congruence otherwise *)
let claimed_disjoint (fx : Analysis.Disamb.fact) (fy : Analysis.Disamb.fact) g =
  if
    not
      (fx.Analysis.Disamb.scale = fy.Analysis.Disamb.scale
      &&
      match (fx.Analysis.Disamb.origin, fy.Analysis.Disamb.origin) with
      | Analysis.Absint.Const, Analysis.Absint.Const -> true
      | Analysis.Absint.Entry r1, Analysis.Absint.Entry r2 -> Ir.Reg.equal r1 r2
      | Analysis.Absint.Opaque i, Analysis.Absint.Opaque j -> i = j
      | _ -> false)
  then false
  else
    let cx = fx.Analysis.Disamb.off and cy = fy.Analysis.Disamb.off in
    let wx = fx.Analysis.Disamb.width and wy = fy.Analysis.Disamb.width in
    if g = 0 then range_cond cx wx cy wy
    else
      g >= 1
      && g = merge_step cx.Analysis.Absint.stride cy.Analysis.Absint.stride
      &&
      let d0 = wrap (claim_residue cy - claim_residue cx) g in
      let hit = ref false in
      for d = -(wy - 1) to wx - 1 do
        if wrap d g = d0 then hit := true
      done;
      not !hit

(* --- the checker's pair keys ----------------------------------------- *)

(* The checker packs pairs itself rather than borrowing the product's
   packer: an id pair [(a, b)], both ids in [0, 2^31), becomes
   [a * 2^31 + b], whose order is the tuples' order; an unordered pair
   is packed as [(min, max)]. *)
let key_bits = 31

let ordered_key a b =
  if (a lor b) lsr key_bits <> 0 then
    invalid_arg (Printf.sprintf "Witness.ordered_key: ids (%d, %d) out of range" a b);
  (a lsl key_bits) lor b

let pair_key a b = if a <= b then ordered_key a b else ordered_key b a

let key_lo k = k lsr key_bits
let key_hi k = k land ((1 lsl key_bits) - 1)

(* --- position indexes --------------------------------------------- *)

(* Ascending in-place heap sort.  It allocates nothing: the stdlib's
   [Array.sort] raises (and so allocates) an exception per element. *)
let sort_ints (a : int array) =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap i c;
        sift c len
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* An instruction sequence (a body, or a region flattened bundle by
   bundle) with its ids packed as [ordered_key id position] and sorted:
   an id's position is a binary search, and no table is keyed by id.
   One int per instruction. *)
type indexed = {
  instrs : Ir.Instr.t array;
  ids : int array;
}

let index instrs =
  let ids = Array.mapi (fun p (i : Ir.Instr.t) -> ordered_key i.Ir.Instr.id p) instrs in
  sort_ints ids;
  { instrs; ids }

(* the first x with keys.(x) >= k *)
let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let in_range id = id lsr key_bits = 0

(* the position of [id] (its first, should it repeat), -1 when absent *)
let pos t id =
  if not (in_range id) then -1
  else
    let x = lower_bound t.ids (id lsl key_bits) in
    if x < Array.length t.ids && key_lo t.ids.(x) = id then key_hi t.ids.(x) else -1

(* The distinct register codes [iter] visits, ascending.  A
   per-register table indexed by [reg_slot] has one cell per register
   the body names, whatever their codes ([T id] temporaries have codes
   near [3 * id]). *)
let reg_codes iter =
  let n = ref 0 in
  iter (fun _ -> incr n);
  let codes = Array.make !n 0 and k = ref 0 in
  iter (fun r ->
      codes.(!k) <- reg_code r;
      incr k);
  sort_ints codes;
  let d = ref 0 in
  Array.iter
    (fun c ->
      if !d = 0 || codes.(!d - 1) <> c then begin
        codes.(!d) <- c;
        incr d
      end)
    codes;
  Array.sub codes 0 !d

(* the rank of [r]'s code in [codes], -1 when absent *)
let reg_slot codes r =
  let c = reg_code r in
  let x = lower_bound codes c in
  if x < Array.length codes && codes.(x) = c then x else -1

(* the memory operations of a body, in body order *)
let memory_ops arr =
  let m = Array.fold_left (fun acc i -> if Ir.Instr.is_memory i then acc + 1 else acc) 0 arr in
  let mems = Array.make m (Ir.Instr.make ~id:0 Ir.Instr.Nop) in
  ignore
    (Array.fold_left
       (fun k i ->
         if Ir.Instr.is_memory i then begin
           mems.(k) <- i;
           k + 1
         end
         else k)
       0 arr);
  mems

(* --- the checker --------------------------------------------------- *)

let no_const = min_int

let witness_key cert x =
  pair_key (Analysis.Disamb.x_fact cert x).Analysis.Disamb.instr
    (Analysis.Disamb.y_fact cert x).Analysis.Disamb.instr

(* [k] among the certificate's keys, which [check] first holds to be
   strictly ascending and to name each pair's claimed facts *)
let witnessed (keys : int array) k =
  let n = Array.length keys in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo < n && keys.(!lo) = k

let check_width flag (f : Analysis.Disamb.fact) (i : Ir.Instr.t) =
  match i.Ir.Instr.op with
  | Ir.Instr.Load { width; _ } | Ir.Instr.Store { width; _ }
    when width = f.Analysis.Disamb.width ->
    ()
  | _ ->
    flag
      (Endpoints
         (Printf.sprintf "witness width %d of #%d mismatches body"
            f.Analysis.Disamb.width i.Ir.Instr.id))

(* the region's certified list against the certificate's keys, in
   order *)
let rec same_pairs (keys : int array) x = function
  | [] -> x = Array.length keys
  | (a, b) :: rest ->
    x < Array.length keys && pair_key a b = keys.(x) && same_pairs keys (x + 1) rest

let check ~(cert : Analysis.Disamb.t) ~(body : indexed)
    ~(region_certified : (int * int) list) ~(deps : Analysis.Depgraph.t) :
    violation list =
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  let n_pairs = Analysis.Disamb.count cert in
  let keys = Analysis.Disamb.keys cert in
  let arr = body.instrs in
  let mems = memory_ops arr in
  let mem_index = index mems in
  let out = replay_addresses arr in

  (* endpoints.  The pairs must be strictly ascending in this module's
     own keys of their claimed facts, and the certificate's key array
     must hold exactly those keys — the certified pair set is then that
     array, searched in place. *)
  for x = 0 to n_pairs - 1 do
    let fx = Analysis.Disamb.x_fact cert x and fy = Analysis.Disamb.y_fact cert x in
    let xi = fx.Analysis.Disamb.instr and yi = fy.Analysis.Disamb.instr in
    let p = pair_key xi yi in
    if keys.(x) <> p then
      flag
        (Endpoints
           (Printf.sprintf "pair keyed (%d,%d) claims facts for #%d/#%d"
              (key_lo keys.(x)) (key_hi keys.(x)) xi yi));
    if x > 0 then begin
      let prev = witness_key cert (x - 1) in
      if p = prev then
        flag (Endpoints (Printf.sprintf "duplicate witness for pair (%d,%d)"
                           (key_lo p) (key_hi p)))
      else if p < prev then
        flag (Endpoints (Printf.sprintf "witness for pair (%d,%d) out of pair order"
                           (key_lo p) (key_hi p)))
    end;
    let px = pos body xi and py = pos body yi in
    if px < 0 || py < 0 then
      flag
        (Endpoints
           (Printf.sprintf "witness endpoints #%d/#%d not in region body" xi
              yi))
    else
      let ix = arr.(px) and iy = arr.(py) in
      if xi = yi then
        flag (Endpoints (Printf.sprintf "witness relates #%d to itself" xi))
      else if not (Ir.Instr.is_memory ix && Ir.Instr.is_memory iy) then
        flag
          (Endpoints
             (Printf.sprintf "witness endpoints #%d/#%d are not both memory"
                xi yi))
      else if not (Ir.Instr.is_store ix || Ir.Instr.is_store iy) then
        flag
          (Endpoints
             (Printf.sprintf
                "witness pair (%d,%d) is load-load: nothing to certify" xi yi))
      else begin
        if px >= py then
          flag
            (Endpoints
               (Printf.sprintf "witness pair (%d,%d) is not in program order"
                  xi yi));
        check_width flag fx ix;
        check_width flag fy iy
      end
  done;

  (* derivation: replay and entailment, then separation arithmetic *)
  for x = 0 to n_pairs - 1 do
    let fx = Analysis.Disamb.x_fact cert x and fy = Analysis.Disamb.y_fact cert x in
    let kx = pos mem_index fx.Analysis.Disamb.instr
    and ky = pos mem_index fy.Analysis.Disamb.instr in
    if kx < 0 || ky < 0 || not (derived out kx && derived out ky) then
      flag
        (Derivation
           (Printf.sprintf
              "replay derives no address for pair (%d,%d)"
              fx.Analysis.Disamb.instr fy.Analysis.Disamb.instr))
    else begin
      if not (entails fx out kx) then
        flag
          (Derivation
             (Printf.sprintf
                "claimed fact for #%d is not entailed by replay"
                fx.Analysis.Disamb.instr));
      if not (entails fy out ky) then
        flag
          (Derivation
             (Printf.sprintf
                "claimed fact for #%d is not entailed by replay"
                fy.Analysis.Disamb.instr))
    end;
    if not (claimed_disjoint fx fy (Analysis.Disamb.separation cert x)) then
      flag
        (Separation
           (Printf.sprintf
              "claimed facts for pair (%d,%d) do not imply disjointness"
              fx.Analysis.Disamb.instr fy.Analysis.Disamb.instr))
  done;

  (* Per memory operation, in body order: id, store flag, base, disp,
     width, the replayed constant address ([no_const] if none) and the
     number of definitions of its base at earlier body positions — two
     same-base operations see a redefinition between them exactly when
     those counts differ.  Definition counts live in an array indexed
     by [reg_slot], one cell per register the body names. *)
  let m = Array.length mems in
  let codes =
    reg_codes (fun note ->
        Array.iter
          (fun (i : Ir.Instr.t) ->
            (match i.Ir.Instr.op with
            | Ir.Instr.Load { addr; _ } | Ir.Instr.Store { addr; _ } -> note addr.Ir.Instr.base
            | _ -> ());
            Ir.Instr.iter_defs note i)
          arr)
  in
  let def_count = Array.make (Array.length codes) 0 in
  let count_def r =
    let c = reg_slot codes r in
    def_count.(c) <- def_count.(c) + 1
  in
  let m_id = Array.make m 0 and m_store = Array.make m false in
  let m_base = Array.make m 0 and m_disp = Array.make m 0 in
  let m_width = Array.make m 1 and m_const = Array.make m no_const in
  let m_defs = Array.make m 0 in
  let k = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      (match i.Ir.Instr.op with
      | Ir.Instr.Load { addr; width; _ } | Ir.Instr.Store { addr; width; _ } ->
        let x = !k in
        incr k;
        m_id.(x) <- i.Ir.Instr.id;
        m_store.(x) <- Ir.Instr.is_store i;
        m_base.(x) <- reg_slot codes addr.Ir.Instr.base;
        m_disp.(x) <- addr.Ir.Instr.disp;
        m_width.(x) <- width;
        m_defs.(x) <- def_count.(m_base.(x));
        let b = x * cell_size in
        if out.(b + f_anchor) = a_const && out.(b + f_rstep) = 0 then
          m_const.(x) <- out.(b + f_rlo)
      | _ -> ());
      Ir.Instr.iter_defs count_def i)
    arr;

  (* no certified pair may keep a dependence edge; the edge set itself
     becomes a bit matrix over memory positions *)
  let edge_bits = Bytes.make (((m * m) + 7) / 8) '\000' in
  let bit x y = (x * m) + y in
  let byte b = Char.code (Bytes.get edge_bits (b lsr 3)) in
  let set_bit b =
    Bytes.set edge_bits (b lsr 3) (Char.chr (byte b lor (1 lsl (b land 7))))
  in
  let has_bit b = byte b land (1 lsl (b land 7)) <> 0 in
  Analysis.Depgraph.iter_edges deps
    (fun ~first ~second ~kind:_ ~strength:_ ->
      if witnessed keys (pair_key first second) then
        flag
          (Edge_kept
             (Printf.sprintf
                "certified pair (%d,%d) still carries a dependence edge"
                (min first second) (max first second)));
      let x = pos mem_index first and y = pos mem_index second in
      if x >= 0 && y >= 0 then set_bit (bit (min x y) (max x y)));

  (* completeness: every replay-may pair needs an edge or a witness.
     Mirrors the precision of the base may-alias analysis (same-base
     displacement rule plus constant-address disambiguation), NOT the
     abstract-interpretation engine: a pair the base analysis can only
     call "may" must carry either a dependence edge or a witness, so a
     certificate that silently loses a witness is caught even though
     the engine could re-prove the pair. *)
  let overlap x y =
    m_disp.(x) < m_disp.(y) + m_width.(y) && m_disp.(y) < m_disp.(x) + m_width.(x)
  in
  let replay_may x y =
    if m_base.(x) = m_base.(y) then m_defs.(x) <> m_defs.(y) || overlap x y
    else
      (* different bases: only provably constant addresses decide *)
      let a1 = m_const.(x) and a2 = m_const.(y) in
      a1 = no_const || a2 = no_const
      || (a1 < a2 + m_width.(y) && a2 < a1 + m_width.(x))
  in
  for x = 0 to m - 1 do
    for y = x + 1 to m - 1 do
      if
        (m_store.(x) || m_store.(y))
        && (not (has_bit (bit x y)))
        && (not (witnessed keys (pair_key m_id.(x) m_id.(y))))
        && replay_may x y
      then
        flag
          (Dep_missing
             (Printf.sprintf
                "may-alias pair (%d,%d) has neither an edge nor a witness"
                (min m_id.(x) m_id.(y)) (max m_id.(x) m_id.(y))))
    done
  done;

  (* the region lists exactly the certificate's pairs, in its order *)
  if not (same_pairs keys 0 region_certified) then
    flag
      (Region_sync
         (Printf.sprintf
            "region lists %d certified pairs, certificate has %d (or they differ)"
            (List.length region_certified) n_pairs));

  List.rev !violations
