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
     matches the certificate.

   The verifier runs this on every region: one built without
   certification is checked against the empty certificate, so the
   completeness rule still asks whether the dependence graph lost an
   edge, and a region listing certified pairs fails the sync check.

   The certificate is read only through its raw witness list: pair
   membership uses this module's own packed keys, never a [Disamb]
   query.

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

type anchor = A_const | A_entry of Ir.Reg.t | A_opaque of int

(* members: rlo <= n <= rhi, and n = rres (mod rstep) when rstep > 0;
   rstep = 0 marks the singleton {rlo}. *)
type strided = {
  rlo : int;
  rhi : int;
  rstep : int;
  rres : int;
}

type rvalue = {
  anchor : anchor;
  mul : int;
  k : strided;
}

let mag = 1 lsl 50
let sing n = { rlo = n; rhi = n; rstep = 0; rres = 0 }
let wrap a m = ((a mod m) + m) mod m
let res s = if s.rstep = 0 then s.rlo else s.rres

let rec gcd_pos a b = if b = 0 then a else gcd_pos b (a mod b)
let merge_step a b = if a = 0 then b else if b = 0 then a else gcd_pos a b

let s_norm s =
  if s.rlo = s.rhi then sing s.rlo else { s with rres = wrap s.rres s.rstep }

(* bounds compared directly: [abs min_int] is negative *)
let within n = -mag <= n && n <= mag
let s_guard s = if within s.rlo && within s.rhi then Some s else None

let s_add s1 s2 =
  let rstep = merge_step s1.rstep s2.rstep in
  let rres = if rstep = 0 then 0 else wrap (res s1 + res s2) rstep in
  s_guard (s_norm { rlo = s1.rlo + s2.rlo; rhi = s1.rhi + s2.rhi; rstep; rres })

let s_neg s =
  let rres = if s.rstep = 0 then 0 else wrap (-res s) s.rstep in
  s_norm { rlo = -s.rhi; rhi = -s.rlo; rstep = s.rstep; rres }

(* refuse before multiplying: a wrapped product could land in range *)
let product_within n k = n = 0 || (within n && within k && abs n <= mag / abs k)

let s_scale k s =
  if k = 0 then Some (sing 0)
  else if not (product_within s.rlo k && product_within s.rhi k) then None
  else
    let rlo, rhi =
      if k > 0 then (s.rlo * k, s.rhi * k) else (s.rhi * k, s.rlo * k)
    in
    let rstep = s.rstep * abs k in
    let rres = if rstep = 0 then 0 else wrap (res s * k) rstep in
    s_guard (s_norm { rlo; rhi; rstep; rres })

let r_const n = { anchor = A_const; mul = 0; k = sing n }
let r_entry r = { anchor = A_entry r; mul = 1; k = sing 0 }
let r_opaque id = { anchor = A_opaque id; mul = 1; k = sing 0 }

let anchors_equal a b =
  match (a, b) with
  | A_const, A_const -> true
  | A_entry r1, A_entry r2 -> Ir.Reg.equal r1 r2
  | A_opaque i, A_opaque j -> i = j
  | _ -> false

let r_const_of v =
  match v.anchor with
  | A_const when v.k.rstep = 0 -> Some v.k.rlo
  | _ -> None

let refit v = if v.mul = 0 then { v with anchor = A_const } else v

let r_add v1 v2 =
  if v1.anchor = A_const then
    Option.map (fun k -> { v2 with k }) (s_add v2.k v1.k)
  else if v2.anchor = A_const then
    Option.map (fun k -> { v1 with k }) (s_add v1.k v2.k)
  else if anchors_equal v1.anchor v2.anchor then
    Option.map
      (fun k -> refit { v1 with mul = v1.mul + v2.mul; k })
      (s_add v1.k v2.k)
  else None

let r_sub v1 v2 =
  if v2.anchor = A_const then
    Option.map (fun k -> { v1 with k }) (s_add v1.k (s_neg v2.k))
  else if anchors_equal v1.anchor v2.anchor then
    Option.map
      (fun k -> refit { v1 with mul = v1.mul - v2.mul; k })
      (s_add v1.k (s_neg v2.k))
  else None

let r_scale k v =
  if k = 0 then Some (r_const 0)
  else Option.map (fun k' -> { v with mul = v.mul * k; k = k' }) (s_scale k v.k)

let r_mask m =
  if m = 0 then Some (r_const 0)
  else
    let tz =
      let rec go i = if m land (1 lsl i) <> 0 then i else go (i + 1) in
      go 0
    in
    Some
      {
        anchor = A_const;
        mul = 0;
        k = { rlo = 0; rhi = m; rstep = 1 lsl tz; rres = 0 };
      }

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

let r_binop op v1 v2 =
  match (r_const_of v1, r_const_of v2) with
  | Some a, Some b ->
    let n = exact op a b in
    if within n then Some (r_const n) else None
  | _ -> (
    match op with
    | Ir.Instr.Add -> r_add v1 v2
    | Ir.Instr.Sub -> r_sub v1 v2
    | Ir.Instr.Mul -> (
      match (r_const_of v1, r_const_of v2) with
      | Some c, _ -> r_scale c v2
      | _, Some c -> r_scale c v1
      | _ -> None)
    | Ir.Instr.Shl -> (
      match r_const_of v2 with
      | Some c when c land 31 < 50 -> r_scale (1 lsl (c land 31)) v1
      | _ -> None)
    | Ir.Instr.And -> (
      match (r_const_of v1, r_const_of v2) with
      | Some m, _ when m >= 0 && m <= mag -> r_mask m
      | _, Some m when m >= 0 && m <= mag -> r_mask m
      | _ -> None)
    | _ -> None)

(* Forward pass: abstract address (and width) per memory instruction. *)
let replay_addresses body =
  let env : (Ir.Reg.t, rvalue) Hashtbl.t = Hashtbl.create 64 in
  let lookup r =
    match Hashtbl.find_opt env r with Some v -> v | None -> r_entry r
  in
  let operand = function
    | Ir.Instr.Reg r -> lookup r
    | Ir.Instr.Imm n -> r_const n
  in
  let addrs = Hashtbl.create 32 in
  let record id (a : Ir.Instr.addr) width =
    match r_add (lookup a.Ir.Instr.base) (r_const a.Ir.Instr.disp) with
    | Some v -> Hashtbl.replace addrs id (v, width)
    | None -> ()
  in
  List.iter
    (fun (i : Ir.Instr.t) ->
      let opaque () = r_opaque i.Ir.Instr.id in
      match i.Ir.Instr.op with
      | Ir.Instr.Mov (d, src) -> Hashtbl.replace env d (operand src)
      | Ir.Instr.Unop_neg (d, src) ->
        Hashtbl.replace env d
          (Option.value (r_scale (-1) (operand src)) ~default:(opaque ()))
      | Ir.Instr.Binop (op, d, a, b) ->
        Hashtbl.replace env d
          (Option.value (r_binop op (operand a) (operand b))
             ~default:(opaque ()))
      | Ir.Instr.Cmp (_, d, _, _) ->
        Hashtbl.replace env d
          { anchor = A_const; mul = 0;
            k = { rlo = 0; rhi = 1; rstep = 1; rres = 0 } }
      | Ir.Instr.Fbinop (_, d, _, _) -> Hashtbl.replace env d (opaque ())
      | Ir.Instr.Load { dst; addr = a; width; _ } ->
        record i.Ir.Instr.id a width;
        Hashtbl.replace env dst (opaque ())
      | Ir.Instr.Store { addr = a; width; _ } -> record i.Ir.Instr.id a width
      | Ir.Instr.Branch _ | Ir.Instr.Jump _ | Ir.Instr.Exit _
      | Ir.Instr.Nop | Ir.Instr.Rotate _ | Ir.Instr.Amov _ ->
        ())
    body;
  addrs

(* --- entailment: replayed value ⊆ claimed fact -------------------- *)

let anchor_matches (o : Analysis.Absint.origin) a =
  match (o, a) with
  | Analysis.Absint.Const, A_const -> true
  | Analysis.Absint.Entry r, A_entry r' -> Ir.Reg.equal r r'
  | Analysis.Absint.Opaque i, A_opaque j -> i = j
  | _ -> false

let claimed_covers_set (c : Analysis.Absint.cset) (s : strided) =
  c.Analysis.Absint.lo <= s.rlo
  && s.rhi <= c.Analysis.Absint.hi
  &&
  if c.Analysis.Absint.stride = 0 then s.rstep = 0 && s.rlo = c.Analysis.Absint.lo
  else
    wrap (res s) c.Analysis.Absint.stride = c.Analysis.Absint.rem
    && (s.rstep = 0 || s.rstep mod c.Analysis.Absint.stride = 0)

let entails (f : Analysis.Disamb.fact) (v : rvalue) =
  anchor_matches f.Analysis.Disamb.origin v.anchor
  && f.Analysis.Disamb.scale = v.mul
  && claimed_covers_set f.Analysis.Disamb.off v.k

(* --- disjointness from the claimed facts alone -------------------- *)

let range_cond (cx : Analysis.Absint.cset) wx (cy : Analysis.Absint.cset) wy =
  cy.Analysis.Absint.lo > cx.Analysis.Absint.hi + (wx - 1)
  || cx.Analysis.Absint.lo > cy.Analysis.Absint.hi + (wy - 1)

let claim_residue (c : Analysis.Absint.cset) =
  if c.Analysis.Absint.stride = 0 then c.Analysis.Absint.lo
  else c.Analysis.Absint.rem

let claimed_disjoint (w : Analysis.Disamb.witness) =
  let fx = w.Analysis.Disamb.x and fy = w.Analysis.Disamb.y in
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
    match w.Analysis.Disamb.reason with
    | Analysis.Disamb.Ranges -> range_cond cx wx cy wy
    | Analysis.Disamb.Congruence g ->
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

(* ascending, duplicate-free keys of a pair list *)
let sorted_keys pairs =
  let keys = Array.of_list (List.map (fun (a, b) -> pair_key a b) pairs) in
  Array.sort Int.compare keys;
  let n = Array.length keys in
  let len = ref 0 in
  for x = 0 to n - 1 do
    if x = 0 || keys.(x) <> keys.(x - 1) then begin
      keys.(!len) <- keys.(x);
      incr len
    end
  done;
  Array.sub keys 0 !len

(* --- the checker --------------------------------------------------- *)

let no_const = min_int

let reg_code = function
  | Ir.Reg.R i -> 3 * i
  | Ir.Reg.F i -> (3 * i) + 1
  | Ir.Reg.T i -> (3 * i) + 2

let check ~(cert : Analysis.Disamb.t) ~(body : Ir.Instr.t list)
    ~(region_certified : (int * int) list) ~(deps : Analysis.Depgraph.t) :
    violation list =
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  let ws = Analysis.Disamb.witnesses cert in
  let by_id = Hashtbl.create 64 in
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (i : Ir.Instr.t) ->
      Hashtbl.replace by_id i.Ir.Instr.id i;
      Hashtbl.replace pos i.Ir.Instr.id idx)
    body;
  let addrs = replay_addresses body in

  (* endpoints; [certified] is the witnessed pair set under the
     checker's own keys *)
  let certified = Hashtbl.create 16 in
  List.iter
    (fun (w : Analysis.Disamb.witness) ->
      let fx = w.Analysis.Disamb.x and fy = w.Analysis.Disamb.y in
      let xi = fx.Analysis.Disamb.instr and yi = fy.Analysis.Disamb.instr in
      let p = pair_key xi yi in
      if Hashtbl.mem certified p then
        flag (Endpoints (Printf.sprintf "duplicate witness for pair (%d,%d)"
                           (key_lo p) (key_hi p)));
      Hashtbl.replace certified p ();
      match (Hashtbl.find_opt by_id xi, Hashtbl.find_opt by_id yi) with
      | Some ix, Some iy ->
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
          if Hashtbl.find pos xi >= Hashtbl.find pos yi then
            flag
              (Endpoints
                 (Printf.sprintf "witness pair (%d,%d) is not in program order"
                    xi yi));
          let check_width f (i : Ir.Instr.t) =
            match Ir.Instr.mem_width i with
            | Some wd when wd = f.Analysis.Disamb.width -> ()
            | _ ->
              flag
                (Endpoints
                   (Printf.sprintf "witness width %d of #%d mismatches body"
                      f.Analysis.Disamb.width i.Ir.Instr.id))
          in
          check_width fx ix;
          check_width fy iy
        end
      | _ ->
        flag
          (Endpoints
             (Printf.sprintf "witness endpoints #%d/#%d not in region body" xi
                yi)))
    ws;

  (* derivation: replay and entailment, then separation arithmetic *)
  List.iter
    (fun (w : Analysis.Disamb.witness) ->
      let fx = w.Analysis.Disamb.x and fy = w.Analysis.Disamb.y in
      (match
         ( Hashtbl.find_opt addrs fx.Analysis.Disamb.instr,
           Hashtbl.find_opt addrs fy.Analysis.Disamb.instr )
       with
      | Some (vx, _), Some (vy, _) ->
        if not (entails fx vx) then
          flag
            (Derivation
               (Printf.sprintf
                  "claimed fact for #%d is not entailed by replay"
                  fx.Analysis.Disamb.instr));
        if not (entails fy vy) then
          flag
            (Derivation
               (Printf.sprintf
                  "claimed fact for #%d is not entailed by replay"
                  fy.Analysis.Disamb.instr))
      | _ ->
        flag
          (Derivation
             (Printf.sprintf
                "replay derives no address for pair (%d,%d)"
                fx.Analysis.Disamb.instr fy.Analysis.Disamb.instr)));
      if not (claimed_disjoint w) then
        flag
          (Separation
             (Printf.sprintf
                "claimed facts for pair (%d,%d) do not imply disjointness"
                fx.Analysis.Disamb.instr fy.Analysis.Disamb.instr)))
    ws;

  (* Per memory operation, in body order: id, store flag, base, disp,
     width, the replayed constant address ([no_const] if none) and the
     number of definitions of its base at earlier body positions — two
     same-base operations see a redefinition between them exactly when
     those counts differ. *)
  let mems = List.filter Ir.Instr.is_memory body |> Array.of_list in
  let m = Array.length mems in
  let m_id = Array.make m 0 and m_store = Array.make m false in
  let m_base = Array.make m 0 and m_disp = Array.make m 0 in
  let m_width = Array.make m 1 and m_const = Array.make m no_const in
  let m_defs = Array.make m 0 in
  let mem_index = Hashtbl.create (2 * (m + 1)) in
  let def_count = Hashtbl.create 64 in
  let defs_of code = try Hashtbl.find def_count code with Not_found -> 0 in
  let k = ref 0 in
  List.iter
    (fun (i : Ir.Instr.t) ->
      (match i.Ir.Instr.op with
      | Ir.Instr.Load { addr; width; _ } | Ir.Instr.Store { addr; width; _ } ->
        let x = !k in
        incr k;
        m_id.(x) <- i.Ir.Instr.id;
        m_store.(x) <- Ir.Instr.is_store i;
        m_base.(x) <- reg_code addr.Ir.Instr.base;
        m_disp.(x) <- addr.Ir.Instr.disp;
        m_width.(x) <- width;
        m_defs.(x) <- defs_of m_base.(x);
        (match Hashtbl.find addrs i.Ir.Instr.id with
        | v, _ -> (
          match r_const_of v with Some a -> m_const.(x) <- a | None -> ())
        | exception Not_found -> ());
        Hashtbl.replace mem_index i.Ir.Instr.id x
      | _ -> ());
      List.iter
        (fun r ->
          let c = reg_code r in
          Hashtbl.replace def_count c (defs_of c + 1))
        (Ir.Instr.defs i))
    body;

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
      if Hashtbl.mem certified (pair_key first second) then
        flag
          (Edge_kept
             (Printf.sprintf
                "certified pair (%d,%d) still carries a dependence edge"
                (min first second) (max first second)));
      match (Hashtbl.find mem_index first, Hashtbl.find mem_index second) with
      | x, y -> set_bit (bit (min x y) (max x y))
      | exception Not_found -> ());

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
        && (not (Hashtbl.mem certified (pair_key m_id.(x) m_id.(y))))
        && replay_may x y
      then
        flag
          (Dep_missing
             (Printf.sprintf
                "may-alias pair (%d,%d) has neither an edge nor a witness"
                (min m_id.(x) m_id.(y)) (max m_id.(x) m_id.(y))))
    done
  done;

  (* region list must be exactly the certificate's pair set *)
  let cert_keys =
    sorted_keys
      (List.map
         (fun (w : Analysis.Disamb.witness) ->
           (w.Analysis.Disamb.x.Analysis.Disamb.instr,
            w.Analysis.Disamb.y.Analysis.Disamb.instr))
         ws)
  in
  let region_keys = sorted_keys region_certified in
  if cert_keys <> region_keys then
    flag
      (Region_sync
         (Printf.sprintf
            "region lists %d certified pairs, certificate has %d (or they differ)"
            (Array.length region_keys) (Array.length cert_keys)));

  List.rev !violations
