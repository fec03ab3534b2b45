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

(* --- the checker --------------------------------------------------- *)

let norm_pair a b = if a <= b then (a, b) else (b, a)

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

  (* endpoints *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (w : Analysis.Disamb.witness) ->
      let fx = w.Analysis.Disamb.x and fy = w.Analysis.Disamb.y in
      let xi = fx.Analysis.Disamb.instr and yi = fy.Analysis.Disamb.instr in
      let p = norm_pair xi yi in
      if Hashtbl.mem seen p then
        flag (Endpoints (Printf.sprintf "duplicate witness for pair (%d,%d)"
                           (fst p) (snd p)));
      Hashtbl.replace seen p ();
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

  (* no certified pair may keep a dependence edge *)
  Analysis.Depgraph.iter_edges deps
    (fun ~first ~second ~kind:_ ~strength:_ ->
      if Analysis.Disamb.no_alias cert first second then
        flag
          (Edge_kept
             (Printf.sprintf
                "certified pair (%d,%d) still carries a dependence edge"
                (min first second) (max first second))));

  (* completeness: every replay-may pair needs an edge or a witness *)
  let edge_pairs = Hashtbl.create 64 in
  Analysis.Depgraph.iter_edges deps
    (fun ~first ~second ~kind:_ ~strength:_ ->
      Hashtbl.replace edge_pairs (norm_pair first second) ());
  let def_pos = Hashtbl.create 64 in
  List.iteri
    (fun idx (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          let l = Option.value (Hashtbl.find_opt def_pos r) ~default:[] in
          Hashtbl.replace def_pos r (idx :: l))
        (Ir.Instr.defs i))
    body;
  let defined_between r ~lo ~hi =
    match Hashtbl.find_opt def_pos r with
    | None -> false
    | Some l -> List.exists (fun k -> k >= lo && k < hi) l
  in
  (* Mirrors the precision of the base may-alias analysis (same-base
     displacement rule plus constant-address disambiguation), NOT the
     abstract-interpretation engine: a pair the base analysis can only
     call "may" must carry either a dependence edge or a witness, so a
     certificate that silently loses a witness is caught even though
     the engine could re-prove the pair. *)
  let replay_may (x : Ir.Instr.t) (y : Ir.Instr.t) =
    match (Ir.Instr.mem_addr x, Ir.Instr.mem_addr y) with
    | Some ax, Some ay ->
      let wx = Option.value (Ir.Instr.mem_width x) ~default:1 in
      let wy = Option.value (Ir.Instr.mem_width y) ~default:1 in
      if Ir.Reg.equal ax.Ir.Instr.base ay.Ir.Instr.base then
        defined_between ax.Ir.Instr.base
          ~lo:(Hashtbl.find pos x.Ir.Instr.id)
          ~hi:(Hashtbl.find pos y.Ir.Instr.id)
        || ax.Ir.Instr.disp < ay.Ir.Instr.disp + wy
           && ay.Ir.Instr.disp < ax.Ir.Instr.disp + wx
      else begin
        (* different bases: only provably constant addresses decide *)
        match
          ( Hashtbl.find_opt addrs x.Ir.Instr.id,
            Hashtbl.find_opt addrs y.Ir.Instr.id )
        with
        | Some (v1, _), Some (v2, _) -> (
          match (r_const_of v1, r_const_of v2) with
          | Some a1, Some a2 -> a1 < a2 + wy && a2 < a1 + wx
          | _ -> true)
        | _ -> true
      end
    | _ -> false
  in
  let mems = List.filter Ir.Instr.is_memory body |> Array.of_list in
  let n = Array.length mems in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = mems.(i) and y = mems.(j) in
      if Ir.Instr.is_store x || Ir.Instr.is_store y then begin
        let p = norm_pair x.Ir.Instr.id y.Ir.Instr.id in
        if
          (not (Hashtbl.mem edge_pairs p))
          && (not (Analysis.Disamb.no_alias cert x.Ir.Instr.id y.Ir.Instr.id))
          && replay_may x y
        then
          flag
            (Dep_missing
               (Printf.sprintf
                  "may-alias pair (%d,%d) has neither an edge nor a witness"
                  (fst p) (snd p)))
      end
    done
  done;

  (* region list must be exactly the certificate's pair set *)
  let cert_pairs = Analysis.Disamb.pairs cert in
  let region_pairs =
    List.map (fun (a, b) -> norm_pair a b) region_certified
    |> List.sort_uniq compare
  in
  if cert_pairs <> region_pairs then
    flag
      (Region_sync
         (Printf.sprintf
            "region lists %d certified pairs, certificate has %d (or they differ)"
            (List.length region_pairs) (List.length cert_pairs)));

  List.rev !violations
