type result = {
  body : Ir.Instr.t list;
  eliminations : (Analysis.Depgraph.elimination * Ir.Instr.t list) list;
  assumed_no_alias : (int * int) list;
  loads_eliminated : int;
  stores_eliminated : int;
}

(* Each original body slot holds the surviving instructions for that
   slot: captures movs around an op, a replacement mov, or nothing. *)
type cell = Ir.Instr.t list

let is_must alias a b =
  match Analysis.May_alias.verdict alias a b with
  | Analysis.May_alias.Must_alias -> true
  | Analysis.May_alias.May_alias | Analysis.May_alias.No_alias -> false

let is_may alias a b =
  match Analysis.May_alias.verdict alias a b with
  | Analysis.May_alias.May_alias -> true
  | Analysis.May_alias.Must_alias | Analysis.May_alias.No_alias -> false

(* Exact must-alias: same base, displacement and width, and the alias
   analysis agrees (which covers base redefinition between the two). *)
let exact_same_location alias (a : Ir.Instr.t) (b : Ir.Instr.t) =
  match a.op, b.op with
  | ( (Ir.Instr.Load { addr = aa; width = wa; _ }
      | Ir.Instr.Store { addr = aa; width = wa; _ }),
      (Ir.Instr.Load { addr = ab; width = wb; _ }
      | Ir.Instr.Store { addr = ab; width = wb; _ }) ) ->
    Ir.Reg.equal aa.base ab.base
    && aa.disp = ab.disp
    && wa = wb
    && is_must alias a b
  | _ -> false

type state = {
  cells : cell array;  (* indexed by original position *)
  anchor : Ir.Instr.t array;  (* the original instruction per slot *)
  mutable dead : (int, unit) Hashtbl.t;  (* positions eliminated *)
  mutable elims : (Analysis.Depgraph.elimination * (int * int)) list;
      (* elimination + (lo, hi) original positions of the pair *)
  mutable assumed : (int * int) list;
  mutable loads_eliminated : int;
  mutable stores_eliminated : int;
  locked : (int, unit) Hashtbl.t;  (* instr ids that must stay intact *)
  fresh_id : int ref;
}

let make_state ~body ~fresh_id =
  let anchor = Array.of_list body in
  {
    cells = Array.map (fun i -> [ i ]) anchor;
    anchor;
    dead = Hashtbl.create 16;
    elims = [];
    assumed = [];
    loads_eliminated = 0;
    stores_eliminated = 0;
    locked = Hashtbl.create 16;
    fresh_id;
  }

let alive st pos = not (Hashtbl.mem st.dead pos)
let lock st (i : Ir.Instr.t) = Hashtbl.replace st.locked i.id ()
let is_locked st (i : Ir.Instr.t) = Hashtbl.mem st.locked i.id

let next_id st =
  let id = !(st.fresh_id) in
  incr st.fresh_id;
  id

(* Is [reg] (re)defined by any original instruction strictly between
   positions [lo] and [hi]?  (Replacement movs only define the same
   registers as the instructions they replace, so scanning the anchors
   is conservative and sufficient.) *)
let redefined_between st reg ~lo ~hi =
  let found = ref false in
  let check r = if Ir.Reg.equal r reg then found := true in
  let p = ref (lo + 1) in
  while (not !found) && !p < hi do
    Ir.Instr.iter_defs check st.anchor.(!p);
    incr p
  done;
  !found

(* ---- Store elimination ---- *)

let store_elim st ~alias ~checking_stores =
  let n = Array.length st.anchor in
  for p = 0 to n - 1 do
    let x = st.anchor.(p) in
    if
      Ir.Instr.is_store x && alive st p
      && (not (is_locked st x))
      && not (Hashtbl.mem checking_stores x.id)
    then begin
      (* scan forward for an exact overwriter, giving up at a side
         exit or a must-alias load *)
      let rec scan q =
        if q >= n then None
        else
          let w = st.anchor.(q) in
          if not (alive st q) then scan (q + 1)
          else if Ir.Instr.is_side_exit w then None
          else if Ir.Instr.is_store w && exact_same_location alias x w then
            Some (q, w)
          else if Ir.Instr.is_load w && is_must alias x w then None
          else scan (q + 1)
      in
      match scan (p + 1) with
      | None -> ()
      | Some (q, z) ->
        (* speculate: intervening may-alias loads are checked by z *)
        let intervening = ref [] in
        for k = p + 1 to q - 1 do
          if alive st k then begin
            let y = st.anchor.(k) in
            if Ir.Instr.is_load y && is_may alias z y then begin
              intervening := y :: !intervening;
              st.assumed <- (z.id, y.id) :: st.assumed;
              (* y must stay a load so its P bit can protect it *)
              lock st y
            end
          end
        done;
        lock st z;
        Hashtbl.replace st.dead p ();
        st.cells.(p) <- [];
        st.stores_eliminated <- st.stores_eliminated + 1;
        st.elims <-
          ( Analysis.Depgraph.Store_overwritten
              { eliminated = x.id; overwriter = z.id },
            (p, q) )
          :: st.elims
    end
  done

(* ---- Load elimination ---- *)

let load_elim st ~alias ~policy ~checking_stores =
  let allow_ll = policy.Sched.Policy.allow_load_load_forward in
  let allow_sl = policy.Sched.Policy.allow_store_load_forward in
  if allow_ll || allow_sl then begin
    let n = Array.length st.anchor in
    for q = 0 to n - 1 do
      let z = st.anchor.(q) in
      if Ir.Instr.is_load z && alive st q && not (is_locked st z) then begin
        (* scan backward for the nearest live exact-location source *)
        let rec scan p intervening =
          if p < 0 then None
          else
            let w = st.anchor.(p) in
            if not (alive st p) then scan (p - 1) intervening
            else if Ir.Instr.is_memory w && exact_same_location alias w z then
              if Ir.Instr.is_store w then
                if allow_sl then Some (p, w, intervening) else None
              else if allow_ll then Some (p, w, intervening)
              else None
            else if Ir.Instr.is_store w && is_must alias w z then
              (* partially overlapping known store: unsafe to cross *)
              None
            else if Ir.Instr.is_store w && is_may alias w z then
              scan (p - 1) (w :: intervening)
            else scan (p - 1) intervening
        in
        match scan (q - 1) [] with
        | None -> ()
        | Some (p, src_op, intervening_stores) ->
          let dst =
            match z.op with
            | Ir.Instr.Load { dst; _ } -> dst
            | _ -> assert false
          in
          (* Forward directly through the source's register or
             immediate when it provably still holds the value at Z's
             position; otherwise capture it into a fresh temporary at
             the source.  Direct forwarding costs one move (or none at
             all for an immediate) instead of two. *)
          let forwarded_operand =
            match src_op.op with
            | Ir.Instr.Store { src = Ir.Instr.Imm n; _ } ->
              Some (Ir.Instr.Imm n)
            | Ir.Instr.Store { src = Ir.Instr.Reg rsrc; _ }
              when not (redefined_between st rsrc ~lo:p ~hi:q) ->
              Some (Ir.Instr.Reg rsrc)
            | Ir.Instr.Load { dst = src_dst; _ }
              when not (redefined_between st src_dst ~lo:p ~hi:q) ->
              Some (Ir.Instr.Reg src_dst)
            | Ir.Instr.Store _ | Ir.Instr.Load _ -> None
            | _ -> assert false
          in
          let replacement =
            match forwarded_operand with
            | Some operand -> Ir.Instr.Mov (dst, operand)
            | None ->
              let tmp = Ir.Reg.T (next_id st) in
              (match src_op.op with
              | Ir.Instr.Store { src; _ } ->
                let capture =
                  Ir.Instr.make ~id:(next_id st) (Ir.Instr.Mov (tmp, src))
                in
                st.cells.(p) <- capture :: st.cells.(p)
              | Ir.Instr.Load { dst = src_dst; _ } ->
                let capture =
                  Ir.Instr.make ~id:(next_id st)
                    (Ir.Instr.Mov (tmp, Ir.Instr.Reg src_dst))
                in
                st.cells.(p) <- st.cells.(p) @ [ capture ]
              | _ -> assert false);
              Ir.Instr.Mov (dst, Ir.Instr.Reg tmp)
          in
          let mov = Ir.Instr.make ~id:(next_id st) replacement in
          Hashtbl.replace st.dead q ();
          st.cells.(q) <- [ mov ];
          st.loads_eliminated <- st.loads_eliminated + 1;
          (* the source must stay so its register can be protected *)
          lock st src_op;
          List.iter
            (fun (w : Ir.Instr.t) ->
              (* w owes a runtime check against the source; it must not
                 be eliminated by the later store-elimination pass *)
              Hashtbl.replace checking_stores w.id ();
              st.assumed <- (src_op.id, w.id) :: st.assumed)
            intervening_stores;
          st.elims <-
            ( Analysis.Depgraph.Load_forwarded
                { source = src_op.id; eliminated = z.id },
              (p, q) )
            :: st.elims
      end
    done
  end

let finish st =
  let body = Array.to_list st.cells |> List.concat in
  let surviving = Hashtbl.create 64 in
  List.iter (fun (i : Ir.Instr.t) -> Hashtbl.replace surviving i.id i) body;
  let between (lo, hi) =
    let acc = ref [] in
    for k = hi - 1 downto lo + 1 do
      let a = st.anchor.(k) in
      match Hashtbl.find_opt surviving a.id with
      | Some i -> acc := i :: !acc
      | None -> ()
    done;
    !acc
  in
  let eliminations =
    List.rev_map (fun (e, span) -> (e, between span)) st.elims
  in
  {
    body;
    eliminations;
    assumed_no_alias = st.assumed;
    loads_eliminated = st.loads_eliminated;
    stores_eliminated = st.stores_eliminated;
  }

let run ~policy ~alias ~body ~fresh_id =
  let st = make_state ~body ~fresh_id in
  (* Load elimination first: it is the more profitable pass (it hides
     load latency) and it marks the stores that owe runtime checks so
     store elimination cannot remove them. *)
  let checking_stores = Hashtbl.create 16 in
  load_elim st ~alias ~policy ~checking_stores;
  if policy.Sched.Policy.allow_store_elim then
    store_elim st ~alias ~checking_stores;
  finish st
