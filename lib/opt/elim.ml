type result = {
  body : Ir.Instr.t list;
  eliminations : (Analysis.Depgraph.elimination * Ir.Instr.t list) list;
  assumed_no_alias : (int * int) list;
  loads_eliminated : int;
  stores_eliminated : int;
}

(* An edited body slot holds the surviving instructions for that slot:
   capture movs around an op, or a replacement mov.  A slot no edit
   touched holds its original instruction (its anchor), or nothing once
   eliminated. *)
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

(* Per original position: three flags, and above them the number of
   the slot's cell, 0 while the anchor stands alone *)
let dead_bit = 1  (* eliminated *)
let locked_bit = 2  (* must stay intact *)
let checking_bit = 4  (* a store that owes a runtime check *)
let cell_shift = 3

(* An elimination with the original positions [lo < hi] of its pair *)
type span = {
  elim : Analysis.Depgraph.elimination;
  lo : int;
  hi : int;
}

(* The pass's state, by original body position.  The anchors and the
   flags are leased from the translation arena, so a body the pass
   leaves unchanged costs the state and result records alone. *)
type state = {
  n : int;  (* body length *)
  anchor : Ir.Instr.t array;  (* the original instruction per slot *)
  flags : int array;  (* per slot *)
  mutable cells : cell array;  (* one per edited slot, in edit order *)
  mutable n_cells : int;
  mutable elims : span list;  (* newest first *)
  mutable assumed : (int * int) list;
  mutable loads_eliminated : int;
  mutable stores_eliminated : int;
  fresh_id : int ref;
}

let make_state ~arena ~body ~fresh_id =
  let n = List.length body in
  {
    n;
    anchor = Analysis.Arena.instrs arena ~of_list:body;
    flags = Analysis.Arena.filled_ints arena ~slot:44 n 0;
    cells = [||];
    n_cells = 0;
    elims = [];
    assumed = [];
    loads_eliminated = 0;
    stores_eliminated = 0;
    fresh_id;
  }

let has st p bit = st.flags.(p) land bit <> 0
let mark st p bit = st.flags.(p) <- st.flags.(p) lor bit

let alive st p = not (has st p dead_bit)

let edited st p = st.flags.(p) lsr cell_shift > 0

(* The instructions slot [p] holds now. *)
let cell st p =
  if edited st p then st.cells.((st.flags.(p) lsr cell_shift) - 1)
  else [ st.anchor.(p) ]

let set_cell st p l =
  if edited st p then st.cells.((st.flags.(p) lsr cell_shift) - 1) <- l
  else begin
    let c = st.n_cells in
    if c = Array.length st.cells then begin
      let bigger = Array.make (Int.max 8 (2 * c)) [] in
      Array.blit st.cells 0 bigger 0 c;
      st.cells <- bigger
    end;
    st.cells.(c) <- l;
    st.n_cells <- c + 1;
    st.flags.(p) <- st.flags.(p) lor ((c + 1) lsl cell_shift)
  end

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

(* The exact overwriter of the store at [p]: the first live store to
   the same location after it, giving up at a side exit or a
   must-alias load; -1 for none. *)
let overwriter st ~alias p =
  let n = st.n and x = st.anchor.(p) in
  let found = ref (-1) and q = ref (p + 1) in
  while !found = -1 && !q < n do
    if alive st !q then begin
      let w = st.anchor.(!q) in
      if Ir.Instr.is_side_exit w then found := -2
      else if Ir.Instr.is_store w && exact_same_location alias x w then
        found := !q
      else if Ir.Instr.is_load w && is_must alias x w then found := -2
    end;
    incr q
  done;
  Int.max !found (-1)

let store_elim st ~alias =
  for p = 0 to st.n - 1 do
    let x = st.anchor.(p) in
    if
      Ir.Instr.is_store x && alive st p
      && (not (has st p locked_bit))
      && not (has st p checking_bit)
    then begin
      let q = overwriter st ~alias p in
      if q >= 0 then begin
        let z = st.anchor.(q) in
        (* speculate: intervening may-alias loads are checked by z *)
        for k = p + 1 to q - 1 do
          if alive st k then begin
            let y = st.anchor.(k) in
            if Ir.Instr.is_load y && is_may alias z y then begin
              st.assumed <- (z.id, y.id) :: st.assumed;
              (* y must stay a load so its P bit can protect it *)
              mark st k locked_bit
            end
          end
        done;
        mark st q locked_bit;
        mark st p dead_bit;
        st.stores_eliminated <- st.stores_eliminated + 1;
        st.elims <-
          {
            elim =
              Analysis.Depgraph.Store_overwritten
                { eliminated = x.id; overwriter = z.id };
            lo = p;
            hi = q;
          }
          :: st.elims
      end
    end
  done

(* ---- Load elimination ---- *)

(* The forwarding source of the load at [q]: the nearest live earlier
   access to exactly its location, if the policy lets it forward; -1
   when there is none or a must-alias store that only partially
   overlaps comes first.  May-alias stores are crossed: they are the
   speculation, gathered once the scan has succeeded. *)
let source st ~alias ~allow_ll ~allow_sl q =
  let z = st.anchor.(q) in
  let found = ref (-1) and p = ref (q - 1) in
  while !found = -1 && !p >= 0 do
    if alive st !p then begin
      let w = st.anchor.(!p) in
      if Ir.Instr.is_memory w && exact_same_location alias w z then
        found :=
          if Ir.Instr.is_store w then if allow_sl then !p else -2
          else if allow_ll then !p
          else -2
      else if Ir.Instr.is_store w && is_must alias w z then
        (* partially overlapping known store: unsafe to cross *)
        found := -2
    end;
    decr p
  done;
  Int.max !found (-1)

let load_elim st ~alias ~policy =
  let allow_ll = policy.Sched.Policy.allow_load_load_forward in
  let allow_sl = policy.Sched.Policy.allow_store_load_forward in
  if allow_ll || allow_sl then
    for q = 0 to st.n - 1 do
      let z = st.anchor.(q) in
      if Ir.Instr.is_load z && alive st q && not (has st q locked_bit) then begin
        let p = source st ~alias ~allow_ll ~allow_sl q in
        if p >= 0 then begin
          let src_op = st.anchor.(p) in
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
                set_cell st p (capture :: cell st p)
              | Ir.Instr.Load { dst = src_dst; _ } ->
                let capture =
                  Ir.Instr.make ~id:(next_id st)
                    (Ir.Instr.Mov (tmp, Ir.Instr.Reg src_dst))
                in
                set_cell st p (cell st p @ [ capture ])
              | _ -> assert false);
              Ir.Instr.Mov (dst, Ir.Instr.Reg tmp)
          in
          let mov = Ir.Instr.make ~id:(next_id st) replacement in
          mark st q dead_bit;
          set_cell st q [ mov ];
          st.loads_eliminated <- st.loads_eliminated + 1;
          (* the source must stay so its register can be protected *)
          mark st p locked_bit;
          for k = p + 1 to q - 1 do
            let w = st.anchor.(k) in
            if alive st k && Ir.Instr.is_store w && is_may alias w z then begin
              (* w owes a runtime check against the source; it must not
                 be eliminated by the later store-elimination pass *)
              mark st k checking_bit;
              st.assumed <- (src_op.id, w.id) :: st.assumed
            end
          done;
          st.elims <-
            {
              elim =
                Analysis.Depgraph.Load_forwarded
                  { source = src_op.id; eliminated = z.id };
              lo = p;
              hi = q;
            }
            :: st.elims
        end
      end
    done

(* The transformed body, one cons per surviving instruction; the input
   body itself when nothing was eliminated.  An elimination's
   intervening instructions are the anchors still live strictly
   between its pair. *)
let finish st ~body =
  let n = st.n in
  let body =
    if st.elims = [] then body
    else begin
      let rec prepend l acc =
        match l with [] -> acc | i :: rest -> i :: prepend rest acc
      in
      let acc = ref [] in
      for k = n - 1 downto 0 do
        if edited st k then acc := prepend (cell st k) !acc
        else if alive st k then acc := st.anchor.(k) :: !acc
      done;
      !acc
    end
  in
  let between { lo; hi; _ } =
    let acc = ref [] in
    for k = hi - 1 downto lo + 1 do
      if alive st k then acc := st.anchor.(k) :: !acc
    done;
    !acc
  in
  let eliminations = List.rev_map (fun s -> (s.elim, between s)) st.elims in
  {
    body;
    eliminations;
    assumed_no_alias = st.assumed;
    loads_eliminated = st.loads_eliminated;
    stores_eliminated = st.stores_eliminated;
  }

let run ~policy ~alias ?arena ~body ~fresh_id () =
  let arena =
    match arena with Some a -> a | None -> Analysis.Arena.create ()
  in
  let st = make_state ~arena ~body ~fresh_id in
  (* Load elimination first: it is the more profitable pass (it hides
     load latency) and it marks the stores that owe runtime checks so
     store elimination cannot remove them. *)
  load_elim st ~alias ~policy;
  if policy.Sched.Policy.allow_store_elim then store_elim st ~alias;
  finish st ~body
