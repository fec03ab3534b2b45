type verdict =
  | No_alias
  | Must_alias
  | May_alias

type t = {
  generation : (int, int) Hashtbl.t;  (* memory op id -> generation *)
  known : (int, unit) Hashtbl.t;  (* Pair_key.norm keys *)
  certified : (int, unit) Hashtbl.t;  (* statically proven disjoint *)
  const_facts : Absint.t option;
  const_addr : (int, int) Hashtbl.t;  (* memory op id -> constant address *)
}

let analyze ?(known_alias = []) ?const_facts ~body () =
  let generation = Hashtbl.create 64 in
  let const_addr = Hashtbl.create 16 in
  (* definitions so far per register, indexed by [Arena.reg_code]; a
     register the body never defines has none *)
  let top = ref (-1) in
  let note r = top := Int.max !top (Arena.reg_code r) in
  List.iter (Ir.Instr.iter_defs note) body;
  let defs = Array.make (!top + 1) 0 in
  let count r =
    let c = Arena.reg_code r in
    defs.(c) <- defs.(c) + 1
  in
  List.iter
    (fun (i : Ir.Instr.t) ->
      (match i.op with
      | Ir.Instr.Load { addr; _ } | Ir.Instr.Store { addr; _ } ->
        let c = Arena.reg_code addr.Ir.Instr.base in
        Hashtbl.replace generation i.id
          (if c < Array.length defs then defs.(c) else 0)
      | _ -> ());
      (match const_facts with
      | Some facts -> (
        match Absint.address facts i.id with
        | Some
            ({ Absint.origin = Absint.Const; off = { stride = 0; lo; _ }; _ }, _)
          ->
          Hashtbl.replace const_addr i.id lo
        | _ -> ())
      | None -> ());
      Ir.Instr.iter_defs count i)
    body;
  let known = Hashtbl.create 16 in
  List.iter
    (fun (a, b) -> Hashtbl.replace known (Pair_key.norm a b) ())
    known_alias;
  { generation; known; certified = Hashtbl.create 16; const_facts; const_addr }

let add_known_alias t a b = Hashtbl.replace t.known (Pair_key.norm a b) ()

let set_certified t pairs =
  Hashtbl.reset t.certified;
  List.iter
    (fun (a, b) -> Hashtbl.replace t.certified (Pair_key.norm a b) ())
    pairs

let certified t a b = Hashtbl.mem t.certified (Pair_key.norm a b)

let generation t (x : Ir.Instr.t) = Hashtbl.find t.generation x.id

let const_facts t = t.const_facts

let const_address t (x : Ir.Instr.t) = Hashtbl.find_opt t.const_addr x.id

let ranges_overlap d1 w1 d2 w2 = d1 < d2 + w2 && d2 < d1 + w1

(* Base verdict, before static certification is consulted.  Matches
   the operations and reads the tables with [Hashtbl.find]: a verdict
   allocates nothing. *)
let base_verdict t (x : Ir.Instr.t) (y : Ir.Instr.t) =
  if Hashtbl.mem t.known (Pair_key.norm x.id y.id) then Must_alias
  else
    match x.op, y.op with
    | ( (Ir.Instr.Load { addr = ax; width = wx; _ }
        | Ir.Instr.Store { addr = ax; width = wx; _ }),
        (Ir.Instr.Load { addr = ay; width = wy; _ }
        | Ir.Instr.Store { addr = ay; width = wy; _ }) ) ->
      if not (Ir.Reg.equal ax.base ay.base) then begin
        (* direct accesses: both absolute addresses provably constant *)
        match
          (Hashtbl.find t.const_addr x.id, Hashtbl.find t.const_addr y.id)
        with
        | cx, cy -> if ranges_overlap cx wx cy wy then Must_alias else No_alias
        | exception Not_found -> May_alias
      end
      else begin
        match
          Hashtbl.find t.generation x.id = Hashtbl.find t.generation y.id
        with
        | true ->
          if ranges_overlap ax.disp wx ay.disp wy then Must_alias else No_alias
        | false -> May_alias
        | exception Not_found -> May_alias
      end
    | _ -> No_alias

(* Certification only ever upgrades a May verdict: known-alias pairs
   and pairs the base analysis decides exactly are never overridden. *)
let verdict t (x : Ir.Instr.t) (y : Ir.Instr.t) =
  match base_verdict t x y with
  | May_alias when Hashtbl.mem t.certified (Pair_key.norm x.id y.id) ->
    No_alias
  | v -> v

let is_known t a b = Hashtbl.mem t.known (Pair_key.norm a b)

let known_pairs t =
  Hashtbl.fold (fun k () acc -> (Pair_key.first k, Pair_key.second k) :: acc)
    t.known []

let pp_verdict ppf = function
  | No_alias -> Format.pp_print_string ppf "no-alias"
  | Must_alias -> Format.pp_print_string ppf "must-alias"
  | May_alias -> Format.pp_print_string ppf "may-alias"
