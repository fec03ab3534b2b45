type verdict =
  | No_alias
  | Must_alias
  | May_alias

type t = {
  generation : (int, int) Hashtbl.t;  (* memory op id -> generation *)
  known : (int, unit) Hashtbl.t;  (* Pair_key.norm keys *)
  mutable certified : int array;  (* ascending [Pair_key.norm] keys *)
  const_facts : Absint.t option;
  const_addr : (int, int) Hashtbl.t;  (* memory op id -> constant address *)
}

let analyze ?(known_alias = []) ?const_facts ?arena ~body () =
  let generation = Hashtbl.create 64 in
  let const_addr = Hashtbl.create 16 in
  (* definitions so far per register, keyed by [Arena.reg_code] in an
     open-addressed map, so its size follows the registers the body
     defines, not the largest code; a register the body never defines
     has none *)
  let arena = match arena with Some a -> a | None -> Arena.create () in
  let defs = Arena.map arena ~slot:0 in
  let count r =
    let c = Arena.reg_code r in
    Arena.map_set defs c (Arena.map_get defs c ~default:0 + 1)
  in
  (* memory operation [k] of the body is operation [k] of the facts *)
  let k = ref 0 in
  List.iter
    (fun (i : Ir.Instr.t) ->
      (match i.op with
      | Ir.Instr.Load { addr; _ } | Ir.Instr.Store { addr; _ } ->
        Hashtbl.replace generation i.id
          (Arena.map_get defs (Arena.reg_code addr.Ir.Instr.base) ~default:0);
        (match const_facts with
        | Some facts -> (
          if !k >= Absint.mem_count facts || (Absint.mem facts !k).id <> i.id then
            invalid_arg "May_alias.analyze: const_facts analyzed another body";
          match Absint.constant_address facts !k with
          | Some a -> Hashtbl.replace const_addr i.id a
          | None -> ())
        | None -> ());
        incr k
      | _ -> ());
      Ir.Instr.iter_defs count i)
    body;
  let known = Hashtbl.create 16 in
  List.iter
    (fun (a, b) -> Hashtbl.replace known (Pair_key.norm a b) ())
    known_alias;
  { generation; known; certified = [||]; const_facts; const_addr }

let add_known_alias t a b = Hashtbl.replace t.known (Pair_key.norm a b) ()

let set_certified t keys = t.certified <- keys

let certified t a b = Pair_key.mem t.certified (Pair_key.norm a b)

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
  | May_alias when Pair_key.mem t.certified (Pair_key.norm x.id y.id) ->
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
