type verdict =
  | No_alias
  | Must_alias
  | May_alias

type t = {
  generation : (int, int) Hashtbl.t;  (* memory op id -> generation *)
  known : (int * int, unit) Hashtbl.t;  (* normalized id pairs *)
  certified : (int * int, unit) Hashtbl.t;  (* statically proven disjoint *)
  const_facts : Absint.t option;
}

let norm_pair a b = if a <= b then (a, b) else (b, a)

let analyze ?(known_alias = []) ?const_facts ~body () =
  let generation = Hashtbl.create 64 in
  let defs = Hashtbl.create 64 in
  let defs_of r = Option.value (Hashtbl.find_opt defs r) ~default:0 in
  List.iter
    (fun (i : Ir.Instr.t) ->
      (match Ir.Instr.mem_addr i with
      | Some a -> Hashtbl.replace generation i.id (defs_of a.Ir.Instr.base)
      | None -> ());
      List.iter (fun r -> Hashtbl.replace defs r (defs_of r + 1))
        (Ir.Instr.defs i))
    body;
  let known = Hashtbl.create 16 in
  List.iter
    (fun (a, b) -> Hashtbl.replace known (norm_pair a b) ())
    known_alias;
  { generation; known; certified = Hashtbl.create 16; const_facts }

let add_known_alias t a b = Hashtbl.replace t.known (norm_pair a b) ()

let set_certified t pairs =
  Hashtbl.reset t.certified;
  List.iter (fun (a, b) -> Hashtbl.replace t.certified (norm_pair a b) ())
    pairs

let certified t a b = Hashtbl.mem t.certified (norm_pair a b)

let generation t (x : Ir.Instr.t) = Hashtbl.find t.generation x.id

let const_address t (x : Ir.Instr.t) =
  match t.const_facts with
  | None -> None
  | Some facts -> (
    match Absint.address facts x.id with
    | Some ({ Absint.origin = Absint.Const; off = { stride = 0; lo; _ }; _ }, _)
      ->
      Some lo
    | _ -> None)

let width x = Option.value (Ir.Instr.mem_width x) ~default:1
let ranges_overlap d1 w1 d2 w2 = d1 < d2 + w2 && d2 < d1 + w1

(* Base verdict, before static certification is consulted. *)
let base_verdict t (x : Ir.Instr.t) (y : Ir.Instr.t) =
  if Hashtbl.mem t.known (norm_pair x.id y.id) then Must_alias
  else
    match Ir.Instr.mem_addr x, Ir.Instr.mem_addr y with
    | Some ax, Some ay ->
      if not (Ir.Reg.equal ax.base ay.base) then begin
        (* direct accesses: both absolute addresses provably constant *)
        match const_address t x, const_address t y with
        | Some cx, Some cy ->
          if ranges_overlap cx (width x) cy (width y) then Must_alias
          else No_alias
        | _ -> May_alias
      end
      else begin
        match
          Hashtbl.find_opt t.generation x.id, Hashtbl.find_opt t.generation y.id
        with
        | Some gx, Some gy when gx = gy ->
          if ranges_overlap ax.disp (width x) ay.disp (width y) then Must_alias
          else No_alias
        | _ -> May_alias
      end
    | _ -> No_alias

(* Certification only ever upgrades a May verdict: known-alias pairs
   and pairs the base analysis decides exactly are never overridden. *)
let verdict t (x : Ir.Instr.t) (y : Ir.Instr.t) =
  match base_verdict t x y with
  | May_alias when Hashtbl.mem t.certified (norm_pair x.id y.id) -> No_alias
  | v -> v

let is_known t a b = Hashtbl.mem t.known (norm_pair a b)

let known_pairs t = Hashtbl.fold (fun p () acc -> p :: acc) t.known []

let pp_verdict ppf = function
  | No_alias -> Format.pp_print_string ppf "no-alias"
  | Must_alias -> Format.pp_print_string ppf "must-alias"
  | May_alias -> Format.pp_print_string ppf "may-alias"
