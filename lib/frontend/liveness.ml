(* Register sets are two int masks: bit [i] of the int mask is [R i],
   bit [i] of the float mask is [F i].  Blocks are numbered by their
   position in [Ir.Program.labels]. *)
type t = {
  index : (Ir.Instr.label, int) Hashtbl.t;
  live_int : int array;  (* live-in masks, by block number *)
  live_float : int array;
}

let all_int = (1 lsl Ir.Reg.int_count) - 1
let all_float = (1 lsl Ir.Reg.float_count) - 1

let not_guest (r : Ir.Reg.t) =
  invalid_arg
    (Printf.sprintf "Liveness.analyze: %s is not a guest register"
       (Ir.Reg.to_string r))

(* the mask bit of register [r], number [i] of a class of [count] *)
let bit r i count = if i < 0 || i >= count then not_guest r else 1 lsl i

(* Per-block summary of the backward transfer through the terminator
   and then the body, last instruction first:
   live-in = use U (live-out \ def). *)
type summary = {
  mutable use_int : int;
  mutable use_float : int;
  mutable def_int : int;
  mutable def_float : int;
}

let add_use s (r : Ir.Reg.t) =
  match r with
  | Ir.Reg.R i -> s.use_int <- s.use_int lor bit r i Ir.Reg.int_count
  | Ir.Reg.F i -> s.use_float <- s.use_float lor bit r i Ir.Reg.float_count
  | Ir.Reg.T _ -> not_guest r

let add_def s (r : Ir.Reg.t) =
  match r with
  | Ir.Reg.R i ->
    let b = bit r i Ir.Reg.int_count in
    s.use_int <- s.use_int land lnot b;
    s.def_int <- s.def_int lor b
  | Ir.Reg.F i ->
    let b = bit r i Ir.Reg.float_count in
    s.use_float <- s.use_float land lnot b;
    s.def_float <- s.def_float lor b
  | Ir.Reg.T _ -> not_guest r

let rec add_uses s = function
  | [] -> ()
  | r :: rest ->
    add_use s r;
    add_uses s rest

let rec add_defs s = function
  | [] -> ()
  | r :: rest ->
    add_def s r;
    add_defs s rest

(* the body's transfer, applied last instruction first *)
let rec summarize_body s = function
  | [] -> ()
  | (i : Ir.Instr.t) :: rest ->
    summarize_body s rest;
    add_defs s (Ir.Instr.defs i);
    add_uses s (Ir.Instr.uses i)

let summarize (b : Ir.Block.t) =
  let s = { use_int = 0; use_float = 0; def_int = 0; def_float = 0 } in
  (match b.terminator with
  | Ir.Block.Cond { cond = Ir.Instr.Reg r; _ } -> add_use s r
  | Ir.Block.Cond { cond = Ir.Instr.Imm _; _ }
  | Ir.Block.Fallthrough _ | Ir.Block.Halt -> ());
  summarize_body s b.body;
  s

(* block number of a successor label; -1 (nothing live) for a label the
   program does not define *)
let successor index l = Option.value (Hashtbl.find_opt index l) ~default:(-1)

let analyze program =
  let labels = Array.of_list (Ir.Program.labels program) in
  let n = Array.length labels in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun k l -> Hashtbl.replace index l k) labels;
  let blocks = Array.map (Ir.Program.block program) labels in
  let summaries = Array.map summarize blocks in
  (* successors: -2 for Halt (everything live), -1 for none *)
  let succ_a = Array.make n (-1) and succ_b = Array.make n (-1) in
  Array.iteri
    (fun k (b : Ir.Block.t) ->
      match b.terminator with
      | Ir.Block.Halt -> succ_a.(k) <- -2
      | Ir.Block.Fallthrough l -> succ_a.(k) <- successor index l
      | Ir.Block.Cond { taken; fallthrough; _ } ->
        succ_a.(k) <- successor index taken;
        succ_b.(k) <- successor index fallthrough)
    blocks;
  let live_int = Array.make n 0 and live_float = Array.make n 0 in
  let out_int k = if k = -2 then all_int else if k < 0 then 0 else live_int.(k) in
  let out_float k =
    if k = -2 then all_float else if k < 0 then 0 else live_float.(k)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to n - 1 do
      let s = summaries.(k) in
      let oi = out_int succ_a.(k) lor out_int succ_b.(k)
      and ofl = out_float succ_a.(k) lor out_float succ_b.(k) in
      let ni = s.use_int lor (oi land lnot s.def_int)
      and nf = s.use_float lor (ofl land lnot s.def_float) in
      if ni <> live_int.(k) || nf <> live_float.(k) then begin
        live_int.(k) <- ni;
        live_float.(k) <- nf;
        changed := true
      end
    done
  done;
  { index; live_int; live_float }

let set_of_masks ~ints ~floats =
  let acc = ref Ir.Reg.Set.empty in
  for i = Ir.Reg.int_count - 1 downto 0 do
    if ints land (1 lsl i) <> 0 then acc := Ir.Reg.Set.add (Ir.Reg.R i) !acc
  done;
  for i = Ir.Reg.float_count - 1 downto 0 do
    if floats land (1 lsl i) <> 0 then acc := Ir.Reg.Set.add (Ir.Reg.F i) !acc
  done;
  !acc

let all_guest = Ir.Reg.Set.of_list Ir.Reg.all_guest

let live_in t l =
  match Hashtbl.find_opt t.index l with
  | Some k -> set_of_masks ~ints:t.live_int.(k) ~floats:t.live_float.(k)
  | None -> all_guest

let live_out_of_block t (b : Ir.Block.t) =
  match b.terminator with
  | Ir.Block.Halt -> all_guest
  | Ir.Block.Fallthrough l -> live_in t l
  | Ir.Block.Cond { taken; fallthrough; _ } ->
    Ir.Reg.Set.union (live_in t taken) (live_in t fallthrough)
