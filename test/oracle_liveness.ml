(* The [Ir.Reg.Set] fixpoint the bit-mask [Frontend.Liveness] replaced,
   kept verbatim as the differential oracle for it. *)

module RS = Ir.Reg.Set

type t = {
  live_in_tbl : (Ir.Instr.label, RS.t) Hashtbl.t;
  program : Ir.Program.t;
}

let all_guest = RS.of_list Ir.Reg.all_guest

let operand_regs = function
  | Ir.Instr.Reg r -> [ r ]
  | Ir.Instr.Imm _ -> []

let terminator_uses (b : Ir.Block.t) =
  match b.terminator with
  | Ir.Block.Cond { cond; _ } -> operand_regs cond
  | Ir.Block.Fallthrough _ | Ir.Block.Halt -> []

(* live-in(b) = use(b) U (live-out(b) \ def(b)), computed backwards
   through the straight-line body. *)
let transfer (b : Ir.Block.t) live_out =
  let after_body =
    List.fold_left (fun acc r -> RS.add r acc) live_out (terminator_uses b)
  in
  List.fold_right
    (fun (i : Ir.Instr.t) live ->
      let live = List.fold_left (fun acc r -> RS.remove r acc) live
          (Ir.Instr.defs i)
      in
      List.fold_left (fun acc r -> RS.add r acc) live (Ir.Instr.uses i))
    b.body after_body

let analyze program =
  let labels = Ir.Program.labels program in
  let live_in_tbl = Hashtbl.create (List.length labels * 2) in
  List.iter (fun l -> Hashtbl.replace live_in_tbl l RS.empty) labels;
  let live_in l = Option.value (Hashtbl.find_opt live_in_tbl l) ~default:RS.empty in
  let live_out_of (b : Ir.Block.t) =
    match b.terminator with
    | Ir.Block.Halt -> all_guest
    | Ir.Block.Fallthrough l -> live_in l
    | Ir.Block.Cond { taken; fallthrough; _ } ->
      RS.union (live_in taken) (live_in fallthrough)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let b = Ir.Program.block program l in
        let new_in = transfer b (live_out_of b) in
        if not (RS.equal new_in (live_in l)) then begin
          Hashtbl.replace live_in_tbl l new_in;
          changed := true
        end)
      labels
  done;
  { live_in_tbl; program }

let live_in t l =
  Option.value (Hashtbl.find_opt t.live_in_tbl l) ~default:all_guest

let live_out_of_block t (b : Ir.Block.t) =
  match b.terminator with
  | Ir.Block.Halt -> all_guest
  | Ir.Block.Fallthrough l -> live_in t l
  | Ir.Block.Cond { taken; fallthrough; _ } ->
    RS.union (live_in t taken) (live_in t fallthrough)
