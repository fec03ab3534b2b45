module M = Vliw.Machine
module E = Vliw.Eval

type stats = {
  mutable instrs_executed : int;
  block_counts : (Ir.Instr.label, int) Hashtbl.t;
}

let fresh_stats () = { instrs_executed = 0; block_counts = Hashtbl.create 64 }

type error = Out_of_fuel

let bump_block stats label =
  let n = Option.value (Hashtbl.find_opt stats.block_counts label) ~default:0 in
  Hashtbl.replace stats.block_counts label (n + 1)

let exec_block ?stats m (b : Ir.Block.t) =
  (match stats with
  | Some s ->
    bump_block s b.label;
    s.instrs_executed <- s.instrs_executed + List.length b.body + 1
  | None -> ());
  List.iter (E.exec_data m) b.body;
  match b.terminator with
  | Ir.Block.Fallthrough l -> Some l
  | Ir.Block.Halt -> None
  | Ir.Block.Cond { cond; taken; fallthrough; _ } ->
    if E.operand_value m cond <> 0 then Some taken else Some fallthrough

let rec run_from ~fuel ~stats m (p : Ir.Program.t) label =
  if stats.instrs_executed > fuel then Error Out_of_fuel
  else
    match exec_block ~stats m (Ir.Program.block p label) with
    | Some next -> run_from ~fuel ~stats m p next
    | None -> Ok stats

let run ?(fuel = 10_000_000) ?stats m (p : Ir.Program.t) =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  run_from ~fuel ~stats m p p.entry

type mem_event = {
  instr_id : int;
  range : Hw.Access.t;
  is_store : bool;
}

type trace = {
  taken_exit : Ir.Instr.label option;
  events : mem_event list;
  executed_ids : int list;
}

let trace_superblock m (sb : Ir.Superblock.t) =
  let events = ref [] in
  let executed = ref [] in
  let rec go = function
    | [] -> { taken_exit = None; events = List.rev !events;
              executed_ids = List.rev !executed }
    | (i : Ir.Instr.t) :: rest ->
      executed := i.id :: !executed;
      (match i.op with
      | Ir.Instr.Load { addr; width; _ } | Ir.Instr.Store { addr; width; _ } ->
        let range = Hw.Access.make ~addr:(E.addr_of m addr) ~width in
        events :=
          { instr_id = i.id; range; is_store = Ir.Instr.is_store i }
          :: !events
      | _ -> ());
      (match E.exec_control m i with
      | E.Leave_region l ->
        { taken_exit = Some l; events = List.rev !events;
          executed_ids = List.rev !executed }
      | E.Goto _ -> invalid_arg "trace_superblock: jump in superblock body"
      | E.Fall_through ->
        E.exec_data m i;
        go rest)
  in
  go sb.body
