type t = {
  entry : Instr.label;
  body : Instr.t list;
  final_exit : Instr.label option;
  source_blocks : Instr.label list;
  live_out : (int, Reg.Set.t) Hashtbl.t;
  final_live_out : Reg.Set.t;
}

let all_guest_set = Reg.Set.of_list Reg.all_guest

let make ~entry ~body ~final_exit ~source_blocks ?(live_out = [])
    ?(final_live_out = all_guest_set) () =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (id, set) -> Hashtbl.replace tbl id set) live_out;
  { entry; body; final_exit; source_blocks; live_out = tbl; final_live_out }

let exit_live_out t id =
  Option.value (Hashtbl.find_opt t.live_out id) ~default:all_guest_set

let memory_ops t = List.filter Instr.is_memory t.body
let side_exits t = List.filter Instr.is_side_exit t.body

let instr_count t = List.length t.body

let max_instr_id t =
  List.fold_left (fun acc (i : Instr.t) -> max acc i.id) 0 t.body

let pp ppf t =
  Format.fprintf ppf "superblock %s (from %s)@." t.entry
    (String.concat "," t.source_blocks);
  List.iter (fun i -> Format.fprintf ppf "  %a@." Instr.pp i) t.body;
  match t.final_exit with
  | Some l -> Format.fprintf ppf "  fallthrough -> %s@." l
  | None -> Format.fprintf ppf "  fallthrough -> halt@."
