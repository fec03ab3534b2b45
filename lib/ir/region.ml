type t = {
  entry : Instr.label;
  bundles : Instr.t list array;
  final_exit : Instr.label option;
  ar_window : int;
  assumed_no_alias : int array;
  certified_no_alias : (int * int) list;
  source : Superblock.t;
}

let make ~entry ~bundles ~final_exit ~ar_window ~assumed_no_alias
    ?(certified_no_alias = []) ~source () =
  {
    entry;
    bundles;
    final_exit;
    ar_window;
    assumed_no_alias;
    certified_no_alias;
    source;
  }

let schedule_length t = Array.length t.bundles

let instrs t =
  Array.to_list t.bundles |> List.concat

let instr_count t = List.length (instrs t)

let memory_op_count t =
  List.length (List.filter Instr.is_memory (instrs t))

let pp ppf t =
  Format.fprintf ppf "region %s: %d cycles, AR window %d@." t.entry
    (schedule_length t) t.ar_window;
  Array.iteri
    (fun cycle bundle ->
      List.iter
        (fun i -> Format.fprintf ppf "  %3d: %a@." cycle Instr.pp i)
        bundle)
    t.bundles;
  match t.final_exit with
  | Some l -> Format.fprintf ppf "  -> %s@." l
  | None -> Format.fprintf ppf "  -> halt@."
