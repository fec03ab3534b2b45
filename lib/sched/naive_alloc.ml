type result = {
  annots : (int * Ir.Annot.t) list;
  rotations : (int * int) list;
  max_offset : int;
}

let annotate ~body ~issue_order ~ar_count =
  (* program-order register orders *)
  let order_of = Hashtbl.create 64 in
  let n_mem = ref 0 in
  List.iter
    (fun (i : Ir.Instr.t) ->
      if Ir.Instr.is_memory i then begin
        Hashtbl.replace order_of i.Ir.Instr.id !n_mem;
        incr n_mem
      end)
    body;
  (* walk the schedule tracking which orders have issued; BASE is the
     size of the fully-issued program-order prefix *)
  let issued = Hashtbl.create 64 in
  let base = ref 0 in
  let advance () =
    while !base < !n_mem && Hashtbl.mem issued !base do
      incr base
    done
  in
  let annots = ref [] and rotations = ref [] and max_offset = ref (-1) in
  let rec walk = function
    | [] ->
      Ok
        {
          annots = List.rev !annots;
          rotations = List.rev !rotations;
          max_offset = !max_offset;
        }
    | (_, (i : Ir.Instr.t)) :: rest -> (
      match Hashtbl.find_opt order_of i.Ir.Instr.id with
      | None -> walk rest
      | Some order ->
        let offset = order - !base in
        if offset >= ar_count then
          Error
            (Printf.sprintf
               "instr %d needs offset %d of %d registers under program-order \
                allocation"
               i.Ir.Instr.id offset ar_count)
        else begin
          (* every memory operation both protects and checks *)
          annots :=
            (i.Ir.Instr.id, Ir.Annot.queue ~offset ~p:true ~c:true) :: !annots;
          if offset > !max_offset then max_offset := offset;
          Hashtbl.replace issued order ();
          let before = !base in
          advance ();
          if !base > before then
            rotations := (i.Ir.Instr.id, !base - before) :: !rotations;
          walk rest
        end)
  in
  walk issue_order
