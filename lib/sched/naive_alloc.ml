type result = {
  annots : Ir.Annot.t array;
  rotations : int array;
  max_offset : int;
}

let annotate ~body ~issue ~ar_count =
  let n = Array.length body in
  (* program-order register orders by body position, -1 for an
     operation that touches no memory *)
  let order_of = Array.make n (-1) in
  let n_mem = ref 0 in
  for p = 0 to n - 1 do
    if Ir.Instr.is_memory body.(p) then begin
      order_of.(p) <- !n_mem;
      incr n_mem
    end
  done;
  (* walk the schedule tracking which orders have issued; BASE is the
     size of the fully-issued program-order prefix *)
  let issued = Bytes.make !n_mem '\000' in
  let base = ref 0 in
  let annots = Array.make n Ir.Annot.none and rotations = Array.make n 0 in
  let max_offset = ref (-1) in
  let rec walk k =
    if k >= Array.length issue then
      Ok { annots; rotations; max_offset = !max_offset }
    else
      let p = issue.(k) in
      let order = order_of.(p) in
      if order < 0 then walk (k + 1)
      else
        let offset = order - !base in
        if offset >= ar_count then
          Error
            (Printf.sprintf
               "instr %d needs offset %d of %d registers under program-order \
                allocation"
               body.(p).Ir.Instr.id offset ar_count)
        else begin
          (* every memory operation both protects and checks *)
          annots.(p) <- Ir.Annot.queue ~offset ~p:true ~c:true;
          if offset > !max_offset then max_offset := offset;
          Bytes.set issued order '\001';
          let before = !base in
          while !base < !n_mem && Bytes.get issued !base <> '\000' do
            incr base
          done;
          rotations.(p) <- !base - before;
          walk (k + 1)
        end
  in
  walk 0
