(* Register [i] holds the range [lo.(i), hi.(i)] set by [setter.(i)]
   while [set.(i)]. *)
type t = {
  set : bool array;
  lo : int array;
  hi : int array;
  setter : int array;
  mutable checks : int;
}

let encoding_limit = 15

let create ?(size = encoding_limit) () =
  if size <= 0 || size > encoding_limit then
    invalid_arg
      (Printf.sprintf "Efficeon.create: size must be in 1..%d" encoding_limit);
  {
    set = Array.make size false;
    lo = Array.make size 0;
    hi = Array.make size 0;
    setter = Array.make size 0;
    checks = 0;
  }

let size t = Array.length t.set
let reset t = Array.fill t.set 0 (Array.length t.set) false
let checks_performed t = t.checks

(* The first register in [check_mask], lowest index first, whose range
   overlaps [lo, hi]; -1 if none.  Every masked register visited counts
   as one check. *)
let rec scan t ~check_mask ~lo ~hi i =
  if i >= Array.length t.set then -1
  else if check_mask land (1 lsl i) = 0 then scan t ~check_mask ~lo ~hi (i + 1)
  else begin
    t.checks <- t.checks + 1;
    if t.set.(i) && t.lo.(i) <= hi && lo <= t.hi.(i) then i
    else scan t ~check_mask ~lo ~hi (i + 1)
  end

let on_mem t (instr : Ir.Instr.t) ~lo ~hi =
  match Ir.Instr.annot instr with
  | Ir.Annot.Mask { set_index; check_mask } ->
    let hit = scan t ~check_mask ~lo ~hi 0 in
    if hit >= 0 then
      Error
        Detector.
          {
            checker = instr.id;
            setter = t.setter.(hit);
            false_positive_prone = false;
          }
    else begin
      (match set_index with
      | Some i when i >= 0 && i < size t ->
        t.set.(i) <- true;
        t.lo.(i) <- lo;
        t.hi.(i) <- hi;
        t.setter.(i) <- instr.id
      | Some i ->
        invalid_arg
          (Printf.sprintf "Efficeon.on_mem: register %d out of range" i)
      | None -> ());
      Ok ()
    end
  | Ir.Annot.No_annot | Ir.Annot.Queue _ | Ir.Annot.Alat _ -> Ok ()

let caps size =
  Detector.
    {
      scheme = "bit-mask";
      scalable = false;
      false_positives = false;
      detects_store_store = true;
      max_registers = Some size;
    }

let detector t =
  Detector.
    {
      name = Printf.sprintf "efficeon%d" (size t);
      caps = caps (size t);
      reset = (fun () -> reset t);
      on_mem = (fun i ~lo ~hi -> on_mem t i ~lo ~hi);
      on_rotate = (fun _ -> ());
      on_amov = (fun ~src:_ ~dst:_ -> ());
      checks_performed = (fun () -> checks_performed t);
    }
