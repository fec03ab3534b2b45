type entry = {
  range : Access.t;
  setter : int;
  set_by_load : bool;
}

type t = {
  qsize : int;
  mutable qbase : int;
  (* live entries keyed by logical order = base-at-set + offset *)
  entries : (int, entry) Hashtbl.t;
  mutable checks : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Queue.create: size must be positive";
  { qsize = size; qbase = 0; entries = Hashtbl.create (size * 2); checks = 0 }

let size t = t.qsize
let base t = t.qbase

let reset t =
  t.qbase <- 0;
  Hashtbl.reset t.entries

let checks_performed t = t.checks

let check_offset t offset ~what =
  if offset < 0 || offset >= t.qsize then
    invalid_arg
      (Printf.sprintf
         "Queue.%s: offset %d outside alias register window of %d (software \
          overflow bug)"
         what offset t.qsize)

let rotate t n =
  if n < 0 then invalid_arg "Queue.rotate: negative rotation";
  let old_base = t.qbase in
  t.qbase <- old_base + n;
  (* entries whose order slid below the new BASE are freed.  Every live
     order lies in [old_base, old_base + qsize), so the stale ones are
     found by key, without scanning the table or building a list;
     removal keeps the survivors' bucket order, which [run_checks]
     relies on. *)
  for order = old_base to min t.qbase (old_base + t.qsize) - 1 do
    Hashtbl.remove t.entries order
  done

let amov t ~src ~dst =
  check_offset t src ~what:"amov";
  check_offset t dst ~what:"amov";
  let src_order = t.qbase + src and dst_order = t.qbase + dst in
  match Hashtbl.find_opt t.entries src_order with
  | None -> Hashtbl.remove t.entries dst_order
  | Some e ->
    Hashtbl.remove t.entries src_order;
    if src <> dst then Hashtbl.replace t.entries dst_order e

(* Check every set register at-or-after [my_order] against [range];
   loads skip registers set by loads. *)
let run_checks t ~checker ~is_load ~my_order ~range =
  let conflict =
    Hashtbl.fold
      (fun order e acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if order >= my_order && not (is_load && e.set_by_load) then begin
            t.checks <- t.checks + 1;
            if Access.overlap e.range range then Some e else None
          end
          else acc)
      t.entries None
  in
  match conflict with
  | None -> Ok ()
  | Some e ->
    Error
      Detector.{ checker; setter = e.setter; false_positive_prone = false }

let on_mem t (instr : Ir.Instr.t) range =
  match Ir.Instr.annot instr with
  | Ir.Annot.Queue { offset; p; c } ->
    check_offset t offset ~what:"on_mem";
    let my_order = t.qbase + offset in
    let is_load = Ir.Instr.is_load instr in
    let result =
      if c then
        run_checks t ~checker:instr.id ~is_load ~my_order ~range
      else Ok ()
    in
    (match result with
    | Error _ as e -> e
    | Ok () ->
      if p then
        Hashtbl.replace t.entries my_order
          { range; setter = instr.id; set_by_load = is_load };
      Ok ())
  | Ir.Annot.No_annot | Ir.Annot.Mask _ | Ir.Annot.Alat _ -> Ok ()

let live_entries t =
  Hashtbl.fold
    (fun order e acc -> (order, e.range, e.setter) :: acc)
    t.entries []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let caps size =
  Detector.
    {
      scheme = "ordered queue";
      scalable = true;
      false_positives = false;
      detects_store_store = true;
      max_registers = Some size;
    }

let detector t =
  Detector.
    {
      name = Printf.sprintf "smarq%d" t.qsize;
      caps = caps t.qsize;
      reset = (fun () -> reset t);
      on_mem = (fun i r -> on_mem t i r);
      on_rotate = (fun n -> rotate t n);
      on_amov = (fun ~src ~dst -> amov t ~src ~dst);
      checks_performed = (fun () -> checks_performed t);
    }
