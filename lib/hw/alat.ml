(* The table is a ring of [capacity] entries: [count] live entries end
   just before slot [next], newest last, so inserting into a full table
   overwrites the oldest. *)
type t = {
  capacity : int;
  lo : int array;
  hi : int array;
  setter : int array;
  mutable next : int;
  mutable count : int;
  mutable checks : int;
}

let create ?(size = 32) () =
  if size <= 0 then invalid_arg "Alat.create: size must be positive";
  {
    capacity = size;
    lo = Array.make size 0;
    hi = Array.make size 0;
    setter = Array.make size 0;
    next = 0;
    count = 0;
    checks = 0;
  }

let size t = t.capacity

let reset t =
  t.next <- 0;
  t.count <- 0

let live_count t = t.count
let checks_performed t = t.checks

let insert t ~lo ~hi ~setter =
  let s = t.next in
  t.lo.(s) <- lo;
  t.hi.(s) <- hi;
  t.setter.(s) <- setter;
  t.next <- (if s + 1 = t.capacity then 0 else s + 1);
  if t.count < t.capacity then t.count <- t.count + 1

(* The slot of the [k]-th newest live entry. *)
let nth_newest t k = (t.next - 1 - k + t.capacity) mod t.capacity

(* The first live entry, newest first, whose range overlaps [lo, hi];
   -1 if none.  Every entry visited counts as one check. *)
let rec scan t ~lo ~hi k =
  if k >= t.count then -1
  else begin
    t.checks <- t.checks + 1;
    let s = nth_newest t k in
    if t.lo.(s) <= hi && lo <= t.hi.(s) then s else scan t ~lo ~hi (k + 1)
  end

(* Stores check every live entry; that blanket check is what makes the
   scheme false-positive prone. *)
let check_all t ~checker ~lo ~hi =
  let s = scan t ~lo ~hi 0 in
  if s < 0 then Ok ()
  else
    Error
      Detector.{ checker; setter = t.setter.(s); false_positive_prone = true }

let on_mem t (instr : Ir.Instr.t) ~lo ~hi =
  match Ir.Instr.annot instr, instr.op with
  | Ir.Annot.Alat { advanced }, Ir.Instr.Load _ ->
    if advanced then insert t ~lo ~hi ~setter:instr.id;
    Ok ()
  | Ir.Annot.Alat _, Ir.Instr.Store _ -> check_all t ~checker:instr.id ~lo ~hi
  | Ir.Annot.Alat _, _ -> Ok ()
  | (Ir.Annot.No_annot | Ir.Annot.Queue _ | Ir.Annot.Mask _), op ->
    (* Stores always snoop the table on Itanium, annotated or not. *)
    (match op with
    | Ir.Instr.Store _ -> check_all t ~checker:instr.id ~lo ~hi
    | _ -> Ok ())

let caps () =
  Detector.
    {
      scheme = "ALAT";
      scalable = true;
      false_positives = true;
      detects_store_store = false;
      max_registers = None;
    }

let detector t =
  Detector.
    {
      name = "alat";
      caps = caps ();
      reset = (fun () -> reset t);
      on_mem = (fun i ~lo ~hi -> on_mem t i ~lo ~hi);
      on_rotate = (fun _ -> ());
      on_amov = (fun ~src:_ ~dst:_ -> ());
      checks_performed = (fun () -> checks_performed t);
    }
