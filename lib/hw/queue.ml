(* The register file is a flat ring: the register of order [o] lives in
   slot [o mod size].  Every live order lies in [base, base + size), so
   two live orders never share a slot and a slot's order follows from
   [base].  A slot keeps the insertion stamp it got when it went from
   dead to live; the stamp only matters on the conflict path, where
   [run_checks] reproduces the visit order the model has always
   reported conflicts in (see [earlier]). *)
type t = {
  qsize : int;
  mutable qbase : int;
  buckets : int;  (* power of two; see [bucket] *)
  live : bool array;
  lo : int array;
  hi : int array;
  setter : int array;
  set_by_load : bool array;
  stamp : int array;
  mutable next_stamp : int;
  mutable checks : int;
}

let rec pow2_above x n = if x >= n then x else pow2_above (2 * x) n

let create ~size =
  if size <= 0 then invalid_arg "Queue.create: size must be positive";
  {
    qsize = size;
    qbase = 0;
    buckets = pow2_above 16 (2 * size);
    live = Array.make size false;
    lo = Array.make size 0;
    hi = Array.make size 0;
    setter = Array.make size 0;
    set_by_load = Array.make size false;
    stamp = Array.make size 0;
    next_stamp = 0;
    checks = 0;
  }

let size t = t.qsize
let base t = t.qbase

let reset t =
  t.qbase <- 0;
  Array.fill t.live 0 t.qsize false

let checks_performed t = t.checks

let check_offset t offset ~what =
  if offset < 0 || offset >= t.qsize then
    invalid_arg
      (Printf.sprintf
         "Queue.%s: offset %d outside alias register window of %d (software \
          overflow bug)"
         what offset t.qsize)

let slot t order = order mod t.qsize

(* Write the register of [order]; a register that was already live
   keeps its insertion stamp. *)
let set t order ~lo ~hi ~setter ~is_load =
  let s = slot t order in
  if not t.live.(s) then begin
    t.live.(s) <- true;
    t.stamp.(s) <- t.next_stamp;
    t.next_stamp <- t.next_stamp + 1
  end;
  t.lo.(s) <- lo;
  t.hi.(s) <- hi;
  t.setter.(s) <- setter;
  t.set_by_load.(s) <- is_load

let rotate t n =
  if n < 0 then invalid_arg "Queue.rotate: negative rotation";
  let old_base = t.qbase in
  t.qbase <- old_base + n;
  (* registers whose order slid below the new BASE are freed *)
  for order = old_base to min t.qbase (old_base + t.qsize) - 1 do
    t.live.(slot t order) <- false
  done

let amov t ~src ~dst =
  check_offset t src ~what:"amov";
  check_offset t dst ~what:"amov";
  let src_order = t.qbase + src and dst_order = t.qbase + dst in
  let s = slot t src_order in
  if not t.live.(s) then t.live.(slot t dst_order) <- false
  else begin
    t.live.(s) <- false;
    if src <> dst then
      set t dst_order ~lo:t.lo.(s) ~hi:t.hi.(s) ~setter:t.setter.(s)
        ~is_load:t.set_by_load.(s)
  end

(* The hash the standard library's polymorphic hash tables use for an
   int key: the conflict order below is defined by it. *)
external hash_param : int -> int -> int -> 'a -> int = "caml_hash" [@@noalloc]

let bucket t order = hash_param 10 100 0 order land (t.buckets - 1)

(* Conflict order: registers are ranked by [bucket order], then newest
   insertion first.  This is the visit order of a [buckets]-bucket
   stdlib hash table keyed by order, which is how this model stored the
   registers before the ring; the reported setter and the check count
   of a multi-overlap conflict are defined by it.  Stamps are unique,
   so the order is total. *)
let earlier t a b =
  let ba = bucket t a and bb = bucket t b in
  ba < bb || (ba = bb && t.stamp.(slot t a) > t.stamp.(slot t b))

let eligible t ~is_load s = t.live.(s) && not (is_load && t.set_by_load.(s))

(* Check every set register at-or-after [my_order] against [lo, hi];
   loads skip registers set by loads.  Returns the order of the
   conflicting register, or -1.  Without a conflict every eligible
   register counts as one check; with one, only those at or before the
   reported register in conflict order do. *)
let run_checks t ~is_load ~my_order ~lo ~hi =
  let last = t.qbase + t.qsize - 1 in
  let eligible_count = ref 0 and hit = ref (-1) in
  for order = my_order to last do
    let s = slot t order in
    if eligible t ~is_load s then begin
      incr eligible_count;
      if t.lo.(s) <= hi && lo <= t.hi.(s) && (!hit < 0 || earlier t order !hit)
      then hit := order
    end
  done;
  if !hit < 0 then t.checks <- t.checks + !eligible_count
  else
    for order = my_order to last do
      if eligible t ~is_load (slot t order) && not (earlier t !hit order) then
        t.checks <- t.checks + 1
    done;
  !hit

let on_mem t (instr : Ir.Instr.t) ~lo ~hi =
  match Ir.Instr.annot instr with
  | Ir.Annot.Queue { offset; p; c } ->
    check_offset t offset ~what:"on_mem";
    let my_order = t.qbase + offset in
    let is_load = Ir.Instr.is_load instr in
    let hit = if c then run_checks t ~is_load ~my_order ~lo ~hi else -1 in
    if hit >= 0 then
      Error
        Detector.
          {
            checker = instr.id;
            setter = t.setter.(slot t hit);
            false_positive_prone = false;
          }
    else begin
      if p then set t my_order ~lo ~hi ~setter:instr.id ~is_load;
      Ok ()
    end
  | Ir.Annot.No_annot | Ir.Annot.Mask _ | Ir.Annot.Alat _ -> Ok ()

let live_entries t =
  List.init t.qsize (fun k -> t.qbase + k)
  |> List.filter_map (fun order ->
         let s = slot t order in
         if t.live.(s) then
           Some (order, { Access.lo = t.lo.(s); hi = t.hi.(s) }, t.setter.(s))
         else None)

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
      on_mem = (fun i ~lo ~hi -> on_mem t i ~lo ~hi);
      on_rotate = (fun n -> rotate t n);
      on_amov = (fun ~src ~dst -> amov t ~src ~dst);
      checks_performed = (fun () -> checks_performed t);
    }
