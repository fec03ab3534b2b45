(* Architectural state on the hot path of the simulator.

   Registers live in dense [int array]s indexed by [Ir.Reg.index] (one
   array per register class), memory in fixed-size [Bytes] pages hung
   off a page table keyed by [addr asr page_bits].  Unwritten registers
   and bytes read 0, so a missing page is indistinguishable from a page
   of zeros and rollback may restore a byte to 0 instead of removing
   it.  A one-entry page cache short-circuits the table lookup for the
   streaming accesses that dominate region execution.

   Atomic regions journal the previous value of every touched word and
   register, so checkpoint is O(1) and rollback is O(journal), never
   O(whole state).  The journal is a flat [int array] of 4-int records
   [(tag, location, width, previous)]; it doubles when full and is
   reused by every later region, so journaling allocates nothing once
   the buffer has grown to the largest region's write footprint. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* journal record tags: a memory word, or a register of one class *)
let tag_mem = 0
let tag_int = 1
let tag_float = 2
let tag_temp = 3
let record_ints = 4

type t = {
  mutable ints : int array;
  mutable floats : int array;
  mutable temps : int array;
  pages : (int, Bytes.t) Hashtbl.t;
  mutable cached_idx : int;  (* page cache; [min_int] = empty *)
  mutable cached_page : Bytes.t;
  mutable active : bool;  (* a region is open and writes are journaled *)
  mutable journal : int array;  (* [journal_len / record_ints] records *)
  mutable journal_len : int;
}

(* [find_page]'s answer for a page that was never written *)
let no_page = Bytes.empty

let create () =
  {
    ints = Array.make Ir.Reg.int_count 0;
    floats = Array.make Ir.Reg.float_count 0;
    temps = Array.make 64 0;
    pages = Hashtbl.create 16;
    cached_idx = min_int;
    cached_page = no_page;
    active = false;
    journal = [||];
    journal_len = 0;
  }

let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages * 2) in
  Hashtbl.iter (fun idx page -> Hashtbl.replace pages idx (Bytes.copy page)) t.pages;
  {
    ints = Array.copy t.ints;
    floats = Array.copy t.floats;
    temps = Array.copy t.temps;
    pages;
    cached_idx = min_int;
    cached_page = no_page;
    active = false;
    journal = [||];
    journal_len = 0;
  }

(* -- journal -- *)

let journal_push t tag loc width prev =
  let n = t.journal_len in
  if n + record_ints > Array.length t.journal then begin
    let grown = Array.make (max 256 (2 * Array.length t.journal)) 0 in
    Array.blit t.journal 0 grown 0 n;
    t.journal <- grown
  end;
  let j = t.journal in
  Array.unsafe_set j n tag;
  Array.unsafe_set j (n + 1) loc;
  Array.unsafe_set j (n + 2) width;
  Array.unsafe_set j (n + 3) prev;
  t.journal_len <- n + record_ints

(* -- registers -- *)

let grown a i =
  let n = Array.length a in
  let a' = Array.make (max (i + 1) (n * 2)) 0 in
  Array.blit a 0 a' 0 n;
  a'

let slot a i = if i < Array.length a then a.(i) else 0

let get_reg t r =
  match r with
  | Ir.Reg.R i -> slot t.ints i
  | Ir.Reg.F i -> slot t.floats i
  | Ir.Reg.T i -> slot t.temps i

let set_reg t r v =
  match r with
  | Ir.Reg.R i ->
    if t.active then journal_push t tag_int i 0 (slot t.ints i);
    if i >= Array.length t.ints then t.ints <- grown t.ints i;
    t.ints.(i) <- v
  | Ir.Reg.F i ->
    if t.active then journal_push t tag_float i 0 (slot t.floats i);
    if i >= Array.length t.floats then t.floats <- grown t.floats i;
    t.floats.(i) <- v
  | Ir.Reg.T i ->
    if t.active then journal_push t tag_temp i 0 (slot t.temps i);
    if i >= Array.length t.temps then t.temps <- grown t.temps i;
    t.temps.(i) <- v

(* -- memory -- *)

let check_width width =
  if width <= 0 || width > 8 then
    invalid_arg (Printf.sprintf "Machine: unsupported access width %d" width)

(* [asr] floors, so page indices work unchanged for negative addresses:
   page p covers [p * page_size, (p + 1) * page_size). *)
let page_index addr = addr asr page_bits

(* The cache remembers a missing page too, so reads of unwritten memory
   skip the table; [ensure_page] replaces the entry when it creates the
   page. *)
let find_page t idx =
  if idx = t.cached_idx then t.cached_page
  else begin
    (* [find] with a handler, not [find_opt]: no option per lookup *)
    let page =
      match Hashtbl.find t.pages idx with
      | page -> page
      | exception Not_found -> no_page
    in
    t.cached_idx <- idx;
    t.cached_page <- page;
    page
  end

let ensure_page t idx =
  let page = find_page t idx in
  if page != no_page then page
  else begin
    let page = Bytes.make page_size '\000' in
    Hashtbl.replace t.pages idx page;
    t.cached_idx <- idx;
    t.cached_page <- page;
    page
  end

let read_raw t addr width =
  let idx = page_index addr in
  let acc = ref 0 in
  if page_index (addr + width - 1) = idx then begin
    (* fast path: the access sits inside one page *)
    let page = find_page t idx in
    if page != no_page then begin
      let off = addr land page_mask in
      for i = width - 1 downto 0 do
        acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get page (off + i))
      done
    end
  end
  else
    for i = width - 1 downto 0 do
      let page = find_page t (page_index (addr + i)) in
      let byte =
        if page == no_page then 0
        else Char.code (Bytes.unsafe_get page ((addr + i) land page_mask))
      in
      acc := (!acc lsl 8) lor byte
    done;
  !acc

let write_raw t addr width v =
  let idx = page_index addr in
  if page_index (addr + width - 1) = idx then begin
    let page = ensure_page t idx in
    let off = addr land page_mask in
    for i = 0 to width - 1 do
      Bytes.unsafe_set page (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done
  end
  else
    for i = 0 to width - 1 do
      let page = ensure_page t (page_index (addr + i)) in
      Bytes.unsafe_set page
        ((addr + i) land page_mask)
        (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done

let load t ~addr ~width =
  check_width width;
  read_raw t addr width

let store t ~addr ~width v =
  check_width width;
  if t.active then
    if width = 8 then begin
      (* an 8-byte word has 64 bits and does not round-trip through a
         63-bit OCaml int, so journal it as two 4-byte halves *)
      journal_push t tag_mem addr 4 (read_raw t addr 4);
      journal_push t tag_mem (addr + 4) 4 (read_raw t (addr + 4) 4)
    end
    else journal_push t tag_mem addr width (read_raw t addr width);
  write_raw t addr width v

(* -- atomic regions -- *)

let checkpoint t =
  if t.active then invalid_arg "Machine.checkpoint: region already active";
  t.active <- true;
  t.journal_len <- 0

let commit t =
  if not t.active then invalid_arg "Machine.commit: no active region";
  t.active <- false;
  t.journal_len <- 0

let rollback t =
  if not t.active then invalid_arg "Machine.rollback: no active region";
  t.active <- false;
  (* newest-first: the oldest record for an address or register is
     applied last and wins, restoring the checkpointed value.  A
     journaled register was written in the region, so its array already
     covers the index. *)
  let j = t.journal in
  let k = ref (t.journal_len - record_ints) in
  while !k >= 0 do
    let tag = j.(!k) and loc = j.(!k + 1) and prev = j.(!k + 3) in
    if tag = tag_mem then write_raw t loc j.(!k + 2) prev
    else if tag = tag_int then t.ints.(loc) <- prev
    else if tag = tag_float then t.floats.(loc) <- prev
    else t.temps.(loc) <- prev;
    k := !k - record_ints
  done;
  t.journal_len <- 0

let in_region t = t.active

(* -- observation (cold paths: tests, diffs, dumps) -- *)

let dump_regs t =
  let collect mk a acc =
    let out = ref acc in
    for i = Array.length a - 1 downto 0 do
      if a.(i) <> 0 then out := (mk i, a.(i)) :: !out
    done;
    !out
  in
  (* index order per class = [Ir.Reg.compare] order, no sort needed *)
  collect (fun i -> Ir.Reg.R i) t.ints
    (collect (fun i -> Ir.Reg.F i) t.floats [])

let dump_mem t =
  let page_idxs =
    Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages []
    |> List.sort Int.compare
  in
  List.concat_map
    (fun idx ->
      let page = Hashtbl.find t.pages idx in
      let base = idx * page_size in
      let out = ref [] in
      for off = page_size - 1 downto 0 do
        let b = Char.code (Bytes.unsafe_get page off) in
        if b <> 0 then out := (base + off, b) :: !out
      done;
      !out)
    page_idxs

let zero_page = Bytes.make page_size '\000'

let equal_regs a b =
  let le x y =
    (* every value in [x] matches [y] (missing slots read 0) *)
    let ny = Array.length y in
    let ok = ref true in
    Array.iteri (fun i v -> if v <> (if i < ny then y.(i) else 0) then ok := false) x;
    !ok
  in
  le a b && le b a

let equal_mem a b =
  let covered_by x y =
    Hashtbl.fold
      (fun idx page acc ->
        acc
        &&
        match Hashtbl.find_opt y.pages idx with
        | Some page' -> Bytes.equal page page'
        | None -> Bytes.equal page zero_page)
      x.pages true
  in
  covered_by a b && covered_by b a

let equal_guest_state a b =
  equal_regs a.ints b.ints && equal_regs a.floats b.floats && equal_mem a b

let diff_guest_state a b =
  let diffs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let regs_a = dump_regs a and regs_b = dump_regs b in
  if regs_a <> regs_b then begin
    let tbl = Hashtbl.create 32 in
    List.iter (fun (r, v) -> Hashtbl.replace tbl r (Some v, None)) regs_a;
    List.iter
      (fun (r, v) ->
        match Hashtbl.find_opt tbl r with
        | Some (x, _) -> Hashtbl.replace tbl r (x, Some v)
        | None -> Hashtbl.replace tbl r (None, Some v))
      regs_b;
    Hashtbl.iter
      (fun r (x, y) ->
        if x <> y then
          note "reg %s: %s vs %s" (Ir.Reg.to_string r)
            (match x with Some v -> string_of_int v | None -> "0")
            (match y with Some v -> string_of_int v | None -> "0"))
      tbl
  end;
  let mem_a = dump_mem a and mem_b = dump_mem b in
  if mem_a <> mem_b then begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun (ad, v) -> Hashtbl.replace tbl ad (Some v, None)) mem_a;
    List.iter
      (fun (ad, v) ->
        match Hashtbl.find_opt tbl ad with
        | Some (x, _) -> Hashtbl.replace tbl ad (x, Some v)
        | None -> Hashtbl.replace tbl ad (None, Some v))
      mem_b;
    Hashtbl.iter
      (fun ad (x, y) ->
        if x <> y then
          note "mem[%d]: %s vs %s" ad
            (match x with Some v -> string_of_int v | None -> "0")
            (match y with Some v -> string_of_int v | None -> "0"))
      tbl
  end;
  List.rev !diffs
