module C = Analysis.Constraints
module CD = Analysis.Cycle_detect

type amov_insertion = {
  amov_id : int;
  before_pos : int;
  src_instr : int;
  dst_is_fresh : bool;
  src_offset : int;
  dst_offset : int;
}

type result = {
  annots : Ir.Annot.t array;
  rotations : int array;
  amovs : amov_insertion list;
  max_offset : int;
  slots : int;
  slot_ids : int array;
  orders : int array;
  bases : int array;
  flags : Bytes.t;
  checks : int array;
  antis : int array;
  p_bits : int;
  c_bits : int;
}

(* A pending AMOV whose offsets are backpatched once orders are known.
   Fields are slots; [p_dst = -1] means a pure clear (src offset
   reused). *)
type pending_amov = {
  p_amov_id : int;
  p_before : int;
  p_src : int;
  p_dst : int;
  p_base : int;  (* BASE at the AMOV's execution point *)
}

(* Per-slot flag bits *)
let scheduled_bit = 1
let allocated_bit = 2
let delayed_bit = 4
let p_bit = 8
let c_bit = 16
let ext_p_bit = 32

(* Constraint edge kinds in the edge log *)
let live_check = 0
let dead_check = 1  (* retargeted by an AMOV *)
let anti = 2

type vec = Analysis.Arena.vec

let push = Analysis.Arena.vec_push

(* Allocator state.  A {e slot} names an operation: body position [p]
   for the instruction at [p], [n + k] for the [k]-th AMOV pseudo-op
   (an AMOV that takes over a protected range).  Every per-operation
   table is an array over slots, grown when a pseudo-op is added; the
   cycle detector numbers its nodes by slot too.  The lists the
   allocator keeps per slot are int linked lists over one pool of
   cells ([cell_val], [cell_tag], [cell_next]), newest first, as the
   cons lists they replace were:
   - [out_head]: allocation-order successors, each cell tagged with its
     edge's index in the edge log;
   - [pc_head]: the checkers of a checkee.
   The edge log keeps every check and anti edge in insertion order.
   Ready operations wait in an int FIFO ([ready] from [ready_head]),
   and [delay_log] lists slots in the order they were delayed — their
   bases never decrease along it, so the oldest slot still delayed
   holds the smallest delayed base. *)
type t = {
  hz : Hazards.t;
  deps : Analysis.Depgraph.t;
  n : int;  (* body length: slots below it are body positions *)
  ar_count : int;
  fresh_id : int ref;
  cd : CD.t;
  mutable n_slots : int;
  mutable slot_id : int array;  (* instruction id of each slot *)
  mutable flags : Bytes.t;
  mutable order : int array;
  mutable base : int array;
  mutable indeg : int array;
  mutable holder : int array;
      (* after "AMOV x -> x'", x's protected range lives in x's
         register no longer: the pseudo-op now holding it, -1 for
         itself *)
  mutable out_head : int array;
  mutable pc_head : int array;
  cell_val : vec;
  cell_tag : vec;
  cell_next : vec;
  log_first : vec;
  log_second : vec;
  log_kind : vec;
  ready : vec;
  mutable ready_head : int;
  delay_log : vec;
  mutable delay_oldest : int;  (* no slot before it is still delayed *)
  mutable n_delayed : int;
  mutable delayed_p : int;  (* delayed slots with the P bit *)
  mutable ext_p : int;
      (* unscheduled operations that extended dependences will force to
         P: the [second] of an extended edge, until it is scheduled *)
  mutable next_order : int;
  rot : int array;  (* by body position: rotate after it *)
  mutable amovs : pending_amov list;  (* newest first *)
  mutable overflow : string option;
      (* set once an offset would reach [ar_count]; the allocator then
         ignores further operations and [finish] reports it *)
  mutable cur : int;  (* the slot being scheduled, for [visit] *)
  mutable visit :
    first:int ->
    second:int ->
    kind:Analysis.Depgraph.kind ->
    strength:Analysis.Depgraph.strength ->
    unit;
}

let has t s bit = Char.code (Bytes.unsafe_get t.flags s) land bit <> 0

let set t s bit =
  Bytes.unsafe_set t.flags s
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.flags s) lor bit))

let clear t s bit =
  Bytes.unsafe_set t.flags s
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.flags s) land lnot bit))

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slot_of t id =
  let p = Hazards.position t.hz id in
  if p < 0 then
    invalid_arg
      (Printf.sprintf "Smarq_alloc: dependence names instr %d outside the body"
         id);
  p

let rec resolve_holder t s =
  let h = t.holder.(s) in
  if h < 0 then s else resolve_holder t h

(* A fresh slot for the pseudo-op [id]. *)
let add_slot t id =
  let s = t.n_slots in
  if s = Array.length t.slot_id then begin
    let len = 2 * s in
    t.slot_id <- grow t.slot_id len 0;
    let flags = Bytes.make len '\000' in
    Bytes.blit t.flags 0 flags 0 s;
    t.flags <- flags;
    t.order <- grow t.order len 0;
    t.base <- grow t.base len 0;
    t.indeg <- grow t.indeg len 0;
    t.holder <- grow t.holder len (-1);
    t.out_head <- grow t.out_head len (-1);
    t.pc_head <- grow t.pc_head len (-1)
  end;
  t.slot_id.(s) <- id;
  t.n_slots <- s + 1;
  s

(* A list cell holding [v] and [tag] in front of [next]; its index. *)
let cons t v tag next =
  let k = t.cell_val.len in
  push t.cell_val v;
  push t.cell_tag tag;
  push t.cell_next next;
  k

let delay t s =
  set t s delayed_bit;
  push t.delay_log s;
  t.n_delayed <- t.n_delayed + 1;
  if has t s p_bit then t.delayed_p <- t.delayed_p + 1

let undelay t s =
  if has t s delayed_bit then begin
    clear t s delayed_bit;
    t.n_delayed <- t.n_delayed - 1;
    if has t s p_bit then t.delayed_p <- t.delayed_p - 1
  end

(* Log the constraint edge [f -> s] and add it to the graph. *)
let add_edge t f s kind =
  let k = t.log_kind.len in
  push t.log_first f;
  push t.log_second s;
  push t.log_kind kind;
  t.out_head.(f) <- cons t s k t.out_head.(f);
  t.indeg.(s) <- t.indeg.(s) + 1

(* Checks leave their checker only while it is unscheduled, hence
   before its out-list is dropped on allocation: the out-list knows
   every check the checker makes. *)
let has_check t f s =
  let e = ref t.out_head.(f) in
  while
    !e >= 0
    && not
         (t.cell_val.buf.(!e) = s
         && t.log_kind.buf.(t.cell_tag.buf.(!e)) = live_check)
  do
    e := t.cell_next.buf.(!e)
  done;
  !e >= 0

let add_check t f s =
  if not (has_check t f s) then begin
    add_edge t f s live_check;
    t.pc_head.(s) <- cons t f 0 t.pc_head.(s)
  end

let add_anti t f s = add_edge t f s anti

(* Unlink the first (newest) constraint edge [f -> s]; a check edge
   leaves the result too. *)
let remove_edge t f s =
  let prev = ref (-1) and e = ref t.out_head.(f) in
  while !e >= 0 && t.cell_val.buf.(!e) <> s do
    prev := !e;
    e := t.cell_next.buf.(!e)
  done;
  if !e >= 0 then begin
    let k = t.cell_tag.buf.(!e) in
    if t.log_kind.buf.(k) = live_check then t.log_kind.buf.(k) <- dead_check;
    let next = t.cell_next.buf.(!e) in
    if !prev < 0 then t.out_head.(f) <- next else t.cell_next.buf.(!prev) <- next
  end

(* Allocate every ready operation; each allocation may unblock more.
   Stops at the first operation whose offset would overflow. *)
let drain t =
  while t.overflow = None && t.ready_head < t.ready.len do
    let x = t.ready.buf.(t.ready_head) in
    t.ready_head <- t.ready_head + 1;
    if t.ready_head = t.ready.len then begin
      t.ready_head <- 0;
      t.ready.len <- 0
    end;
    let off = t.next_order - t.base.(x) in
    if off >= t.ar_count then
      t.overflow <-
        Some
          (Printf.sprintf "instr %d would need offset %d of %d registers"
             t.slot_id.(x) off t.ar_count)
    else begin
      t.order.(x) <- t.next_order;
      set t x allocated_bit;
      undelay t x;
      if has t x p_bit then t.next_order <- t.next_order + 1;
      let e = ref t.out_head.(x) in
      while !e >= 0 do
        let z = t.cell_val.buf.(!e) in
        t.indeg.(z) <- t.indeg.(z) - 1;
        if t.indeg.(z) = 0 && has t z delayed_bit then push t.ready z;
        e := t.cell_next.buf.(!e)
      done;
      t.out_head.(x) <- -1
    end
  done

let allocate_reg t y =
  t.base.(y) <- t.next_order;
  if t.indeg.(y) = 0 then push t.ready y else delay t y;
  let base_before = t.next_order in
  drain t;
  if t.next_order > base_before then t.rot.(y) <- t.next_order - base_before

(* Break a would-be cycle from anti-constraint x -> y by inserting an
   AMOV before y that takes over x's protected range (Section 5.2). *)
let break_cycle t ~x ~y =
  let unsched_checker = ref false in
  let c = ref t.pc_head.(x) in
  while !c >= 0 && not !unsched_checker do
    if not (has t t.cell_val.buf.(!c) scheduled_bit) then unsched_checker := true;
    c := t.cell_next.buf.(!c)
  done;
  let amov_id = !(t.fresh_id) in
  incr t.fresh_id;
  if not !unsched_checker then
    (* nobody will check x's register any more: a pure clear removes
       the range so y cannot hit it *)
    t.amovs <-
      { p_amov_id = amov_id; p_before = y; p_src = x; p_dst = -1;
        p_base = t.next_order }
      :: t.amovs
  else begin
    (* the AMOV becomes a new protected pseudo-op x' *)
    let x' = add_slot t amov_id in
    ignore (CD.init_t t.cd x' (CD.get_t t.cd y - 1));
    set t x' p_bit;
    (* retarget future checks z ->check x to z ->check x', newest
       checker first; x keeps only its scheduled checkers *)
    let prev = ref (-1) and c = ref t.pc_head.(x) in
    while !c >= 0 do
      let z = t.cell_val.buf.(!c) and next = t.cell_next.buf.(!c) in
      if has t z scheduled_bit then prev := !c
      else begin
        if !prev < 0 then t.pc_head.(x) <- next
        else t.cell_next.buf.(!prev) <- next;
        remove_edge t z x;
        t.indeg.(x) <- t.indeg.(x) - 1;
        CD.remove_edge t.cd z x;
        add_check t z x';
        CD.add_edge t.cd z x';
        (* unscheduled checkers have no incoming constraints, so their
           T may be lowered freely to restore the invariant *)
        if CD.get_t t.cd z >= CD.get_t t.cd x' then
          CD.set_t t.cd z (CD.get_t t.cd x' - 1)
      end;
      c := next
    done;
    (* the retargeting may have made x itself allocatable *)
    if t.indeg.(x) = 0 && has t x delayed_bit then push t.ready x;
    (* x' is delayed until its checkers are allocated *)
    t.base.(x') <- t.next_order;
    delay t x';
    set t x' scheduled_bit;
    (* anti x' -> y so y never checks the moved range either *)
    (match CD.try_add_anti t.cd ~x:x' ~y with
    | CD.Ok_already | CD.Ok_shifted _ -> add_anti t x' y
    | CD.Cycle _ ->
      (* impossible: x' is fresh with T = T(y) - 1 and y has no path
         to x' *)
      assert false);
    t.holder.(x) <- x';
    t.amovs <-
      { p_amov_id = amov_id; p_before = y; p_src = x; p_dst = x';
        p_base = t.next_order }
      :: t.amovs
  end

(* One dependence [first -> cur] of the operation being scheduled. *)
let visit_dep t first =
  let y = t.cur in
  let x = slot_of t first in
  if not (has t x scheduled_bit) then begin
    (* x executes after y although the dependence says the pair must be
       alias-checked: x checks y *)
    set t x c_bit;
    set t y p_bit;
    add_check t x y;
    CD.lower_for_check t.cd ~x ~y
  end
  else begin
    (* The range X set may have been moved to a pseudo-op by an earlier
       AMOV; every ordering obligation applies to whichever register
       currently holds it. *)
    let xh = resolve_holder t x in
    if
      (not (has t xh allocated_bit))
      && has t xh p_bit && has t y c_bit
      && not (has_check t y xh)
    then begin
      match CD.try_add_anti t.cd ~x:xh ~y with
      | CD.Ok_already | CD.Ok_shifted _ -> add_anti t xh y
      | CD.Cycle _ -> break_cycle t ~x:xh ~y
    end
  end

let ignore_dep ~first:_ ~second:_ ~kind:_ ~strength:_ = ()

let create ~hazards ~deps ~ar_count ~fresh_id ?arena () =
  let n = Array.length hazards.Hazards.ids in
  (* the growable lists live in arena vectors 4-11 *)
  let vec slot =
    match arena with
    | Some a -> Analysis.Arena.vec a ~slot
    | None -> { Analysis.Arena.buf = Array.make 16 0; len = 0 }
  in
  let cap = n + 4 in
  let cd = CD.create ?arena () in
  for p = n - 1 downto 0 do
    ignore (CD.init_t cd p p)
  done;
  let t =
    {
      hz = hazards;
      deps;
      n;
      ar_count;
      fresh_id;
      cd;
      n_slots = n;
      slot_id = grow hazards.Hazards.ids cap 0;
      flags = Bytes.make cap '\000';
      order = Array.make cap 0;
      base = Array.make cap 0;
      indeg = Array.make cap 0;
      holder = Array.make cap (-1);
      out_head = Array.make cap (-1);
      pc_head = Array.make cap (-1);
      cell_val = vec 4;
      cell_tag = vec 5;
      cell_next = vec 6;
      log_first = vec 7;
      log_second = vec 8;
      log_kind = vec 9;
      ready = vec 10;
      ready_head = 0;
      delay_log = vec 11;
      delay_oldest = 0;
      n_delayed = 0;
      delayed_p = 0;
      ext_p = 0;
      next_order = 0;
      rot = Array.make n 0;
      amovs = [];
      overflow = None;
      cur = -1;
      visit = ignore_dep;
    }
  in
  t.visit <- (fun ~first ~second:_ ~kind:_ ~strength:_ -> visit_dep t first);
  Analysis.Depgraph.iter_edges deps
    (fun ~first:_ ~second ~kind ~strength:_ ->
      match kind with
      | Analysis.Depgraph.Extended ->
        (* at [second]'s scheduling, an unscheduled [first] forces
           P(second); count every potential target *)
        let s = slot_of t second in
        if not (has t s ext_p_bit) then begin
          set t s ext_p_bit;
          t.ext_p <- t.ext_p + 1
        end
      | Analysis.Depgraph.Real -> ());
  t

let schedule_op t y =
  t.cur <- y;
  Analysis.Depgraph.iter_into t.deps t.slot_id.(y) t.visit;
  set t y scheduled_bit;
  if has t y ext_p_bit then begin
    clear t y ext_p_bit;
    t.ext_p <- t.ext_p - 1
  end;
  if has t y p_bit || has t y c_bit then allocate_reg t y

let on_schedule t p = if t.overflow = None then schedule_op t p

let overflowed t = t.overflow <> None

let unscheduled_ext_p t = t.ext_p

let overflow_risk t ~lookahead_p =
  let log = t.delay_log in
  while t.delay_oldest < log.len && not (has t log.buf.(t.delay_oldest) delayed_bit) do
    t.delay_oldest <- t.delay_oldest + 1
  done;
  let min_base =
    if t.delay_oldest < log.len then t.base.(log.buf.(t.delay_oldest))
    else t.next_order
  in
  let max_order = t.next_order + t.delayed_p + t.ext_p + lookahead_p in
  max_order - min_base >= t.ar_count

(* The logged edges of one kind as slot pairs, [first] then [second],
   in insertion order. *)
let edge_pairs t want =
  let n = ref 0 in
  for k = 0 to t.log_kind.len - 1 do
    if t.log_kind.buf.(k) = want then incr n
  done;
  let a = Array.make (2 * !n) 0 and x = ref 0 in
  for k = 0 to t.log_kind.len - 1 do
    if t.log_kind.buf.(k) = want then begin
      a.(!x) <- t.log_first.buf.(k);
      a.(!x + 1) <- t.log_second.buf.(k);
      x := !x + 2
    end
  done;
  a

let finish t =
  (* drain everything that can still be allocated; remaining delayed
     ops indicate a bug (their checkers never got scheduled) *)
  drain t;
  match t.overflow with
  | Some reason -> Error reason
  | None ->
    if t.n_delayed > 0 then begin
      let stuck = ref [] in
      for s = t.n_slots - 1 downto 0 do
        if has t s delayed_bit then stuck := string_of_int t.slot_id.(s) :: !stuck
      done;
      invalid_arg
        ("Smarq_alloc.finish: unallocated operations remain: "
        ^ String.concat "," !stuck)
    end;
    let amovs =
      List.rev_map
        (fun p ->
          let src_offset = t.order.(p.p_src) - p.p_base in
          {
            amov_id = p.p_amov_id;
            before_pos = p.p_before;
            src_instr = t.slot_id.(p.p_src);
            dst_is_fresh = p.p_dst >= 0;
            src_offset;
            dst_offset =
              (if p.p_dst < 0 then src_offset else t.order.(p.p_dst) - p.p_base);
          })
        t.amovs
    in
    let outside a =
      a.src_offset < 0 || a.dst_offset < 0
      || a.src_offset >= t.ar_count
      || a.dst_offset >= t.ar_count
    in
    match List.find_opt outside amovs with
    | Some a ->
      Error
        (Printf.sprintf "amov %d offsets %d,%d outside window %d" a.amov_id
           a.src_offset a.dst_offset t.ar_count)
    | None ->
      (* every allocated slot has an order and a base, and every P or C
         bit belongs to one; an unallocated slot's order becomes -1 *)
      let annots = Array.make t.n Ir.Annot.none in
      let max_offset = ref (-1) and p_bits = ref 0 and c_bits = ref 0 in
      for s = 0 to t.n_slots - 1 do
        let p = has t s p_bit and c = has t s c_bit in
        if p then incr p_bits;
        if c then incr c_bits;
        if has t s allocated_bit then begin
          let offset = t.order.(s) - t.base.(s) in
          if offset > !max_offset then max_offset := offset;
          if s < t.n then annots.(s) <- Ir.Annot.queue ~offset ~p ~c
        end
        else t.order.(s) <- -1
      done;
      let max_offset =
        List.fold_left
          (fun acc (a : amov_insertion) ->
            max acc (max a.src_offset a.dst_offset))
          !max_offset amovs
      in
      Ok
        {
          annots;
          rotations = t.rot;
          amovs;
          max_offset;
          slots = t.n_slots;
          slot_ids = t.slot_id;
          orders = t.order;
          bases = t.base;
          flags = t.flags;
          checks = edge_pairs t live_check;
          antis = edge_pairs t anti;
          p_bits = !p_bits;
          c_bits = !c_bits;
        }

let is_p (r : result) s = Char.code (Bytes.get r.flags s) land p_bit <> 0
let is_c (r : result) s = Char.code (Bytes.get r.flags s) land c_bit <> 0

type tables = {
  allocation : C.allocation;
  check_edges : C.edge list;
  anti_edges : C.edge list;
}

let allocation_tables (r : result) =
  let allocation = C.empty_allocation () in
  for s = 0 to r.slots - 1 do
    let id = r.slot_ids.(s) in
    if is_p r s then Hashtbl.replace allocation.C.p_bit id ();
    if is_c r s then Hashtbl.replace allocation.C.c_bit id ();
    if r.orders.(s) >= 0 then begin
      Hashtbl.replace allocation.C.order id r.orders.(s);
      Hashtbl.replace allocation.C.base id r.bases.(s)
    end
  done;
  let edges pairs kind =
    List.init (Array.length pairs / 2) (fun k ->
        { C.first = r.slot_ids.(pairs.(2 * k)); second = r.slot_ids.(pairs.((2 * k) + 1)); kind })
  in
  { allocation; check_edges = edges r.checks C.Check; anti_edges = edges r.antis C.Anti }
