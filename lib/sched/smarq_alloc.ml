module C = Analysis.Constraints
module CD = Analysis.Cycle_detect

type amov_insertion = {
  amov_id : int;
  before : int;
  src_instr : int;
  dst_is_fresh : bool;
  src_offset : int;
  dst_offset : int;
}

type result = {
  annots : (int * Ir.Annot.t) list;
  rotations : (int * int) list;
  amovs : amov_insertion list;
  max_offset : int;
  check_edges : C.edge list;
  anti_edges : C.edge list;
  allocation : C.allocation;
}

(* A pending AMOV whose offsets are backpatched once orders are known.
   [dst_instr = None] means a pure clear (src offset reused). *)
type pending_amov = {
  p_amov_id : int;
  p_before : int;
  p_src : int;
  p_dst : int option;
  p_base : int;  (* BASE at the AMOV's execution point *)
}

type t = {
  deps : Analysis.Depgraph.t;
  ar_count : int;
  fresh_id : int ref;
  cd : CD.t;
  alloc : C.allocation;  (* orders, bases, P/C bits *)
  scheduled : (int, unit) Hashtbl.t;
  allocated : (int, unit) Hashtbl.t;
  (* constraint graph bookkeeping *)
  mutable check_edges : C.edge list;
  mutable anti_edges : C.edge list;
  out_edges : (int, int list) Hashtbl.t;  (* allocation-order successors *)
  indeg : (int, int) Hashtbl.t;
  check_pairs : (int, unit) Hashtbl.t;  (* existing checks, Pair_key.pack f s *)
  (* check edges into a not-yet-scheduled checkee, for AMOV retarget:
     checkee id -> checker ids that are not yet scheduled *)
  pending_checkers : (int, int list) Hashtbl.t;
  mutable next_order : int;
  ready_queue : int Queue.t;
  in_delay : (int, unit) Hashtbl.t;
  mutable rotations : (int * int) list;
  mutable amovs : pending_amov list;
  (* ids of unscheduled ops that extended deps will force to P *)
  ext_p_unscheduled : (int, unit) Hashtbl.t;
  (* after "AMOV x -> x'", x's protected range lives in x's register no
     longer: holder maps each op to the pseudo-op currently holding its
     range (absent = itself) *)
  holder : (int, int) Hashtbl.t;
  (* set once an offset would reach [ar_count]; the allocator then
     ignores further operations and [finish] reports it *)
  mutable overflow : string option;
}

let rec resolve_holder t id =
  match Hashtbl.find_opt t.holder id with
  | None -> id
  | Some h -> resolve_holder t h

let has_p t id = Hashtbl.mem t.alloc.C.p_bit id
let has_c t id = Hashtbl.mem t.alloc.C.c_bit id
let set_p t id = Hashtbl.replace t.alloc.C.p_bit id ()
let set_c t id = Hashtbl.replace t.alloc.C.c_bit id ()
let is_scheduled t id = Hashtbl.mem t.scheduled id
let is_allocated t id = Hashtbl.mem t.allocated id
let indeg_of t id = Option.value (Hashtbl.find_opt t.indeg id) ~default:0

let create ~body ~deps ~ar_count ~fresh_id =
  let cd = CD.create () in
  List.iteri
    (fun idx (i : Ir.Instr.t) -> ignore (CD.init_t cd i.id idx))
    body;
  let ext_p_unscheduled = Hashtbl.create 16 in
  Analysis.Depgraph.iter_edges deps
    (fun ~first:_ ~second ~kind ~strength:_ ->
      match kind with
      | Analysis.Depgraph.Extended ->
        (* at [second]'s scheduling, an unscheduled [first] forces
           P(second); count every potential target *)
        Hashtbl.replace ext_p_unscheduled second ()
      | Analysis.Depgraph.Real -> ());
  {
    deps;
    ar_count;
    fresh_id;
    cd;
    alloc = C.empty_allocation ();
    scheduled = Hashtbl.create 64;
    allocated = Hashtbl.create 64;
    check_edges = [];
    anti_edges = [];
    out_edges = Hashtbl.create 64;
    indeg = Hashtbl.create 64;
    check_pairs = Hashtbl.create 64;
    pending_checkers = Hashtbl.create 64;
    next_order = 0;
    ready_queue = Queue.create ();
    in_delay = Hashtbl.create 64;
    rotations = [];
    amovs = [];
    ext_p_unscheduled;
    holder = Hashtbl.create 16;
    overflow = None;
  }

let add_graph_edge t f s =
  let l = Option.value (Hashtbl.find_opt t.out_edges f) ~default:[] in
  Hashtbl.replace t.out_edges f (s :: l);
  Hashtbl.replace t.indeg s (indeg_of t s + 1)

let add_check t f s =
  let key = Analysis.Pair_key.pack f s in
  if not (Hashtbl.mem t.check_pairs key) then begin
    Hashtbl.replace t.check_pairs key ();
    t.check_edges <- { C.first = f; second = s; kind = C.Check } :: t.check_edges;
    add_graph_edge t f s;
    let l = Option.value (Hashtbl.find_opt t.pending_checkers s) ~default:[] in
    Hashtbl.replace t.pending_checkers s (f :: l)
  end

let add_anti t f s =
  t.anti_edges <- { C.first = f; second = s; kind = C.Anti } :: t.anti_edges;
  add_graph_edge t f s

let has_check t f s = Hashtbl.mem t.check_pairs (Analysis.Pair_key.pack f s)

(* Allocate every ready operation; each allocation may unblock more.
   Stops at the first operation whose offset would overflow. *)
let drain t =
  while t.overflow = None && not (Queue.is_empty t.ready_queue) do
    let x = Queue.pop t.ready_queue in
    let base_x = Hashtbl.find t.alloc.C.base x in
    let off = t.next_order - base_x in
    if off >= t.ar_count then
      t.overflow <-
        Some
          (Printf.sprintf "instr %d would need offset %d of %d registers" x
             off t.ar_count)
    else begin
      Hashtbl.replace t.alloc.C.order x t.next_order;
      Hashtbl.replace t.allocated x ();
      Hashtbl.remove t.in_delay x;
      if has_p t x then t.next_order <- t.next_order + 1;
      List.iter
        (fun z ->
          let d = indeg_of t z - 1 in
          Hashtbl.replace t.indeg z d;
          if d = 0 && Hashtbl.mem t.in_delay z then Queue.push z t.ready_queue)
        (Option.value (Hashtbl.find_opt t.out_edges x) ~default:[]);
      Hashtbl.remove t.out_edges x
    end
  done

let allocate_reg t id =
  Hashtbl.replace t.alloc.C.base id t.next_order;
  if indeg_of t id = 0 then Queue.push id t.ready_queue
  else Hashtbl.replace t.in_delay id ();
  let base_before = t.next_order in
  drain t;
  if t.next_order > base_before then
    t.rotations <- (id, t.next_order - base_before) :: t.rotations

(* Break a would-be cycle from anti-constraint x -> y by inserting an
   AMOV before y that takes over x's protected range (Section 5.2). *)
let break_cycle t ~x ~y =
  let unsched_checkers =
    List.filter
      (fun z -> not (is_scheduled t z))
      (Option.value (Hashtbl.find_opt t.pending_checkers x) ~default:[])
  in
  let amov_id = !(t.fresh_id) in
  incr t.fresh_id;
  if unsched_checkers = [] then
    (* nobody will check x's register any more: a pure clear removes
       the range so y cannot hit it *)
    t.amovs <-
      {
        p_amov_id = amov_id;
        p_before = y;
        p_src = x;
        p_dst = None;
        p_base = t.next_order;
      }
      :: t.amovs
  else begin
    (* the AMOV becomes a new protected pseudo-op x' *)
    let x' = amov_id in
    ignore (CD.init_t t.cd x' (CD.get_t t.cd y - 1));
    set_p t x';
    (* retarget future checks z ->check x to z ->check x' *)
    List.iter
      (fun z ->
        (* remove z->x *)
        Hashtbl.remove t.check_pairs (Analysis.Pair_key.pack z x);
        t.check_edges <-
          List.filter
            (fun (e : C.edge) -> not (e.C.first = z && e.C.second = x))
            t.check_edges;
        (match Hashtbl.find_opt t.out_edges z with
        | Some l ->
          let removed = ref false in
          let l' =
            List.filter
              (fun s ->
                if (not !removed) && s = x then begin
                  removed := true;
                  false
                end
                else true)
              l
          in
          Hashtbl.replace t.out_edges z l'
        | None -> ());
        Hashtbl.replace t.indeg x (indeg_of t x - 1);
        CD.remove_edge t.cd z x;
        add_check t z x';
        CD.add_edge t.cd z x';
        (* unscheduled checkers have no incoming constraints, so their
           T may be lowered freely to restore the invariant *)
        if CD.get_t t.cd z >= CD.get_t t.cd x' then
          CD.set_t t.cd z (CD.get_t t.cd x' - 1))
      unsched_checkers;
    (* the retargeting may have made x itself allocatable *)
    if indeg_of t x = 0 && Hashtbl.mem t.in_delay x then
      Queue.push x t.ready_queue;
    Hashtbl.replace t.pending_checkers x
      (List.filter (fun z -> is_scheduled t z)
         (Option.value (Hashtbl.find_opt t.pending_checkers x) ~default:[]));
    (* x' is delayed until its checkers are allocated *)
    Hashtbl.replace t.alloc.C.base x' t.next_order;
    Hashtbl.replace t.in_delay x' ();
    Hashtbl.replace t.scheduled x' ();
    (* anti x' -> y so y never checks the moved range either *)
    (match CD.try_add_anti t.cd ~x:x' ~y with
    | CD.Ok_already | CD.Ok_shifted _ -> add_anti t x' y
    | CD.Cycle _ ->
      (* impossible: x' is fresh with T = T(y) - 1 and y has no path
         to x' *)
      assert false);
    Hashtbl.replace t.holder x x';
    t.amovs <-
      {
        p_amov_id = amov_id;
        p_before = y;
        p_src = x;
        p_dst = Some x';
        p_base = t.next_order;
      }
      :: t.amovs
  end

let schedule_op t (instr : Ir.Instr.t) =
  let y = instr.id in
  Analysis.Depgraph.iter_into t.deps y
    (fun ~first:x ~second:_ ~kind:_ ~strength:_ ->
      if not (is_scheduled t x) then begin
        (* x executes after y although the dependence says the pair
           must be alias-checked: x checks y *)
        set_c t x;
        set_p t y;
        add_check t x y;
        CD.lower_for_check t.cd ~x ~y
      end
      else begin
        (* The range X set may have been moved to a pseudo-op by an
           earlier AMOV; every ordering obligation applies to whichever
           register currently holds it. *)
        let xh = resolve_holder t x in
        if
          (not (is_allocated t xh))
          && has_p t xh && has_c t y
          && not (has_check t y xh)
        then begin
          match CD.try_add_anti t.cd ~x:xh ~y with
          | CD.Ok_already | CD.Ok_shifted _ -> add_anti t xh y
          | CD.Cycle _ -> break_cycle t ~x:xh ~y
        end
      end);
  Hashtbl.replace t.scheduled y ();
  Hashtbl.remove t.ext_p_unscheduled y;
  if has_p t y || has_c t y then allocate_reg t y

let on_schedule t instr = if t.overflow = None then schedule_op t instr

let overflowed t = t.overflow <> None

let unscheduled_ext_p t = Hashtbl.length t.ext_p_unscheduled

let overflow_risk t ~lookahead_p =
  let min_base =
    Hashtbl.fold
      (fun id () acc ->
        match Hashtbl.find_opt t.alloc.C.base id with
        | Some b -> min b acc
        | None -> acc)
      t.in_delay t.next_order
  in
  let delayed_p =
    Hashtbl.fold
      (fun id () acc -> if has_p t id then acc + 1 else acc)
      t.in_delay 0
  in
  let max_order =
    t.next_order + delayed_p + unscheduled_ext_p t + lookahead_p
  in
  max_order - min_base >= t.ar_count

let finish t =
  (* drain everything that can still be allocated; remaining delayed
     ops indicate a bug (their checkers never got scheduled) *)
  drain t;
  match t.overflow with
  | Some reason -> Error reason
  | None ->
    if Hashtbl.length t.in_delay > 0 then begin
      let stuck =
        Hashtbl.fold (fun id () acc -> string_of_int id :: acc) t.in_delay []
      in
      invalid_arg
        ("Smarq_alloc.finish: unallocated operations remain: "
        ^ String.concat "," stuck)
    end;
    let annots =
      Hashtbl.fold
        (fun id order acc ->
          let p = has_p t id and c = has_c t id in
          if p || c then begin
            match Hashtbl.find_opt t.alloc.C.base id with
            | Some base ->
              (id, Ir.Annot.queue ~offset:(order - base) ~p ~c) :: acc
            | None -> acc
          end
          else acc)
        t.alloc.C.order []
    in
    let amovs =
      List.rev_map
        (fun p ->
          let src_order = Hashtbl.find t.alloc.C.order p.p_src in
          let src_offset = src_order - p.p_base in
          let dst_offset =
            match p.p_dst with
            | None -> src_offset
            | Some d -> Hashtbl.find t.alloc.C.order d - p.p_base
          in
          {
            amov_id = p.p_amov_id;
            before = p.p_before;
            src_instr = p.p_src;
            dst_is_fresh = Option.is_some p.p_dst;
            src_offset;
            dst_offset;
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
      let max_offset =
        let from_annots =
          List.fold_left
            (fun acc (_, a) ->
              match a with
              | Ir.Annot.Queue { offset; _ } -> max acc offset
              | _ -> acc)
            (-1) annots
        in
        List.fold_left
          (fun acc (a : amov_insertion) ->
            max acc (max a.src_offset a.dst_offset))
          from_annots amovs
      in
      Ok
        {
          annots;
          rotations = List.rev t.rotations;
          amovs;
          max_offset;
          check_edges = List.rev t.check_edges;
          anti_edges = List.rev t.anti_edges;
          allocation = t.alloc;
        }
