type stats = {
  schedule_length : int;
  instr_count : int;
  mem_ops : int;
  p_bits : int;
  c_bits : int;
  check_constraints : int;
  anti_constraints : int;
  amov_fresh : int;
  amov_clear : int;
  ar_working_set : int;
  dropped_pairs : int;
  used_nonspec_mode : bool;
}

type outcome = {
  region : Ir.Region.t;
  alloc_result : Smarq_alloc.result option;
  stats : stats;
  hazards : Hazards.t;
  issue_pos : int array;
  issue_cycle : int array;
}

type failure =
  | Out_of_alias_registers of {
      scheme : Policy.annot_scheme;
      detail : string;
    }

let failure_to_string = function
  | Out_of_alias_registers { scheme; detail } ->
    let component =
      match scheme with
      | Policy.Queue_scheme -> "Smarq_alloc"
      | Policy.Naive_queue_scheme -> "Naive_alloc"
      | Policy.Mask_scheme -> "Mask_alloc"
      | Policy.Alat_scheme -> "Alat_annot"
      | Policy.No_scheme -> "no alias scheme"
    in
    Printf.sprintf "%s: %s" component detail

(* The issue sequence in issue order: the [k]-th issued instruction is
   body position [pos.(k)], issued in cycle [cycle.(k)], for
   [k < count].  Cycles never decrease along the sequence. *)
type issued = {
  cycle : int array;
  pos : int array;
  count : int;
  length : int;  (* schedule length in cycles *)
}

(* Binary max-heap over packed int priorities, with a parallel payload
   array of body positions.  Entries are never removed eagerly: a
   popped-or-stale entry is recognized by its position being scheduled
   (lazy deletion, needed because non-speculation mode can issue a
   memory op that also sits in the memory heap). *)
module Heap = struct
  type h = {
    mutable prio : int array;
    mutable pos : int array;
    mutable size : int;
  }

  let create () = { prio = Array.make 16 0; pos = Array.make 16 0; size = 0 }

  let swap h i j =
    let p = h.prio.(i) and x = h.pos.(i) in
    h.prio.(i) <- h.prio.(j);
    h.pos.(i) <- h.pos.(j);
    h.prio.(j) <- p;
    h.pos.(j) <- x

  let push h prio pos =
    if h.size = Array.length h.prio then begin
      let cap = 2 * h.size in
      let np = Array.make cap 0 and nx = Array.make cap 0 in
      Array.blit h.prio 0 np 0 h.size;
      Array.blit h.pos 0 nx 0 h.size;
      h.prio <- np;
      h.pos <- nx
    end;
    let i = ref h.size in
    h.prio.(!i) <- prio;
    h.pos.(!i) <- pos;
    h.size <- h.size + 1;
    let up = ref true in
    while !up && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.prio.(parent) < h.prio.(!i) then begin
        swap h parent !i;
        i := parent
      end
      else up := false
    done

  let pop h =
    let top = h.pos.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prio.(0) <- h.prio.(h.size);
      h.pos.(0) <- h.pos.(h.size);
      let i = ref 0 in
      let down = ref true in
      while !down do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.size && h.prio.(l) > h.prio.(!best) then best := l;
        if r < h.size && h.prio.(r) > h.prio.(!best) then best := r;
        if !best <> !i then begin
          swap h !i !best;
          i := !best
        end
        else down := false
      done
    end;
    top
end

(* Critical-path heights by body position: the longest
   latency-weighted path from an instruction to any sink through the
   hazard edges; the list scheduler picks ready instructions of
   greatest height first, the classic heuristic for in-order VLIW
   scheduling.  Every hazard edge points forward in body position, so
   one reverse sweep sees each successor's height before it is needed;
   a backward edge would be a builder bug and fails loudly. *)
let heights_of ~(hazards : Hazards.t) lat =
  let n = Array.length lat in
  let h = Array.make n 0 in
  for p = n - 1 downto 0 do
    let best = ref 0 in
    for x = hazards.succ_start.(p) to hazards.succ_start.(p + 1) - 1 do
      let s = hazards.succ.(x) in
      if s <= p then
        invalid_arg "List_sched.heights: hazard edge does not point forward";
      if h.(s) > !best then best := h.(s)
    done;
    h.(p) <- lat.(p) + !best
  done;
  h

let heights ~body ~hazards ~latency =
  heights_of ~hazards (Array.of_list (List.map latency body))

(* Scheduler state, made once per region.  Release buckets are int
   linked lists indexed by cycle ([bucket_head], grown on demand, and
   [bucket_next] per position, newest first); the per-cycle resource
   counters and the non-speculation-mode memory candidate are mutable
   fields, so a cycle allocates nothing. *)
type state = {
  body : Ir.Instr.t array;
  lat : int array;
  prio : int array;
  is_mem : bool array;
  is_br : bool array;
  hz : Hazards.t;
  indeg : int array;
  scheduled : bool array;
  ready_at : int array;
  relmax : int array;
  mutable bucket_head : int array;
  bucket_next : int array;
  mem_pos : int array;  (* memory-op positions in program order *)
  mutable next_mem : int;  (* index into [mem_pos] of the oldest unissued *)
  mem_h : Heap.h;
  br_h : Heap.h;
  plain_h : Heap.h;
  alloc : Smarq_alloc.t option;
  out_cycle : int array;
  out_pos : int array;
  mutable count : int;
  mutable nonspec : bool;
  mutable nonspec_mem : int;  (* -1: none *)
  mutable slots : int;
  mutable mslots : int;
  mutable branch_used : bool;
}

let push_bucket st c p =
  let len = Array.length st.bucket_head in
  if c >= len then begin
    let bigger = Array.make (Int.max (2 * len) (c + 1)) (-1) in
    Array.blit st.bucket_head 0 bigger 0 len;
    st.bucket_head <- bigger
  end;
  st.bucket_next.(p) <- st.bucket_head.(c);
  st.bucket_head.(c) <- p

let advance_next_mem st =
  while
    st.next_mem < Array.length st.mem_pos
    && st.scheduled.(st.mem_pos.(st.next_mem))
  do
    st.next_mem <- st.next_mem + 1
  done

let clean st (h : Heap.h) =
  while h.Heap.size > 0 && st.scheduled.(h.Heap.pos.(0)) do
    ignore (Heap.pop h)
  done

let issue st c p =
  st.scheduled.(p) <- true;
  st.slots <- st.slots - 1;
  if st.is_mem.(p) then begin
    st.mslots <- st.mslots - 1;
    (match st.alloc with
    | Some a -> Smarq_alloc.on_schedule a p
    | None -> ());
    if st.nonspec then begin
      advance_next_mem st;
      st.nonspec_mem <- -1
    end
  end;
  if st.is_br.(p) then st.branch_used <- true;
  st.out_cycle.(st.count) <- c;
  st.out_pos.(st.count) <- p;
  st.count <- st.count + 1;
  let hz = st.hz in
  for x = hz.Hazards.succ_start.(p) to hz.Hazards.succ_start.(p + 1) - 1 do
    let s = hz.Hazards.succ.(x) in
    st.relmax.(s) <- Int.max st.relmax.(s) (c + st.lat.(p));
    st.indeg.(s) <- st.indeg.(s) - 1;
    if st.indeg.(s) = 0 then begin
      st.ready_at.(s) <- st.relmax.(s);
      push_bucket st st.relmax.(s) s
    end
  done

(* The highest-priority candidate the remaining resources admit: the
   best of the heap tops whose class still has capacity (in
   non-speculation mode, the fixed memory candidate instead of the
   memory heap), or -1. *)
let best_candidate st =
  clean st st.plain_h;
  if not st.branch_used then clean st st.br_h;
  if (not st.nonspec) && st.mslots > 0 then clean st st.mem_h;
  let best = ref (-1) and best_prio = ref min_int in
  if st.plain_h.Heap.size > 0 then begin
    best_prio := st.plain_h.Heap.prio.(0);
    best := st.plain_h.Heap.pos.(0)
  end;
  if (not st.branch_used) && st.br_h.Heap.size > 0
     && st.br_h.Heap.prio.(0) > !best_prio
  then begin
    best_prio := st.br_h.Heap.prio.(0);
    best := st.br_h.Heap.pos.(0)
  end;
  if st.mslots > 0 then begin
    if st.nonspec then begin
      let p = st.nonspec_mem in
      if p >= 0 && st.prio.(p) > !best_prio then best := p
    end
    else if st.mem_h.Heap.size > 0 && st.mem_h.Heap.prio.(0) > !best_prio then
      best := st.mem_h.Heap.pos.(0)
  end;
  !best

(* Incremental ready-set scheduler.  Each cycle makes the decisions of
   the textbook per-cycle scan (gather every instruction whose
   predecessors have issued and whose latencies have elapsed, sort by
   (height desc, program position), issue greedily under the resource
   limits) without rescanning the body:

   - indegree counters over the hazard graph replace the [earliest]
     recomputation: an instruction's release cycle is finalized when
     its last predecessor issues (max over preds of issue + latency,
     always in the future since latencies are >= 1), and release
     buckets indexed by cycle feed three class heaps (memory / branch /
     other) keyed by (height, program position) — heights first,
     original position breaking ties, a total order because positions
     are unique;
   - issuing greedily from the merged heap tops under the slot /
     memory-port / one-branch limits reproduces the walk of the sorted
     ready list exactly, because resources only shrink
     within a cycle: the next instruction the walk would accept is
     always the highest-priority top whose class still has capacity;
   - in non-speculation mode the memory heap is bypassed — the only
     admissible memory candidate is the next program-order memory op,
     checked directly (and at most one issues per cycle, since the
     scan gathers ready candidates before issuing).

   Reads the hazard rows in place and allocates per region, not per
   edge or per cycle.  Stops early once the SMARQ allocator has
   overflowed: the schedule will be discarded.  Raises
   [Invalid_argument] when no instruction issues for [n + 1000]
   cycles: every hazard edge points forward, so a stall is a bug, not
   a reason to fall back. *)
let schedule_core ~body ~hazards ~issue_width ~mem_ports ~latency
    ~alloc =
  let n = Array.length body in
  if n = 0 then ({ cycle = [||]; pos = [||]; count = 0; length = 1 }, false)
  else begin
    let lat = Array.map latency body in
    let height = heights_of ~hazards lat in
    let is_mem = Array.map Ir.Instr.is_memory body in
    let mem_pos =
      Array.make (Array.fold_left (fun k m -> if m then k + 1 else k) 0 is_mem) 0
    in
    let k = ref 0 in
    Array.iteri
      (fun p m ->
        if m then begin
          mem_pos.(!k) <- p;
          incr k
        end)
      is_mem;
    let st =
      {
        body;
        lat;
        prio = Array.init n (fun p -> (height.(p) * (n + 1)) + (n - 1 - p));
        is_mem;
        is_br = Array.map Ir.Instr.is_branch body;
        hz = hazards;
        indeg =
          Array.init n (fun p ->
              hazards.Hazards.pred_start.(p + 1) - hazards.Hazards.pred_start.(p));
        scheduled = Array.make n false;
        ready_at = Array.make n (-1);
        relmax = Array.make n 0;
        bucket_head = Array.make (2 * n) (-1);
        bucket_next = Array.make n (-1);
        mem_pos;
        next_mem = 0;
        mem_h = Heap.create ();
        br_h = Heap.create ();
        plain_h = Heap.create ();
        alloc;
        out_cycle = Array.make n 0;
        out_pos = Array.make n 0;
        count = 0;
        nonspec = false;
        nonspec_mem = -1;
        slots = 0;
        mslots = 0;
        branch_used = false;
      }
    in
    for p = 0 to n - 1 do
      if st.indeg.(p) = 0 then begin
        st.ready_at.(p) <- 0;
        push_bucket st 0 p
      end
    done;
    let used_nonspec = ref false in
    let cycle = ref 0 in
    let stall_guard = ref 0 in
    let overflowed () =
      match alloc with Some a -> Smarq_alloc.overflowed a | None -> false
    in
    while st.count < n && not (overflowed ()) do
      let c = !cycle in
      if c < Array.length st.bucket_head then begin
        let p = ref st.bucket_head.(c) in
        st.bucket_head.(c) <- -1;
        while !p >= 0 do
          let h =
            if st.is_mem.(!p) then st.mem_h
            else if st.is_br.(!p) then st.br_h
            else st.plain_h
          in
          Heap.push h st.prio.(!p) !p;
          p := st.bucket_next.(!p)
        done
      end;
      st.nonspec <-
        (match alloc with
        | Some a -> Smarq_alloc.overflow_risk a ~lookahead_p:2
        | None -> false);
      if st.nonspec then used_nonspec := true;
      advance_next_mem st;
      (* the single admissible memory candidate under non-speculation
         mode, fixed at cycle start exactly like the scan's gather *)
      st.nonspec_mem <-
        (if (not st.nonspec) || st.next_mem >= Array.length mem_pos then -1
         else
           let p = mem_pos.(st.next_mem) in
           if st.ready_at.(p) >= 0 && st.ready_at.(p) <= c then p else -1);
      st.slots <- issue_width;
      st.mslots <- mem_ports;
      st.branch_used <- false;
      let issued_before = st.count in
      let progress = ref true in
      while !progress && st.slots > 0 do
        let p = best_candidate st in
        if p < 0 then progress := false
        else begin
          (* pop the winner from its own heap; a non-speculation-mode
             memory winner stays in the heap and is lazily dropped *)
          (if st.is_mem.(p) then begin
             if not st.nonspec then ignore (Heap.pop st.mem_h)
           end
           else if st.is_br.(p) then ignore (Heap.pop st.br_h)
           else ignore (Heap.pop st.plain_h));
          issue st c p
        end
      done;
      if st.count = issued_before then begin
        incr stall_guard;
        if !stall_guard > n + 1000 then
          invalid_arg
            (Printf.sprintf
               "List_sched: no progress at cycle %d with %d instructions remaining"
               c (n - st.count))
      end
      else stall_guard := 0;
      incr cycle
    done;
    let length =
      if st.count = 0 then 1 else 1 + st.out_cycle.(st.count - 1)
    in
    ( { cycle = st.out_cycle; pos = st.out_pos; count = st.count; length },
      !used_nonspec )
  end

(* Materialize the issue sequence into bundles, splicing in AMOV and
   Rotate instructions and applying annotations.  Annotations and
   rotation amounts come by body position ([No_annot] and 0 leave an
   instruction alone; an empty array stands for all of them), AMOVs with
   the body position of their anchor.  The walk goes back to front,
   consing each bundle's list once: AMOVs per anchor are an int linked
   list over the insertion array, newest first, and Rotate ids are
   numbered up front so they still count up in issue order. *)
let materialize ~body ~(issued : issued) ~annots ~rotations ~amovs ~fresh_id =
  let n = Array.length body in
  let annot_of p = if Array.length annots = 0 then Ir.Annot.none else annots.(p) in
  let rot p = if Array.length rotations = 0 then 0 else rotations.(p) in
  let amov_arr = Array.of_list amovs in
  let amov_head = Array.make (if amov_arr = [||] then 0 else n) (-1) in
  let amov_next = Array.make (Array.length amov_arr) (-1) in
  Array.iteri
    (fun x (a : Smarq_alloc.amov_insertion) ->
      let p = a.before_pos in
      amov_next.(x) <- amov_head.(p);
      amov_head.(p) <- x)
    amov_arr;
  let rotates = ref 0 in
  for k = 0 to issued.count - 1 do
    if rot issued.pos.(k) > 0 then incr rotates
  done;
  let first_rotate_id = !fresh_id in
  fresh_id := first_rotate_id + !rotates;
  let bundles = Array.make issued.length [] in
  let push cycle instr = bundles.(cycle) <- instr :: bundles.(cycle) in
  for k = issued.count - 1 downto 0 do
    let cycle = issued.cycle.(k) and p = issued.pos.(k) in
    if rot p > 0 then begin
      decr rotates;
      push cycle
        (Ir.Instr.make ~id:(first_rotate_id + !rotates) (Ir.Instr.Rotate (rot p)))
    end;
    let i = body.(p) in
    push cycle
      (match annot_of p with
      | Ir.Annot.No_annot -> i
      | a -> Ir.Instr.with_annot i a);
    (* AMOVs go just before their anchor, same cycle *)
    if amov_arr <> [||] then begin
      let x = ref amov_head.(p) in
      while !x >= 0 do
        let a = amov_arr.(!x) in
        push cycle
          (Ir.Instr.make ~id:a.amov_id
             (Ir.Instr.Amov { src_offset = a.src_offset; dst_offset = a.dst_offset }));
        x := amov_next.(!x)
      done
    end
  done;
  bundles

let schedule ~sb ~deps ~policy ~issue_width ~mem_ports ~latency ~fresh_id
    ?(extra_assumed = []) ?profile ?arena () =
  let ( let* ) = Result.bind in
  let hazards =
    Profile.time profile Profile.add_hazards (fun () ->
        Hazards.build ~sb ~deps ~policy ?arena ())
  in
  let body = Array.of_list sb.Ir.Superblock.body in
  let alloc =
    Profile.time profile Profile.add_alloc (fun () ->
        match policy.Policy.scheme with
        | Policy.Queue_scheme ->
          Some
            (Smarq_alloc.create ~hazards ~deps ~ar_count:policy.Policy.ar_count
               ~fresh_id ?arena ())
        | Policy.Naive_queue_scheme | Policy.Mask_scheme | Policy.Alat_scheme
        | Policy.No_scheme ->
          None)
  in
  let issued, used_nonspec =
    Profile.time profile Profile.add_sched (fun () ->
        schedule_core ~body ~hazards ~issue_width ~mem_ports ~latency
          ~alloc)
  in
  let out_of_registers r =
    Result.map_error
      (fun detail ->
        Out_of_alias_registers { scheme = policy.Policy.scheme; detail })
      r
  in
  let* alloc_result =
    Profile.time profile Profile.add_alloc (fun () ->
        match alloc with
        | Some a ->
          out_of_registers (Result.map Option.some (Smarq_alloc.finish a))
        | None -> Ok None)
  in
  Profile.time profile Profile.add_emit @@ fun () ->
  let issue = issued.pos and ar_count = policy.Policy.ar_count in
  (* the scheme's annotations, rotations and AMOVs, by body position *)
  let* annots, rotations, amovs, max_offset =
    out_of_registers
      (match policy.Policy.scheme, alloc_result with
      | Policy.Queue_scheme, Some r ->
        Ok (r.Smarq_alloc.annots, r.Smarq_alloc.rotations, r.Smarq_alloc.amovs,
            r.Smarq_alloc.max_offset)
      | (Policy.Queue_scheme | Policy.No_scheme), _ -> Ok ([||], [||], [], -1)
      | Policy.Alat_scheme, _ ->
        Result.map
          (fun annots -> (annots, [||], [], -1))
          (Alat_annot.annotate ~body ~deps ~hazards ~issue ~ar_count)
      | Policy.Mask_scheme, _ ->
        Result.map
          (fun annots ->
            let max_set = ref (-1) in
            Array.iter
              (function
                | Ir.Annot.Mask { set_index = Some i; _ } ->
                  if i > !max_set then max_set := i
                | _ -> ())
              annots;
            (annots, [||], [], !max_set))
          (Mask_alloc.annotate ~deps ~hazards ~issue ~ar_count)
      | Policy.Naive_queue_scheme, _ ->
        Result.map
          (fun (r : Naive_alloc.result) ->
            (r.Naive_alloc.annots, r.Naive_alloc.rotations, [],
             r.Naive_alloc.max_offset))
          (Naive_alloc.annotate ~body ~issue ~ar_count))
  in
  let bundles =
    materialize ~body ~issued ~annots ~rotations ~amovs ~fresh_id
  in
  let assumed =
    Analysis.Pair_key.union hazards.Hazards.dropped
      (Analysis.Pair_key.of_pairs extra_assumed)
  in
  let region =
    Ir.Region.make ~entry:sb.Ir.Superblock.entry ~bundles
      ~final_exit:sb.Ir.Superblock.final_exit ~ar_window:(max_offset + 1)
      ~assumed_no_alias:assumed ~source:sb ()
  in
  let mem_ops = ref 0 in
  Array.iter (fun i -> if Ir.Instr.is_memory i then incr mem_ops) body;
  let p_bits, c_bits, checks, antis, amov_fresh, amov_clear =
    match alloc_result with
    | Some r ->
      let fresh = ref 0 and clear = ref 0 in
      List.iter
        (fun (a : Smarq_alloc.amov_insertion) ->
          if a.dst_is_fresh then incr fresh else incr clear)
        r.Smarq_alloc.amovs;
      ( r.Smarq_alloc.p_bits,
        r.Smarq_alloc.c_bits,
        Array.length r.Smarq_alloc.checks / 2,
        Array.length r.Smarq_alloc.antis / 2,
        !fresh,
        !clear )
    | None -> (0, 0, 0, 0, 0, 0)
  in
  let stats =
    {
      schedule_length = issued.length;
      instr_count = Ir.Superblock.instr_count sb;
      mem_ops = !mem_ops;
      p_bits;
      c_bits;
      check_constraints = checks;
      anti_constraints = antis;
      amov_fresh;
      amov_clear;
      ar_working_set = max_offset + 1;
      dropped_pairs = Array.length hazards.Hazards.dropped;
      used_nonspec_mode = used_nonspec;
    }
  in
  Ok { region; alloc_result; stats; hazards; issue_pos = issued.pos; issue_cycle = issued.cycle }
