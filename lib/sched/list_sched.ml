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
  issue_seq : (int * Ir.Instr.t) list;
}

type failure =
  | Out_of_alias_registers of {
      scheme : Policy.annot_scheme;
      detail : string;
    }
  | Stalled of {
      cycle : int;
      remaining : int;
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
  | Stalled { cycle; remaining } ->
    Printf.sprintf
      "List_sched: no progress at cycle %d with %d instructions remaining"
      cycle remaining

(* The issue sequence: instruction ids in execution order, with the
   cycle each issued in. *)
type issued = {
  seq : (int * Ir.Instr.t) list;  (* reverse issue order: (cycle, instr) *)
  length : int;
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

   Stops early once the SMARQ allocator has overflowed: the schedule
   will be discarded. *)
let schedule_core ~sb ~hazards ~heights ~issue_width ~mem_ports ~latency
    ~alloc =
  let body = Array.of_list sb.Ir.Superblock.body in
  let n = Array.length body in
  if n = 0 then Ok ({ seq = []; length = 1 }, false)
  else begin
    let lat = Array.map latency body in
    let height = Array.make n 1 in
    Array.iteri
      (fun p (i : Ir.Instr.t) ->
        height.(p) <-
          Option.value (Hashtbl.find_opt heights i.id) ~default:1)
      body;
    (* hazard adjacency re-indexed by body position *)
    let index = hazards.Hazards.index in
    let succs_pos = Array.make n [] in
    let indeg = Array.make n 0 in
    for p = 0 to n - 1 do
      succs_pos.(p) <-
        List.map (fun id -> Hashtbl.find index id) hazards.Hazards.succs_of.(p);
      indeg.(p) <- List.length hazards.Hazards.preds_of.(p)
    done;
    let is_mem_p = Array.map Ir.Instr.is_memory body in
    let is_br_p = Array.map Ir.Instr.is_branch body in
    let prio p = (height.(p) * (n + 1)) + (n - 1 - p) in
    let scheduled = Array.make n false in
    let ready_at = Array.make n (-1) in
    let relmax = Array.make n 0 in
    let buckets : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let push_bucket c p =
      Hashtbl.replace buckets c
        (p :: Option.value (Hashtbl.find_opt buckets c) ~default:[])
    in
    for p = 0 to n - 1 do
      if indeg.(p) = 0 then begin
        ready_at.(p) <- 0;
        push_bucket 0 p
      end
    done;
    let mem_pos = ref [] in
    for p = n - 1 downto 0 do
      if is_mem_p.(p) then mem_pos := p :: !mem_pos
    done;
    let mem_pos_arr = Array.of_list !mem_pos in
    let next_mem_index = ref 0 in
    let advance_next_mem () =
      while
        !next_mem_index < Array.length mem_pos_arr
        && scheduled.(mem_pos_arr.(!next_mem_index))
      do
        incr next_mem_index
      done
    in
    let mem_h = Heap.create ()
    and br_h = Heap.create ()
    and plain_h = Heap.create () in
    let clean h =
      while h.Heap.size > 0 && scheduled.(h.Heap.pos.(0)) do
        ignore (Heap.pop h)
      done
    in
    let used_nonspec = ref false in
    let seq = ref [] in
    let remaining = ref n in
    let cycle = ref 0 in
    let stall_guard = ref 0 in
    let stalled = ref None in
    let alloc_overflowed () =
      match alloc with Some a -> Smarq_alloc.overflowed a | None -> false
    in
    while !remaining > 0 && !stalled = None && not (alloc_overflowed ()) do
      let c = !cycle in
      (match Hashtbl.find_opt buckets c with
      | Some l ->
        Hashtbl.remove buckets c;
        List.iter
          (fun p ->
            let h =
              if is_mem_p.(p) then mem_h
              else if is_br_p.(p) then br_h
              else plain_h
            in
            Heap.push h (prio p) p)
          l
      | None -> ());
      let nonspec =
        match alloc with
        | Some a -> Smarq_alloc.overflow_risk a ~lookahead_p:2
        | None -> false
      in
      if nonspec then used_nonspec := true;
      advance_next_mem ();
      (* the single admissible memory candidate under non-speculation
         mode, fixed at cycle start exactly like the scan's gather *)
      let nonspec_mem =
        ref
          (if not nonspec then None
           else if !next_mem_index >= Array.length mem_pos_arr then None
           else
             let p = mem_pos_arr.(!next_mem_index) in
             if ready_at.(p) >= 0 && ready_at.(p) <= c then Some p else None)
      in
      let slots = ref issue_width and mslots = ref mem_ports in
      let branch_used = ref false in
      let issued_this_cycle = ref 0 in
      let issue p =
        scheduled.(p) <- true;
        let i = body.(p) in
        decr slots;
        if is_mem_p.(p) then begin
          decr mslots;
          (match alloc with
          | Some a -> Smarq_alloc.on_schedule a i
          | None -> ());
          if nonspec then begin
            advance_next_mem ();
            nonspec_mem := None
          end
        end;
        if is_br_p.(p) then branch_used := true;
        seq := (c, i) :: !seq;
        decr remaining;
        incr issued_this_cycle;
        List.iter
          (fun s ->
            relmax.(s) <- max relmax.(s) (c + lat.(p));
            indeg.(s) <- indeg.(s) - 1;
            if indeg.(s) = 0 then begin
              ready_at.(s) <- relmax.(s);
              push_bucket relmax.(s) s
            end)
          succs_pos.(p)
      in
      let progress = ref true in
      while !progress && !slots > 0 do
        clean plain_h;
        if not !branch_used then clean br_h;
        if (not nonspec) && !mslots > 0 then clean mem_h;
        let best_prio = ref min_int and best = ref (-1) in
        let consider h =
          if h.Heap.size > 0 && h.Heap.prio.(0) > !best_prio then begin
            best_prio := h.Heap.prio.(0);
            best := h.Heap.pos.(0)
          end
        in
        consider plain_h;
        if not !branch_used then consider br_h;
        if !mslots > 0 then begin
          if nonspec then (
            match !nonspec_mem with
            | Some p when prio p > !best_prio ->
              best_prio := prio p;
              best := p
            | _ -> ())
          else consider mem_h
        end;
        if !best < 0 then progress := false
        else begin
          let p = !best in
          (* pop the winner from its own heap; a non-speculation-mode
             memory winner stays in the heap and is lazily dropped *)
          (if is_mem_p.(p) then begin
             if not nonspec then ignore (Heap.pop mem_h)
           end
           else if is_br_p.(p) then ignore (Heap.pop br_h)
           else ignore (Heap.pop plain_h));
          issue p
        end
      done;
      if !issued_this_cycle = 0 then begin
        incr stall_guard;
        if !stall_guard > n + 1000 then
          stalled := Some (Stalled { cycle = c; remaining = !remaining })
      end
      else stall_guard := 0;
      incr cycle
    done;
    match !stalled with
    | Some f -> Error f
    | None ->
      let length = 1 + List.fold_left (fun acc (c, _) -> max acc c) 0 !seq in
      Ok ({ seq = !seq; length }, !used_nonspec)
  end

(* Materialize the issue sequence into bundles, splicing in AMOV and
   Rotate instructions and applying annotations. *)
let materialize ~issued ~annots ~rotations ~amovs ~fresh_id =
  let annot_tbl = Hashtbl.create 64 in
  List.iter (fun (id, a) -> Hashtbl.replace annot_tbl id a) annots;
  let rot_tbl = Hashtbl.create 16 in
  List.iter
    (fun (id, k) ->
      let cur = Option.value (Hashtbl.find_opt rot_tbl id) ~default:0 in
      Hashtbl.replace rot_tbl id (cur + k))
    rotations;
  let amov_tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : Smarq_alloc.amov_insertion) ->
      let cur = Option.value (Hashtbl.find_opt amov_tbl a.before) ~default:[] in
      Hashtbl.replace amov_tbl a.before (a :: cur))
    amovs;
  let bundles_tbl = Hashtbl.create 64 in
  let push cycle instr =
    let l = Option.value (Hashtbl.find_opt bundles_tbl cycle) ~default:[] in
    Hashtbl.replace bundles_tbl cycle (instr :: l)
  in
  (* walk in issue order *)
  List.iter
    (fun (cycle, (i : Ir.Instr.t)) ->
      (* AMOVs scheduled just before their anchor, same cycle *)
      (match Hashtbl.find_opt amov_tbl i.id with
      | Some l ->
        List.iter
          (fun (a : Smarq_alloc.amov_insertion) ->
            push cycle
              (Ir.Instr.make ~id:a.amov_id
                 (Ir.Instr.Amov
                    { src_offset = a.src_offset; dst_offset = a.dst_offset })))
          (List.rev l)
      | None -> ());
      let i =
        match Hashtbl.find_opt annot_tbl i.id with
        | Some a -> Ir.Instr.with_annot i a
        | None -> i
      in
      push cycle i;
      match Hashtbl.find_opt rot_tbl i.id with
      | Some k when k > 0 ->
        let id = !fresh_id in
        incr fresh_id;
        push cycle (Ir.Instr.make ~id (Ir.Instr.Rotate k))
      | Some _ | None -> ())
    (List.rev issued.seq);
  Array.init issued.length (fun c ->
      List.rev (Option.value (Hashtbl.find_opt bundles_tbl c) ~default:[]))

let schedule ~sb ~deps ~policy ~issue_width ~mem_ports ~latency ~fresh_id
    ?(extra_assumed = []) ?profile ?arena () =
  let ( let* ) = Result.bind in
  let hazards, heights =
    Profile.time profile Profile.add_hazards (fun () ->
        let hazards = Hazards.build ~sb ~deps ~policy ?arena () in
        let heights =
          Priority.heights ~body:sb.Ir.Superblock.body ~hazards ~latency
        in
        (hazards, heights))
  in
  let alloc =
    Profile.time profile Profile.add_alloc (fun () ->
        match policy.Policy.scheme with
        | Policy.Queue_scheme ->
          Some
            (Smarq_alloc.create ~body:sb.Ir.Superblock.body ~deps
               ~ar_count:policy.Policy.ar_count ~fresh_id)
        | Policy.Naive_queue_scheme | Policy.Mask_scheme | Policy.Alat_scheme
        | Policy.No_scheme ->
          None)
  in
  let* issued, used_nonspec =
    Profile.time profile Profile.add_sched (fun () ->
        schedule_core ~sb ~hazards ~heights ~issue_width ~mem_ports ~latency
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
  let issue_seq = List.rev issued.seq in
  let annots, rotations, amovs =
    match alloc_result with
    | Some r -> (r.Smarq_alloc.annots, r.Smarq_alloc.rotations, r.Smarq_alloc.amovs)
    | None -> ([], [], [])
  in
  (* scheme-specific annotation post-passes *)
  let* annots, rotations, naive_max_offset =
    out_of_registers
      (match policy.Policy.scheme with
      | Policy.Queue_scheme | Policy.No_scheme -> Ok (annots, rotations, None)
      | Policy.Alat_scheme ->
        Result.map
          (fun annots -> (annots, rotations, None))
          (Alat_annot.annotate ~sb ~deps ~hazards ~issue_order:issue_seq
             ~ar_count:policy.Policy.ar_count)
      | Policy.Mask_scheme ->
        Result.map
          (fun annots -> (annots, rotations, None))
          (Mask_alloc.annotate ~deps ~hazards ~issue_order:issue_seq
             ~ar_count:policy.Policy.ar_count)
      | Policy.Naive_queue_scheme ->
        Result.map
          (fun (r : Naive_alloc.result) ->
            (r.Naive_alloc.annots, r.Naive_alloc.rotations,
             Some r.Naive_alloc.max_offset))
          (Naive_alloc.annotate ~body:sb.Ir.Superblock.body
             ~issue_order:issue_seq ~ar_count:policy.Policy.ar_count))
  in
  let bundles = materialize ~issued ~annots ~rotations ~amovs ~fresh_id in
  let max_offset =
    match alloc_result, naive_max_offset with
    | Some r, _ -> r.Smarq_alloc.max_offset
    | None, Some m -> m
    | None, None ->
      List.fold_left
        (fun acc (_, a) ->
          match a with
          | Ir.Annot.Mask { set_index = Some i; _ } -> max acc i
          | _ -> acc)
        (-1) annots
  in
  let assumed = Hazards.(hazards.dropped) @ extra_assumed in
  let region =
    Ir.Region.make ~entry:sb.Ir.Superblock.entry ~bundles
      ~final_exit:sb.Ir.Superblock.final_exit ~ar_window:(max_offset + 1)
      ~assumed_no_alias:assumed ~source:sb ()
  in
  let mem_ops = List.length (Ir.Superblock.memory_ops sb) in
  let p_bits, c_bits, checks, antis, amov_fresh, amov_clear =
    match alloc_result with
    | Some r ->
      ( Hashtbl.length r.Smarq_alloc.allocation.Analysis.Constraints.p_bit,
        Hashtbl.length r.Smarq_alloc.allocation.Analysis.Constraints.c_bit,
        List.length r.Smarq_alloc.check_edges,
        List.length r.Smarq_alloc.anti_edges,
        List.length
          (List.filter
             (fun (a : Smarq_alloc.amov_insertion) -> a.dst_is_fresh)
             r.Smarq_alloc.amovs),
        List.length
          (List.filter
             (fun (a : Smarq_alloc.amov_insertion) -> not a.dst_is_fresh)
             r.Smarq_alloc.amovs) )
    | None -> (0, 0, 0, 0, 0, 0)
  in
  let stats =
    {
      schedule_length = issued.length;
      instr_count = Ir.Superblock.instr_count sb;
      mem_ops;
      p_bits;
      c_bits;
      check_constraints = checks;
      anti_constraints = antis;
      amov_fresh;
      amov_clear;
      ar_working_set = max_offset + 1;
      dropped_pairs = List.length Hazards.(hazards.dropped);
      used_nonspec_mode = used_nonspec;
    }
  in
  Ok { region; alloc_result; stats; hazards; issue_seq }
