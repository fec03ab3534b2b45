(* Test oracle for [Sched.List_sched]: the seed's list scheduler, moved
   here verbatim.  Every cycle it rescans the whole body for ready
   instructions, sorts them by (height desc, program position) and
   issues greedily under the issue-width, memory-port and one-branch
   limits, switching to non-speculation mode whenever the SMARQ
   allocator reports overflow risk.  The heap-based scheduler must
   reproduce its issue sequence exactly. *)

exception Unschedulable of string

(* The issue sequence: instruction ids in execution order, with the
   cycle each issued in. *)
type issued = {
  seq : (int * Ir.Instr.t) list;  (* reverse issue order: (cycle, instr) *)
  length : int;
}

(* Critical-path heights, the seed's memoized version moved here
   verbatim: map from instruction id to the longest latency-weighted
   path from it to any sink through the hard precedence edges.  The
   library computes the same heights by a reverse sweep over body
   positions; this shares no code with it. *)
let heights ~body ~hazards ~latency =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (i : Ir.Instr.t) -> Hashtbl.replace by_id i.id i) body;
  let memo = Hashtbl.create 64 in
  let rec height id =
    match Hashtbl.find_opt memo id with
    | Some h -> h
    | None ->
      (* mark to guard against accidental cycles (hard edges are acyclic
         by construction; a cycle here is a bug worth failing loudly) *)
      Hashtbl.replace memo id min_int;
      let lat =
        match Hashtbl.find_opt by_id id with
        | Some i -> latency i
        | None -> 1
      in
      let succ_best =
        List.fold_left
          (fun acc s ->
            let h = height s in
            if h = min_int then
              invalid_arg "Priority.heights: cycle in hard precedence edges"
            else max acc h)
          0
          (Sched.Hazards.succs hazards id)
      in
      let h = lat + succ_best in
      Hashtbl.replace memo id h;
      h
  in
  List.iter (fun (i : Ir.Instr.t) -> ignore (height i.id)) body;
  memo

(* The seed scheduler: rescan the whole body every cycle. *)
let schedule_core ~sb ~hazards ~heights ~issue_width ~mem_ports
    ~latency ~alloc =
  let body = Array.of_list sb.Ir.Superblock.body in
  let n = Array.length body in
  let by_id = Hashtbl.create (n * 2) in
  Array.iter (fun (i : Ir.Instr.t) -> Hashtbl.replace by_id i.id i) body;
  let position = Hashtbl.create (n * 2) in
  Array.iteri (fun idx (i : Ir.Instr.t) -> Hashtbl.replace position i.id idx)
    body;
  let scheduled_at = Hashtbl.create (n * 2) in
  let is_scheduled id = Hashtbl.mem scheduled_at id in
  (* memory ops in program order, for non-speculation mode *)
  let mem_ids_in_order =
    Array.to_list body
    |> List.filter Ir.Instr.is_memory
    |> List.map (fun (i : Ir.Instr.t) -> i.id)
  in
  let next_mem_index = ref 0 in
  let mem_ids_arr = Array.of_list mem_ids_in_order in
  let advance_next_mem () =
    while
      !next_mem_index < Array.length mem_ids_arr
      && is_scheduled mem_ids_arr.(!next_mem_index)
    do
      incr next_mem_index
    done
  in
  let earliest id =
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt scheduled_at p with
        | Some c ->
          let pi = Hashtbl.find by_id p in
          max acc (c + latency pi)
        | None -> max_int)
      0
      (Sched.Hazards.preds hazards id)
  in
  let height id = Option.value (Hashtbl.find_opt heights id) ~default:1 in
  let used_nonspec = ref false in
  let seq = ref [] in
  let remaining = ref n in
  let cycle = ref 0 in
  let stall_guard = ref 0 in
  while !remaining > 0 do
    let c = !cycle in
    (* non-speculation mode? *)
    let nonspec =
      match alloc with
      | Some a -> Sched.Smarq_alloc.overflow_risk a ~lookahead_p:2
      | None -> false
    in
    if nonspec then used_nonspec := true;
    advance_next_mem ();
    let mem_allowed id =
      if not nonspec then true
      else
        !next_mem_index < Array.length mem_ids_arr
        && mem_ids_arr.(!next_mem_index) = id
    in
    (* gather ready instructions *)
    let ready = ref [] in
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if (not (is_scheduled i.id)) && earliest i.id <= c then
          if Ir.Instr.is_memory i then begin
            if mem_allowed i.id then ready := i :: !ready
          end
          else ready := i :: !ready)
      body;
    let ready =
      List.sort
        (fun (a : Ir.Instr.t) (b : Ir.Instr.t) ->
          let c1 = Int.compare (height b.id) (height a.id) in
          if c1 <> 0 then c1
          else
            Int.compare
              (Hashtbl.find position a.id)
              (Hashtbl.find position b.id))
        !ready
    in
    let slots = ref issue_width and mslots = ref mem_ports in
    let branch_used = ref false in
    let issued_this_cycle = ref 0 in
    List.iter
      (fun (i : Ir.Instr.t) ->
        let is_mem = Ir.Instr.is_memory i in
        let is_br = Ir.Instr.is_branch i in
        if
          !slots > 0
          && ((not is_mem) || !mslots > 0)
          && ((not is_br) || not !branch_used)
        then begin
          (* issue *)
          Hashtbl.replace scheduled_at i.id c;
          decr slots;
          if is_mem then begin
            decr mslots;
            match alloc with
            | Some a -> Sched.Smarq_alloc.on_schedule a i
            | None -> ()
          end;
          if is_br then branch_used := true;
          seq := (c, i) :: !seq;
          decr remaining;
          incr issued_this_cycle;
          if is_mem && nonspec then advance_next_mem ()
        end)
      ready;
    if !issued_this_cycle = 0 then begin
      incr stall_guard;
      if !stall_guard > n + 1000 then
        raise
          (Unschedulable
             (Printf.sprintf
                "no progress at cycle %d with %d instructions remaining" c
                !remaining))
    end
    else stall_guard := 0;
    incr cycle
  done;
  let length =
    1 + List.fold_left (fun acc (c, _) -> max acc c) 0 !seq
  in
  ({ seq = !seq; length }, !used_nonspec)

(* The issue sequence the oracle schedules for [sb] over [hazards],
   with its own SMARQ allocator when the policy uses the queue scheme.
   [fresh_id] only names AMOV pseudo-ops; any value above the body's
   ids gives the same decisions. *)
let issue_seq ~sb ~deps ~hazards ~policy ~issue_width ~mem_ports ~latency =
  let body = sb.Ir.Superblock.body in
  let heights = heights ~body ~hazards ~latency in
  let alloc =
    match policy.Sched.Policy.scheme with
    | Sched.Policy.Queue_scheme ->
      Some
        (Sched.Smarq_alloc.create ~body ~deps
           ~ar_count:policy.Sched.Policy.ar_count
           ~fresh_id:(ref (Ir.Superblock.max_instr_id sb + 1)))
    | Sched.Policy.Naive_queue_scheme | Sched.Policy.Mask_scheme
    | Sched.Policy.Alat_scheme | Sched.Policy.No_scheme ->
      None
  in
  let issued, _ =
    schedule_core ~sb ~hazards ~heights ~issue_width ~mem_ports ~latency
      ~alloc
  in
  List.rev issued.seq
