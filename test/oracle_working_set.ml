(* Figure 17's working set as it was measured before it went by
   position: issue positions from an id table over the region's
   instructions, the id-keyed allocation view's check edges, and a
   sorted event list for the live-range peak. *)

module C = Analysis.Constraints

let live_range_peak ~issue_pos ~check_edges =
  let last_use = Hashtbl.create 32 in
  List.iter
    (fun (e : C.edge) ->
      match (issue_pos e.C.first, issue_pos e.C.second) with
      | Some px, Some py ->
        let cur = Option.value (Hashtbl.find_opt last_use e.C.second) ~default:py in
        Hashtbl.replace last_use e.C.second (max cur px)
      | _ -> ())
    check_edges;
  (* +1 at a range's start, -1 after its end; an end sorts first *)
  let events =
    Hashtbl.fold
      (fun y last acc ->
        match issue_pos y with
        | Some start -> (start, 1) :: (last + 1, -1) :: acc
        | None -> acc)
      last_use []
  in
  let peak = ref 0 and cur = ref 0 in
  List.iter
    (fun (_, d) ->
      cur := !cur + d;
      if !cur > !peak then peak := !cur)
    (List.sort compare events);
  !peak

let measure ~sb ~(region : Ir.Region.t) (r : Sched.Smarq_alloc.result) =
  let tables = Sched.Smarq_alloc.allocation_tables r in
  let pos = Hashtbl.create 64 in
  List.iteri (fun idx (i : Ir.Instr.t) -> Hashtbl.replace pos i.Ir.Instr.id idx) (Ir.Region.instrs region);
  {
    Sched.Working_set.program_order = List.length (Ir.Superblock.memory_ops sb);
    p_bit_order = Hashtbl.length tables.Sched.Smarq_alloc.allocation.C.p_bit;
    smarq = r.Sched.Smarq_alloc.max_offset + 1;
    lower_bound =
      live_range_peak ~issue_pos:(Hashtbl.find_opt pos)
        ~check_edges:tables.Sched.Smarq_alloc.check_edges;
  }
