type t = {
  program_order : int;
  p_bit_order : int;
  smarq : int;
  lower_bound : int;
}

let zero = { program_order = 0; p_bit_order = 0; smarq = 0; lower_bound = 0 }

let add a b =
  {
    program_order = a.program_order + b.program_order;
    p_bit_order = a.p_bit_order + b.p_bit_order;
    smarq = a.smarq + b.smarq;
    lower_bound = a.lower_bound + b.lower_bound;
  }

(* Live-range lower bound over the region's execution order.  Every
   operation a check constraint names gets its rank in that order (AMOV
   pseudo-ops included, ROTATEs left out, which keeps the order): the
   [k]-th issued body instruction follows the AMOVs anchored at it and
   at every earlier issued one, in insertion order.  Y's range is live
   from its own rank to the last rank among Y and its checkers; the
   peak of the ranges live at one rank is the bound.  A range ending at
   [r] closes before one starting at [r + 1] opens. *)
let live_range_peak ~issue_pos (r : Smarq_alloc.result) =
  let n = Array.length issue_pos in
  let rank = Array.make r.Smarq_alloc.slots 0 in
  let anchored = Array.make n 0 in
  List.iter
    (fun (a : Smarq_alloc.amov_insertion) ->
      anchored.(a.before_pos) <- anchored.(a.before_pos) + 1)
    r.Smarq_alloc.amovs;
  let before = ref 0 in
  for k = 0 to n - 1 do
    let p = issue_pos.(k) in
    before := !before + anchored.(p);
    rank.(p) <- k + !before
  done;
  (* [anchored.(p)] now counts the AMOVs at [p] still to place *)
  let slot = ref n in
  List.iter
    (fun (a : Smarq_alloc.amov_insertion) ->
      let p = a.before_pos in
      if a.dst_is_fresh then begin
        rank.(!slot) <- rank.(p) - anchored.(p);
        incr slot
      end;
      anchored.(p) <- anchored.(p) - 1)
    r.Smarq_alloc.amovs;
  let last = Array.make r.Smarq_alloc.slots (-1) in
  let checks = r.Smarq_alloc.checks in
  for e = 0 to (Array.length checks / 2) - 1 do
    let x = checks.(2 * e) and y = checks.((2 * e) + 1) in
    last.(y) <- max (max last.(y) rank.(y)) rank.(x)
  done;
  (* net range count change at each rank *)
  let delta = Array.make (n + List.length r.Smarq_alloc.amovs + 1) 0 in
  for y = 0 to r.Smarq_alloc.slots - 1 do
    if last.(y) >= 0 then begin
      delta.(rank.(y)) <- delta.(rank.(y)) + 1;
      delta.(last.(y) + 1) <- delta.(last.(y) + 1) - 1
    end
  done;
  let peak = ref 0 and cur = ref 0 in
  Array.iter
    (fun d ->
      cur := !cur + d;
      if !cur > !peak then peak := !cur)
    delta;
  !peak

let measure ~sb ~(outcome : List_sched.outcome) =
  let program_order =
    List.fold_left
      (fun k i -> if Ir.Instr.is_memory i then k + 1 else k)
      0 sb.Ir.Superblock.body
  in
  match outcome.List_sched.alloc_result with
  | None ->
    (* no integrated allocation (naive/mask/alat/none): the scheduler's
       window stands in; the other columns do not apply *)
    {
      program_order;
      p_bit_order = 0;
      smarq = outcome.List_sched.stats.List_sched.ar_working_set;
      lower_bound = 0;
    }
  | Some r ->
    {
      program_order;
      p_bit_order = r.Smarq_alloc.p_bits;
      smarq = r.Smarq_alloc.max_offset + 1;
      lower_bound = live_range_peak ~issue_pos:outcome.List_sched.issue_pos r;
    }
