(* Shared builders and harnesses for the test suites. *)

module I = Ir.Instr

let next_id = ref 1

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let reset_ids () = next_id := 1

let mk op = I.make ~id:(fresh ()) op

let ld ?(width = 4) dst base disp =
  mk (I.Load { dst; addr = { I.base; disp }; width; annot = Ir.Annot.none })

let st ?(width = 4) src base disp =
  mk (I.Store { src; addr = { I.base; disp }; width; annot = Ir.Annot.none })

let fadd d a b = mk (I.Fbinop (I.Fadd, d, I.Reg a, I.Reg b))
let movi d n = mk (I.Mov (d, I.Imm n))

let r n = Ir.Reg.R n
let f n = Ir.Reg.F n

let sb_of body =
  Ir.Superblock.make ~entry:"test_sb" ~body ~final_exit:None
    ~source_blocks:[ "test_sb" ] ()

let default_latency = Vliw.Config.latency Vliw.Config.default

(* The issue sequence of a translation as (cycle, instruction) pairs. *)
let issue_seq (o : Opt.Optimizer.t) =
  let body = Array.of_list o.Opt.Optimizer.region.Ir.Region.source.Ir.Superblock.body in
  List.init (Array.length o.Opt.Optimizer.issue_pos) (fun k ->
      (o.Opt.Optimizer.issue_cycle.(k), body.(o.Opt.Optimizer.issue_pos.(k))))

(* An allocator result's id-keyed tables, and every constraint edge:
   checks, then antis. *)
let allocation_of r =
  let v = Sched.Smarq_alloc.allocation_tables r in
  (v.Sched.Smarq_alloc.allocation, v.Sched.Smarq_alloc.check_edges @ v.Sched.Smarq_alloc.anti_edges)

(* The outcome of a schedule the test expects to succeed. *)
let scheduled = function
  | Ok outcome -> outcome
  | Error failure ->
    Alcotest.fail (Sched.List_sched.failure_to_string failure)

(* Where a committed run of [region] continues: the taken exit's label,
   else the region's final exit. *)
let next_label (r : Vliw.Region_exec.result) (region : Ir.Region.t) =
  if r.side_exit then Some r.exit_label else region.final_exit

let optimize ?(policy = Sched.Policy.smarq ~ar_count:64) ?(known_alias = []) sb
    =
  let fresh_id = ref (Ir.Superblock.max_instr_id sb + 1_000) in
  Opt.Optimizer.optimize ~policy ~issue_width:4 ~mem_ports:2
    ~latency:default_latency ~fresh_id ~known_alias sb

(* Execute an optimized region against the trace of the original
   superblock, stepping [Runtime.Lifecycle] on each fault and
   re-optimizing as the runtime does, with the default [max_reopts].
   Returns the number of faults serviced.  Asserts final machine
   equality with the reference. *)
let run_to_commit ?(policy = Sched.Policy.smarq ~ar_count:64)
    ?(detector = Hw.Queue.detector (Hw.Queue.create ~size:64)) ~init sb =
  let config = Vliw.Config.default in
  let max_reopts = Runtime.Config.default.Runtime.Config.max_reopts in
  let ref_machine = Vliw.Machine.create () in
  List.iter (fun (reg, v) -> Vliw.Machine.set_reg ref_machine reg v) init;
  let machine = Vliw.Machine.copy ref_machine in
  let trace = Frontend.Interp.trace_superblock ref_machine sb in
  let rec go life faults =
    let o =
      match life.Runtime.Lifecycle.rung with
      | Runtime.Lifecycle.Unspeculated ->
        optimize ~policy:(Sched.Policy.none ()) sb
      | Runtime.Lifecycle.Speculative _ ->
        optimize ~policy
          ~known_alias:(Runtime.Lifecycle.known_alias life ~sb) sb
    in
    let r = Vliw.Region_exec.make_result () in
    Vliw.Region_exec.run ~config ~detector ~machine o.Opt.Optimizer.region r;
    match r.Vliw.Region_exec.outcome with
    | Vliw.Region_exec.Alias_fault v -> (
      match
        Runtime.Lifecycle.fault ~max_reopts ~setter:v.Hw.Detector.setter
          ~checker:v.Hw.Detector.checker life
      with
      | _, Runtime.Lifecycle.Degrade ->
        Alcotest.failf "degraded after %d faults" (faults + 1)
      | life, _ -> go life (faults + 1))
    | Vliw.Region_exec.Committed ->
      let exit_label = next_label r o.Opt.Optimizer.region in
      let expected_exit =
        match trace.Frontend.Interp.taken_exit with
        | Some l -> Some l
        | None -> None  (* final_exit is None for our test superblocks *)
      in
      Alcotest.(check (option string))
        "same exit" expected_exit exit_label;
      if not (Vliw.Machine.equal_guest_state ref_machine machine) then begin
        let diffs = Vliw.Machine.diff_guest_state ref_machine machine in
        Alcotest.fail
          ("state mismatch: " ^ String.concat "; "
             (List.filteri (fun i _ -> i < 5) diffs))
      end;
      faults
  in
  go Runtime.Lifecycle.fresh 0

(* Allocation spans read minor words from [Gc.minor_words], which counts
   the live minor heap too and so is exact.  The minor field of
   [Gc.counters] and [Gc.quick_stat] moves only at a minor collection
   and can lag by up to a whole minor heap. *)

(* words the minor heap saw while [f ()] ran *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* words allocated while [f ()] ran: the minor heap's exact count plus
   the arrays too large for it, which go straight to the major heap
   (major words not promoted from the minor heap; [Gc.counters]'s major
   and promoted fields are current) *)
let words_of f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  int_of_float
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let case name fn = Alcotest.test_case name `Quick fn

(* Wrap a QCheck property as an alcotest case. *)
let qcase ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Drive a detector model's [on_mem] with an access range; the models
   take the range as two ints. *)
let on_range on_mem t i (a : Hw.Access.t) =
  on_mem t i ~lo:a.Hw.Access.lo ~hi:a.Hw.Access.hi

(* Run the reference interpreter to halt, failing the test if it runs
   out of fuel. *)
let interp_run ?fuel m p =
  match Frontend.Interp.run ?fuel m p with
  | Ok stats -> stats
  | Error Frontend.Interp.Out_of_fuel ->
    Alcotest.fail "reference interpreter ran out of fuel"
