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
   superblock, iterating fault -> known-alias -> re-optimize like the
   runtime does.  Returns the number of faults serviced.  Asserts final
   machine equality with the reference. *)
let run_to_commit ?(policy = Sched.Policy.smarq ~ar_count:64)
    ?(detector = Hw.Queue.detector (Hw.Queue.create ~size:64)) ~init sb =
  let config = Vliw.Config.default in
  let ref_machine = Vliw.Machine.create () in
  List.iter (fun (reg, v) -> Vliw.Machine.set_reg ref_machine reg v) init;
  let machine = Vliw.Machine.copy ref_machine in
  let trace = Frontend.Interp.trace_superblock ref_machine sb in
  let mems = Ir.Superblock.memory_ops sb in
  (* mirror the runtime's escalation: learn the pair first; if the same
     pair faults again (a scheme with false positives), pin both ops
     out of speculation entirely *)
  let expand known pinned =
    List.fold_left
      (fun acc pin ->
        List.fold_left
          (fun acc (m : Ir.Instr.t) ->
            if m.id = pin then acc else (pin, m.id) :: acc)
          acc mems)
      known pinned
  in
  let pair_known (a, b) known =
    List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) known
  in
  let rec go known pinned faults =
    if faults > 60 then Alcotest.fail "did not converge after 60 faults";
    (* like the runtime: after too many faults, give up on speculation
       for this region entirely *)
    let policy =
      if faults >= 12 then Sched.Policy.none () else policy
    in
    let o = optimize ~policy ~known_alias:(expand known pinned) sb in
    let r = Vliw.Region_exec.make_result () in
    Vliw.Region_exec.run ~config ~detector ~machine o.Opt.Optimizer.region r;
    match r.Vliw.Region_exec.outcome with
    | Vliw.Region_exec.Alias_fault v ->
      let pair = (v.Hw.Detector.setter, v.Hw.Detector.checker) in
      if pair_known pair known then
        go known
          (v.Hw.Detector.setter :: v.Hw.Detector.checker :: pinned)
          (faults + 1)
      else go (pair :: known) pinned (faults + 1)
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
  go [] [] 0

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
