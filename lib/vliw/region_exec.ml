module I = Ir.Instr

type outcome =
  | Committed of Ir.Instr.label option
  | Alias_fault of Hw.Detector.violation

type result = {
  outcome : outcome;
  cycles : int;
  alias_checks : int;
}

(* How one bundle ended: the region goes on to the next cycle, or it
   leaves through a taken exit, or the detector reported a violation.
   Only the last two allocate, once per region execution. *)
type bundle_end =
  | Next_cycle
  | Exit_taken of Ir.Instr.label
  | Fault of Hw.Detector.violation

let finish ~detector ~checks_before outcome ~cycles =
  {
    outcome;
    cycles;
    alias_checks = detector.Hw.Detector.checks_performed () - checks_before;
  }

let run ~config ~detector ~machine ?cache (region : Ir.Region.t) =
  if region.ar_window > config.Config.alias_registers then
    invalid_arg
      (Printf.sprintf
         "Region_exec: region needs %d alias registers, machine has %d"
         region.ar_window config.Config.alias_registers);
  let checks_before = detector.Hw.Detector.checks_performed () in
  detector.Hw.Detector.reset ();
  Machine.checkpoint machine;
  let stalls = ref 0 in
  (* one closure per region execution, not one per bundle *)
  let rec exec_bundle = function
    | [] -> Next_cycle
    | (i : I.t) :: rest ->
      (match i.op with
      | I.Rotate n ->
        detector.Hw.Detector.on_rotate n;
        exec_bundle rest
      | I.Amov { src_offset; dst_offset } ->
        detector.Hw.Detector.on_amov ~src:src_offset ~dst:dst_offset;
        exec_bundle rest
      | I.Branch _ | I.Exit _ ->
        (match Eval.exec_control machine i with
        | Eval.Leave_region l -> Exit_taken l
        | Eval.Fall_through -> exec_bundle rest
        | Eval.Goto _ -> assert false)
      | I.Jump _ ->
        (* regions are straight-line; jumps do not appear *)
        invalid_arg "Region_exec: jump inside region"
      | I.Load { addr; width; _ } | I.Store { addr; width; _ } ->
        let range = Hw.Access.make ~addr:(Eval.addr_of machine addr) ~width in
        (match cache with
        | Some c -> stalls := !stalls + Cache.access c ~addr:range.Hw.Access.lo
        | None -> ());
        (match detector.Hw.Detector.on_mem i range with
        | Ok () ->
          Eval.exec_data machine i;
          exec_bundle rest
        | Error v -> Fault v)
      | I.Nop | I.Mov _ | I.Unop_neg _ | I.Binop _ | I.Fbinop _ | I.Cmp _ ->
        Eval.exec_data machine i;
        exec_bundle rest)
  in
  let bundles = region.bundles in
  let n = Array.length bundles in
  let checkpoint_cycles = config.Config.checkpoint_cycles in
  let rec go cycle =
    if cycle >= n then begin
      Machine.commit machine;
      finish ~detector ~checks_before
        (Committed region.final_exit)
        ~cycles:(checkpoint_cycles + n + !stalls)
    end
    else
      match exec_bundle bundles.(cycle) with
      | Next_cycle -> go (cycle + 1)
      | Exit_taken l ->
        Machine.commit machine;
        finish ~detector ~checks_before
          (Committed (Some l))
          ~cycles:(checkpoint_cycles + cycle + 1 + !stalls)
      | Fault v ->
        Machine.rollback machine;
        finish ~detector ~checks_before (Alias_fault v)
          ~cycles:
            (checkpoint_cycles + cycle + 1 + !stalls
            + config.Config.rollback_cycles)
  in
  go 0
