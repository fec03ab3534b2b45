module I = Ir.Instr

type outcome =
  | Committed
  | Alias_fault of Hw.Detector.violation

type result = {
  mutable outcome : outcome;
  mutable side_exit : bool;
  mutable exit_label : Ir.Instr.label;
  mutable cycles : int;
  mutable alias_checks : int;
}

let make_result () =
  { outcome = Committed; side_exit = false; exit_label = ""; cycles = 0;
    alias_checks = 0 }

let finish ~detector ~checks_before r outcome ~cycles =
  r.outcome <- outcome;
  r.cycles <- cycles;
  r.alias_checks <- detector.Hw.Detector.checks_performed () - checks_before

(* A taken side exit commits and leaves towards [label]. *)
let leave ~config ~detector ~machine ~checks_before r cycle stalls label =
  Machine.commit machine;
  r.side_exit <- true;
  r.exit_label <- label;
  finish ~detector ~checks_before r Committed
    ~cycles:(config.Config.checkpoint_cycles + cycle + 1 + stalls)

(* The bundle loop is two top-level functions with everything they need
   passed as arguments, so a region execution allocates no closure and
   no ref: [exec_ops] issues the rest of bundle [cycle], [exec_bundle]
   starts bundle [cycle] or, past the last one, commits.  [stalls]
   accumulates cache stall cycles.  The outcome goes into the caller's
   record [r]; only a fault allocates (its violation and the
   [Alias_fault] around it).  Branch conditions are tested here, so a
   taken exit allocates no control value. *)
let rec exec_ops ~config ~detector ~machine ~cache ~checks_before r
    (region : Ir.Region.t) cycle stalls = function
  | [] ->
    exec_bundle ~config ~detector ~machine ~cache ~checks_before r region
      (cycle + 1) stalls
  | (i : I.t) :: rest ->
    (match i.op with
    | I.Rotate n ->
      detector.Hw.Detector.on_rotate n;
      exec_ops ~config ~detector ~machine ~cache ~checks_before r region cycle
        stalls rest
    | I.Amov { src_offset; dst_offset } ->
      detector.Hw.Detector.on_amov ~src:src_offset ~dst:dst_offset;
      exec_ops ~config ~detector ~machine ~cache ~checks_before r region cycle
        stalls rest
    | I.Branch { cond; target } ->
      if Eval.operand_value machine cond <> 0 then
        leave ~config ~detector ~machine ~checks_before r cycle stalls target
      else
        exec_ops ~config ~detector ~machine ~cache ~checks_before r region
          cycle stalls rest
    | I.Exit l -> leave ~config ~detector ~machine ~checks_before r cycle stalls l
    | I.Jump _ ->
      (* regions are straight-line; jumps do not appear *)
      invalid_arg "Region_exec: jump inside region"
    | I.Load { addr; width; _ } | I.Store { addr; width; _ } ->
      if width <= 0 then invalid_arg "Region_exec: width must be positive";
      let lo = Eval.addr_of machine addr in
      let stalls =
        match cache with
        | Some c -> stalls + Cache.access c ~addr:lo
        | None -> stalls
      in
      (match detector.Hw.Detector.on_mem i ~lo ~hi:(lo + width - 1) with
      | Ok () ->
        Eval.exec_data machine i;
        exec_ops ~config ~detector ~machine ~cache ~checks_before r region
          cycle stalls rest
      | Error v ->
        Machine.rollback machine;
        finish ~detector ~checks_before r (Alias_fault v)
          ~cycles:
            (config.Config.checkpoint_cycles + cycle + 1 + stalls
            + config.Config.rollback_cycles))
    | I.Nop | I.Mov _ | I.Unop_neg _ | I.Binop _ | I.Fbinop _ | I.Cmp _ ->
      Eval.exec_data machine i;
      exec_ops ~config ~detector ~machine ~cache ~checks_before r region cycle
        stalls rest)

and exec_bundle ~config ~detector ~machine ~cache ~checks_before r
    (region : Ir.Region.t) cycle stalls =
  let n = Array.length region.bundles in
  if cycle >= n then begin
    Machine.commit machine;
    finish ~detector ~checks_before r Committed
      ~cycles:(config.Config.checkpoint_cycles + n + stalls)
  end
  else
    exec_ops ~config ~detector ~machine ~cache ~checks_before r region cycle
      stalls region.bundles.(cycle)

let run ~config ~detector ~machine ?cache (region : Ir.Region.t) r =
  if region.ar_window > config.Config.alias_registers then
    invalid_arg
      (Printf.sprintf
         "Region_exec: region needs %d alias registers, machine has %d"
         region.ar_window config.Config.alias_registers);
  let checks_before = detector.Hw.Detector.checks_performed () in
  detector.Hw.Detector.reset ();
  Machine.checkpoint machine;
  r.side_exit <- false;
  exec_bundle ~config ~detector ~machine ~cache ~checks_before r region 0 0
