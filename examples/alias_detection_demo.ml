(* The paper's Figure 2 example, end to end.

   Original program:
     M0: st [r0+4] = 10
     M1: f1 = ld [r1]
     M2: st [r0]   = 20
     M3: f3 = ld [r2]

   The optimizer hoists both loads above the stores, annotating them to
   set alias registers (P bits) and the stores to check (C bits).  We
   then execute the region twice:

   - with r2 pointing far away: the speculation holds, the region
     commits, and the final state matches the reference interpreter;
   - with r2 == r0: the hoisted load at M3 and the store at M2 truly
     alias, the queue raises an alias exception, the machine rolls
     back, and a conservative re-optimization (with the detected pair
     treated as must-alias) commits correctly.

   Note the precision at work: M1 (ld [r1]) is NOT checked against M2
   even if r1 aliases r0, because the pair was never reordered — the
   alias is benign, and order-based detection with anti-constraints
   never raises for it.

     dune exec examples/alias_detection_demo.exe *)

module I = Ir.Instr

let next_id = ref 1

let mk op =
  let id = !next_id in
  incr next_id;
  I.make ~id op

let figure2_superblock () =
  next_id := 1;
  let m0 =
    mk (I.Store { src = I.Imm 10; addr = { I.base = Ir.Reg.R 0; disp = 4 };
                  width = 4; annot = Ir.Annot.none })
  in
  let m1 =
    mk (I.Load { dst = Ir.Reg.F 1; addr = { I.base = Ir.Reg.R 1; disp = 0 };
                 width = 4; annot = Ir.Annot.none })
  in
  let m2 =
    mk (I.Store { src = I.Imm 20; addr = { I.base = Ir.Reg.R 0; disp = 0 };
                  width = 4; annot = Ir.Annot.none })
  in
  let m3 =
    mk (I.Load { dst = Ir.Reg.F 3; addr = { I.base = Ir.Reg.R 2; disp = 0 };
                 width = 4; annot = Ir.Annot.none })
  in
  Ir.Superblock.make ~entry:"fig2" ~body:[ m0; m1; m2; m3 ] ~final_exit:None
    ~source_blocks:[ "fig2" ] ()

let optimize sb =
  let fresh_id = ref 100 in
  Opt.Optimizer.optimize
    ~policy:(Sched.Policy.smarq ~ar_count:64)
    ~issue_width:4 ~mem_ports:2
    ~latency:(Vliw.Config.latency Vliw.Config.default)
    ~fresh_id sb

let execute ~r2 region =
  let machine = Vliw.Machine.create () in
  Vliw.Machine.set_reg machine (Ir.Reg.R 0) 1000;
  Vliw.Machine.set_reg machine (Ir.Reg.R 1) 5000;
  Vliw.Machine.set_reg machine (Ir.Reg.R 2) r2;
  let detector = Hw.Queue.detector (Hw.Queue.create ~size:64) in
  let r = Vliw.Region_exec.make_result () in
  Vliw.Region_exec.run ~config:Vliw.Config.default ~detector ~machine region r;
  (r, machine)

let () =
  let sb = figure2_superblock () in
  let o = optimize sb in
  Format.printf "annotated translation:@.%a@." Ir.Region.pp
    o.Opt.Optimizer.region;

  (* case 1: no runtime alias *)
  let r, _ = execute ~r2:2000 o.Opt.Optimizer.region in
  (match r.Vliw.Region_exec.outcome with
  | Vliw.Region_exec.Committed ->
    Printf.printf "r2 = 2000 (disjoint): committed in %d cycles\n"
      r.Vliw.Region_exec.cycles
  | Vliw.Region_exec.Alias_fault v ->
    Format.printf "unexpected: %a@." Hw.Detector.pp_violation v);

  (* case 2: the speculation is wrong -- r2 aliases the store at [r0] *)
  let r, machine = execute ~r2:1000 o.Opt.Optimizer.region in
  (match r.Vliw.Region_exec.outcome with
  | Vliw.Region_exec.Alias_fault v ->
    Format.printf
      "r2 = r0 = 1000 (aliased): %a; rolled back after %d cycles@."
      Hw.Detector.pp_violation v r.Vliw.Region_exec.cycles;
    (* the runtime would now re-optimize with the pair known to alias *)
    let o2 =
      let fresh_id = ref 200 in
      Opt.Optimizer.optimize
        ~policy:(Sched.Policy.smarq ~ar_count:64)
        ~issue_width:4 ~mem_ports:2
        ~latency:(Vliw.Config.latency Vliw.Config.default)
        ~fresh_id
        ~known_alias:[ (v.Hw.Detector.setter, v.Hw.Detector.checker) ]
        sb
    in
    Format.printf "conservative re-optimization:@.%a@." Ir.Region.pp
      o2.Opt.Optimizer.region;
    let detector = Hw.Queue.detector (Hw.Queue.create ~size:64) in
    let r2 = Vliw.Region_exec.make_result () in
    Vliw.Region_exec.run ~config:Vliw.Config.default ~detector ~machine
      o2.Opt.Optimizer.region r2;
    (match r2.Vliw.Region_exec.outcome with
    | Vliw.Region_exec.Committed ->
      Printf.printf "re-execution committed; f3 = %d (the freshly stored value)\n"
        (Vliw.Machine.get_reg machine (Ir.Reg.F 3))
    | Vliw.Region_exec.Alias_fault _ ->
      print_endline "unexpected second fault")
  | Vliw.Region_exec.Committed ->
    print_endline "unexpected commit despite the alias")
