(* Quickstart: build a small guest program, run it through the SMARQ
   dynamic optimization system, and compare against the no-detection
   baseline.

     dune exec examples/quickstart.exe *)

module I = Ir.Instr

let program () =
  let bld = Workload.Builder.create () in
  let a = Ir.Reg.R 1 and b = Ir.Reg.R 2 and idx = Ir.Reg.R 4 in
  (* point two base registers at separate arrays and loop 2000 times *)
  Workload.Builder.straight bld "init"
    (Workload.Builder.instrs bld
       [
         I.Mov (a, I.Imm 0x10000);
         I.Mov (b, I.Imm 0x20000);
         I.Mov (idx, I.Imm 2000);
       ])
    ~next:"loop";
  (* each lane stores through [a] and the next lane loads through [b]:
     the optimizer cannot disambiguate the two bases, so without
     hardware alias detection every lane's loads serialize behind the
     previous lane's store *)
  let lane k =
    let v = Ir.Reg.F (1 + k) and w = Ir.Reg.F (4 + k) in
    Workload.Builder.instrs bld
      [
        I.Load { dst = v; addr = { I.base = b; disp = k * 16 };
                 width = 8; annot = Ir.Annot.none };
        I.Load { dst = w; addr = { I.base = b; disp = (k * 16) + 8 };
                 width = 8; annot = Ir.Annot.none };
        I.Fbinop (I.Fmul, v, I.Reg v, I.Reg w);
        I.Store { src = I.Reg v; addr = { I.base = a; disp = k * 16 };
                  width = 8; annot = Ir.Annot.none };
      ]
  in
  let body =
    lane 0 @ lane 1 @ lane 2
    @ Workload.Builder.instrs bld
        [
          I.Binop (I.Add, a, I.Reg a, I.Imm 48);
          I.Binop (I.Add, b, I.Reg b, I.Imm 48);
        ]
  in
  Workload.Builder.loop_back bld "loop" body ~counter:idx ~back_to:"loop"
    ~exit_to:"end" ~iters:2000;
  Workload.Builder.add_block bld "end" [] Ir.Block.Halt;
  Workload.Builder.program bld ~entry:"init"

let () =
  let p = program () in
  (* ground truth from the reference interpreter *)
  let reference = Vliw.Machine.create () in
  (match Frontend.Interp.run reference p with
  | Ok _ -> ()
  | Error Frontend.Interp.Out_of_fuel -> failwith "reference run ran out of fuel");
  List.iter
    (fun scheme ->
      let r = Smarq.run_program ~scheme p in
      let st = r.Runtime.Driver.stats in
      let ok =
        Vliw.Machine.equal_guest_state reference r.Runtime.Driver.machine
      in
      Printf.printf
        "%-8s %8d cycles  (%d regions, %d rollbacks, state %s)\n"
        (Smarq.Scheme.name scheme)
        st.Runtime.Stats.total_cycles st.Runtime.Stats.regions_built
        st.Runtime.Stats.rollbacks
        (if ok then "matches interpreter" else "MISMATCH"))
    [ Smarq.Scheme.None_; Smarq.Scheme.Smarq 64 ];
  print_endline
    "\nthe SMARQ run is faster because the loads were hoisted above the\n\
     may-alias store, with the alias register queue guarding correctness."
