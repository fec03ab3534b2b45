(* Loop unrolling of self-loop superblocks. *)

open Helpers
module I = Ir.Instr

let self_loop_sb () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let s1 = st (I.Reg (f 1)) (r 2) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "out" }) in
  Ir.Superblock.make ~entry:"loop" ~body:[ l1; s1; br ]
    ~final_exit:(Some "loop") ~source_blocks:[ "loop" ]
    ~live_out:[ (br.I.id, Ir.Reg.Set.of_list [ r 5; f 1 ]) ]
    ()

let test_unroll_shape () =
  let sb = self_loop_sb () in
  let fresh_id = ref 100 in
  match Opt.Unroll.unroll ~factor:3 ~fresh_id sb with
  | None -> Alcotest.fail "self-loop should unroll"
  | Some u ->
    Alcotest.(check int) "tripled body" (3 * Ir.Superblock.instr_count sb)
      (Ir.Superblock.instr_count u);
    Alcotest.(check (option string)) "still a self loop" (Some "loop")
      u.Ir.Superblock.final_exit;
    (* ids are unique across copies *)
    let ids =
      List.map (fun (i : I.t) -> i.I.id) u.Ir.Superblock.body
    in
    Alcotest.(check int) "unique ids" (List.length ids)
      (List.length (List.sort_uniq Int.compare ids));
    (* every copy's side exit carries the original live set *)
    List.iter
      (fun (i : I.t) ->
        if I.is_side_exit i then
          Alcotest.(check bool) "live set copied" true
            (Ir.Reg.Set.mem (f 1) (Ir.Superblock.exit_live_out u i.I.id)))
      u.Ir.Superblock.body

let test_unroll_refusals () =
  let sb = self_loop_sb () in
  let fresh_id = ref 100 in
  Alcotest.(check bool) "factor 1 refuses" true
    (Opt.Unroll.unroll ~factor:1 ~fresh_id sb = None);
  let not_loop = { sb with Ir.Superblock.final_exit = Some "elsewhere" } in
  Alcotest.(check bool) "non-loop refuses" true
    (Opt.Unroll.unroll ~factor:2 ~fresh_id not_loop = None)

let test_unroll_semantics () =
  (* executing the unrolled body once equals executing the original
     body [factor] times, when no side exit fires *)
  let sb = self_loop_sb () in
  let fresh_id = ref 100 in
  let u = Option.get (Opt.Unroll.unroll ~factor:4 ~fresh_id sb) in
  let init m =
    Vliw.Machine.set_reg m (r 1) 100;
    Vliw.Machine.set_reg m (r 2) 200;
    Vliw.Machine.store m ~addr:100 ~width:4 77
  in
  let m1 = Vliw.Machine.create () in
  init m1;
  for _ = 1 to 4 do
    ignore (Frontend.Interp.trace_superblock m1 sb)
  done;
  let m2 = Vliw.Machine.create () in
  init m2;
  ignore (Frontend.Interp.trace_superblock m2 u);
  Alcotest.(check bool) "same state" true
    (Vliw.Machine.equal_guest_state m1 m2)

let test_unrolled_system_equivalent () =
  (* the whole dynamic system with unrolling enabled still matches the
     interpreter on the benchmark suite's trickiest members *)
  List.iter
    (fun name ->
      let b = Workload.Specfp.find name in
      let program = Workload.Specfp.program b in
      let ref_m = Vliw.Machine.create () in
      ignore (interp_run ~fuel:50_000_000 ref_m program);
      List.iter
        (fun unroll ->
          let res =
            Smarq.run_program
              ~config:{ Runtime.Config.default with fuel = 100_000_000; unroll }
              ~scheme:(Smarq.Scheme.Smarq 64) program
          in
          if
            not
              (Vliw.Machine.equal_guest_state ref_m
                 res.Runtime.Driver.machine)
          then Alcotest.failf "%s diverged at unroll %d" name unroll)
        [ 2; 3 ])
    [ "wupwise"; "art"; "ammp" ]

let test_unrolled_amortizes_loop_overhead () =
  (* larger regions schedule at least as well per iteration *)
  let b = Workload.Specfp.find "wupwise" in
  let program = Workload.Specfp.program ~scale:5 b in
  let region_cycles unroll =
    (Smarq.run_program
       ~config:{ Runtime.Config.default with fuel = 200_000_000; unroll }
       ~scheme:(Smarq.Scheme.Smarq 64) program)
      .Runtime.Driver.stats.Runtime.Stats.region_cycles
  in
  let c1 = region_cycles 1 and c2 = region_cycles 2 in
  Alcotest.(check bool)
    (Printf.sprintf "unrolled (%d) <= rolled (%d) region cycles" c2 c1)
    true
    (c2 <= c1 + (c1 / 20))

let suite =
  ( "unroll",
    [
      case "unrolled shape" test_unroll_shape;
      case "refusals" test_unroll_refusals;
      case "semantics preserved" test_unroll_semantics;
      case "dynamic system equivalent when unrolling"
        test_unrolled_system_equivalent;
      case "larger regions schedule no worse"
        test_unrolled_amortizes_loop_overhead;
    ] )
