(* Workload generators: structural validity, determinism, and the
   benchmark characteristics the experiments rely on. *)

open Helpers

let test_suite_valid () =
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let p = Workload.Specfp.program b in
      match Ir.Program.validate p with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" b.Workload.Specfp.name m)
    Workload.Specfp.suite

let test_suite_deterministic () =
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let run () =
        let m = Vliw.Machine.create () in
        ignore (interp_run ~fuel:50_000_000 m
                  (Workload.Specfp.program b));
        m
      in
      let m1 = run () and m2 = run () in
      if not (Vliw.Machine.equal_guest_state m1 m2) then
        Alcotest.failf "%s not deterministic" b.Workload.Specfp.name)
    Workload.Specfp.suite

let test_suite_terminates () =
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let m = Vliw.Machine.create () in
      let stats = interp_run ~fuel:50_000_000 m
          (Workload.Specfp.program b)
      in
      Alcotest.(check bool)
        (b.Workload.Specfp.name ^ " does work")
        true
        (stats.Frontend.Interp.instrs_executed > 1000))
    Workload.Specfp.suite

let test_scale_parameter () =
  let b = Workload.Specfp.find "wupwise" in
  let count scale =
    let m = Vliw.Machine.create () in
    let stats =
      interp_run ~fuel:100_000_000 m
        (Workload.Specfp.program ~scale b)
    in
    stats.Frontend.Interp.instrs_executed
  in
  let c1 = count 1 and c3 = count 3 in
  Alcotest.(check bool) "scale multiplies work" true
    (c3 > (2 * c1) && c3 < (4 * c1))

let test_ammp_has_biggest_superblocks () =
  let memops name =
    let r =
      Smarq.run_benchmark
        ~config:{ Runtime.Config.default with fuel = 100_000_000 }
        ~scheme:(Smarq.Scheme.Smarq 64) name
    in
    Runtime.Stats.mem_ops_per_superblock r.Runtime.Driver.stats
  in
  let ammp = memops "ammp" in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        (Printf.sprintf "ammp (%f) > %s" ammp other)
        true
        (ammp > memops other))
    [ "wupwise"; "art"; "sixtrack" ]

let test_alias_probe_produces_rollbacks () =
  (* art's probe makes genuine aliases; SMARQ must see at least one
     rollback and then converge via conservative re-optimization *)
  let r =
    Smarq.run_benchmark
      ~config:{ Runtime.Config.default with fuel = 100_000_000 }
      ~scheme:(Smarq.Scheme.Smarq 64) "art"
  in
  let st = r.Runtime.Driver.stats in
  Alcotest.(check bool) "some rollbacks" true (st.Runtime.Stats.rollbacks >= 1);
  Alcotest.(check bool) "bounded rollbacks" true
    (st.Runtime.Stats.rollbacks <= 10)

let test_rmw_punishes_alat_only () =
  (* the rmw kernels create ALAT false positives; SMARQ stays clean on
     benchmarks without genuine collisions *)
  let rollbacks scheme name =
    (Smarq.run_benchmark
       ~config:{ Runtime.Config.default with fuel = 100_000_000 }
       ~scheme name)
      .Runtime.Driver.stats.Runtime.Stats.rollbacks
  in
  Alcotest.(check int) "wupwise smarq clean" 0
    (rollbacks (Smarq.Scheme.Smarq 64) "wupwise");
  Alcotest.(check bool) "wupwise alat hits FPs" true
    (rollbacks Smarq.Scheme.Alat "wupwise" >= 1)

let test_genprog_deterministic () =
  let params = Workload.Genprog.default_params in
  let sb1, _ = Workload.Genprog.superblock ~seed:7 ~params in
  let sb2, _ = Workload.Genprog.superblock ~seed:7 ~params in
  Alcotest.(check int) "same length"
    (Ir.Superblock.instr_count sb1)
    (Ir.Superblock.instr_count sb2);
  List.iter2
    (fun (a : Ir.Instr.t) (b : Ir.Instr.t) ->
      Alcotest.(check string) "same instruction" (Ir.Instr.to_string a)
        (Ir.Instr.to_string b))
    sb1.Ir.Superblock.body sb2.Ir.Superblock.body;
  let sb3, _ = Workload.Genprog.superblock ~seed:8 ~params in
  Alcotest.(check bool) "different seed differs" true
    (List.map Ir.Instr.to_string sb3.Ir.Superblock.body
    <> List.map Ir.Instr.to_string sb1.Ir.Superblock.body)

let test_genprog_program_valid () =
  for seed = 0 to 10 do
    let p = Workload.Genprog.program ~seed ~n_loops:2 ~iters:50 in
    match Ir.Program.validate p with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: %s" seed m
  done

let test_builder_rejects_branch_in_body () =
  let bld = Workload.Builder.create () in
  let br =
    Workload.Builder.instr bld
      (Ir.Instr.Branch { cond = Ir.Instr.Imm 1; target = "x" })
  in
  match Workload.Builder.add_block bld "a" [ br ] Ir.Block.Halt with
  | exception Assert_failure _ -> ()
  | () -> Alcotest.fail "branch inside block body accepted"

let suite =
  ( "workload",
    [
      case "suite programs validate" test_suite_valid;
      case "suite is deterministic" test_suite_deterministic;
      case "suite terminates with real work" test_suite_terminates;
      case "scale multiplies iterations" test_scale_parameter;
      case "ammp has the biggest superblocks" test_ammp_has_biggest_superblocks;
      case "alias probes cause bounded rollbacks"
        test_alias_probe_produces_rollbacks;
      case "rmw pattern punishes only ALAT" test_rmw_punishes_alat_only;
      case "genprog superblocks deterministic" test_genprog_deterministic;
      case "genprog programs validate" test_genprog_program_valid;
      case "builder rejects branches in bodies"
        test_builder_rejects_branch_in_body;
    ] )
