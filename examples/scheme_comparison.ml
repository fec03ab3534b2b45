(* Compare every alias-detection scheme on one benchmark — the
   library-level version of `smarq_run compare`, reproducing in
   miniature the paper's Figure 15 story: ordered-queue SMARQ beats the
   Itanium-like scheme (false positives, no store reordering) and the
   16-register variant (overflow pressure), all of which beat running
   without hardware alias detection.

     dune exec examples/scheme_comparison.exe [benchmark] [scale] *)

let () =
  let bench = try Sys.argv.(1) with _ -> "ammp" in
  let scale = try int_of_string Sys.argv.(2) with _ -> 5 in
  let b =
    try Workload.Specfp.find bench
    with Not_found ->
      Printf.eprintf "unknown benchmark %s (have: %s)\n" bench
        (String.concat " " Workload.Specfp.names);
      exit 1
  in
  let program = Workload.Specfp.program ~scale b in
  Printf.printf "benchmark %s (scale %d): %s\n\n" bench scale
    b.Workload.Specfp.description;
  let reference = Vliw.Machine.create () in
  (match Frontend.Interp.run ~fuel:1_000_000_000 reference program with
  | Ok _ -> ()
  | Error Frontend.Interp.Out_of_fuel -> failwith "reference run ran out of fuel");
  let baseline =
    (Smarq.run_program ~scheme:Smarq.Scheme.None_ program).Runtime.Driver
      .stats
      .Runtime.Stats.total_cycles
  in
  Printf.printf "%-12s %12s %8s %10s %8s %10s\n" "scheme" "cycles" "speedup"
    "rollbacks" "AR used" "state";
  List.iter
    (fun scheme ->
      let r = Smarq.run_program ~scheme program in
      let st = r.Runtime.Driver.stats in
      let ok =
        Vliw.Machine.equal_guest_state reference r.Runtime.Driver.machine
      in
      Printf.printf "%-12s %12d %8.3f %10d %8d %10s\n"
        (Smarq.Scheme.name scheme) st.Runtime.Stats.total_cycles
        (float_of_int baseline /. float_of_int st.Runtime.Stats.total_cycles)
        st.Runtime.Stats.rollbacks
        st.Runtime.Stats.working_set.Sched.Working_set.smarq
        (if ok then "ok" else "MISMATCH"))
    [
      Smarq.Scheme.None_;
      Smarq.Scheme.Smarq 64;
      Smarq.Scheme.Smarq 16;
      Smarq.Scheme.Smarq_no_store_reorder 64;
      Smarq.Scheme.Alat;
      Smarq.Scheme.Efficeon;
    ]
