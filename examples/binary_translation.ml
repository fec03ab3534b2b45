(* The full dynamic *binary* translation path: assemble a guest program
   into a byte image, throw the CFG away, disassemble the image, and
   run it through the dynamic optimization system.

   The image carries no branch-probability hints (a real binary would
   not either), so the runtime rediscovers branch bias by edge
   profiling before forming superblocks — and reaches the same steady
   state as the original CFG.

     dune exec examples/binary_translation.exe [benchmark] *)

let () =
  let name = try Sys.argv.(1) with _ -> "wupwise" in
  let bench =
    try Workload.Specfp.find name
    with Not_found ->
      Printf.eprintf "unknown benchmark %s\n" name;
      exit 1
  in
  let original = Workload.Specfp.program bench in
  let image = Binary.Codec.assemble original in
  Printf.printf "assembled %s: %d bytes (%d instruction records)\n" name
    (Bytes.length image)
    ((Bytes.length image - Binary.Image.header_bytes)
    / Binary.Image.record_bytes);
  Printf.printf "first record bytes:";
  for i = 16 to 31 do
    Printf.printf " %02x" (Char.code (Bytes.get image i))
  done;
  print_newline ();

  let decoded =
    match Binary.Codec.disassemble image with
    | Ok p -> p
    | Error e -> failwith (Binary.Codec.error_to_string e)
  in
  Printf.printf "disassembled into %d basic blocks (entry %s)\n"
    (List.length (Ir.Program.labels decoded))
    decoded.Ir.Program.entry;

  (* ground truth *)
  let reference = Vliw.Machine.create () in
  ignore (Frontend.Interp.run reference decoded);

  List.iter
    (fun scheme ->
      let r = Smarq.run_program ~scheme decoded in
      let st = r.Runtime.Driver.stats in
      Printf.printf
        "%-8s %9d cycles, %d regions built, state %s\n"
        (Smarq.Scheme.name scheme) st.Runtime.Stats.total_cycles
        st.Runtime.Stats.regions_built
        (if Vliw.Machine.equal_guest_state reference r.Runtime.Driver.machine
         then "matches interpreter"
         else "MISMATCH")
    )
    [ Smarq.Scheme.None_; Smarq.Scheme.Smarq 64 ];
  print_endline
    "\nno probability hints survived assembly; the speedup above came\n\
     entirely from runtime edge profiling plus hardware alias detection."
