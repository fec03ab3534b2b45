(* Guest binary images: encoding, disassembly, and the full
   dynamic-binary-translation path with edge profiling. *)

open Helpers
module I = Ir.Instr

let roundtrip p =
  match Binary.Codec.disassemble (Binary.Codec.assemble p) with
  | Ok p2 -> p2
  | Error e -> Alcotest.fail (Binary.Codec.error_to_string e)

let run_interp p =
  let m = Vliw.Machine.create () in
  ignore (Frontend.Interp.run ~fuel:100_000_000 m p);
  m

let test_image_header () =
  let img = Binary.Image.create ~entry_index:2 ~count:5 in
  let b = Binary.Image.to_bytes img in
  Alcotest.(check int) "size" (16 + (5 * 16)) (Bytes.length b);
  (match Binary.Image.of_bytes b with
  | Ok img2 ->
    Alcotest.(check int) "entry" 2 (Binary.Image.entry_index img2);
    Alcotest.(check int) "count" 5 (Binary.Image.count img2)
  | Error e -> Alcotest.fail (Binary.Image.error_to_string e));
  Bytes.set b 0 'X';
  Alcotest.(check bool) "bad magic" true
    (Binary.Image.of_bytes b = Error Binary.Image.Bad_magic)

let test_truncated_image () =
  let img = Binary.Image.create ~entry_index:0 ~count:3 in
  let b = Binary.Image.to_bytes img in
  let cut = Bytes.sub b 0 (Bytes.length b - 8) in
  Alcotest.(check bool) "truncated" true
    (Binary.Image.of_bytes cut
    = Error (Binary.Image.Truncated_records { count = 3 }))

let test_suite_roundtrip_state () =
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let p = Workload.Specfp.program b in
      let p2 = roundtrip p in
      (match Ir.Program.validate p2 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" b.Workload.Specfp.name m);
      if not (Vliw.Machine.equal_guest_state (run_interp p) (run_interp p2))
      then Alcotest.failf "%s roundtrip diverged" b.Workload.Specfp.name)
    Workload.Specfp.suite

let test_instruction_count_preserved () =
  let b = Workload.Specfp.find "wupwise" in
  let p = Workload.Specfp.program b in
  let p2 = roundtrip p in
  (* plain instruction payload is identical; only terminator encodings
     (BR+JMP pairs, trampolines) may add control records *)
  let plain prog =
    List.fold_left
      (fun acc (blk : Ir.Block.t) -> acc + List.length blk.Ir.Block.body)
      0 (Ir.Program.blocks prog)
  in
  Alcotest.(check int) "same plain instruction count" (plain p) (plain p2)

let test_unencodable_rejected () =
  reset_ids ();
  let temp_instr = mk (I.Mov (Ir.Reg.T 5, I.Imm 1)) in
  let blk = Ir.Block.make ~label:"a" ~body:[ temp_instr ] Ir.Block.Halt in
  let p = Ir.Program.make ~entry:"a" [ blk ] in
  (match Binary.Codec.assemble p with
  | exception Binary.Codec.Unencodable _ -> ()
  | _ -> Alcotest.fail "temporaries must not encode");
  reset_ids ();
  let annotated =
    I.with_annot (ld (f 1) (r 1) 0) (Ir.Annot.queue ~offset:0 ~p:true ~c:false)
  in
  let blk2 = Ir.Block.make ~label:"a" ~body:[ annotated ] Ir.Block.Halt in
  let p2 = Ir.Program.make ~entry:"a" [ blk2 ] in
  match Binary.Codec.assemble p2 with
  | exception Binary.Codec.Unencodable _ -> ()
  | _ -> Alcotest.fail "annotated guest code must not encode"

let test_probability_hints_do_not_survive () =
  let b = Workload.Specfp.find "wupwise" in
  let p = Workload.Specfp.program b in
  let p2 = roundtrip p in
  let all_half =
    List.for_all
      (fun (blk : Ir.Block.t) ->
        match blk.Ir.Block.terminator with
        | Ir.Block.Cond { taken_probability; _ } -> taken_probability = 0.5
        | Ir.Block.Fallthrough _ | Ir.Block.Halt -> true)
      (Ir.Program.blocks p2)
  in
  Alcotest.(check bool) "no hints in the binary" true all_half

let test_edge_profiling_recovers_bias () =
  let pr = Frontend.Profiler.create () in
  Alcotest.(check bool) "no verdict before samples" true
    (Frontend.Profiler.edge_bias pr ~from_:"a" ~taken:"t" ~fallthrough:"f"
    = None);
  for _ = 1 to 30 do
    Frontend.Profiler.note_edge pr "a" "t"
  done;
  for _ = 1 to 10 do
    Frontend.Profiler.note_edge pr "a" "f"
  done;
  match Frontend.Profiler.edge_bias pr ~from_:"a" ~taken:"t" ~fallthrough:"f"
  with
  | Some bias -> Alcotest.(check (float 0.01)) "bias" 0.75 bias
  | None -> Alcotest.fail "expected a verdict"

let test_dbt_performance_parity () =
  (* a disassembled binary must reach the same steady state as the
     original CFG: edge profiling substitutes for the lost hints *)
  let b = Workload.Specfp.find "wupwise" in
  let p = Workload.Specfp.program ~scale:2 b in
  let p2 = roundtrip p in
  let cycles prog =
    (Smarq.run_program
       ~config:{ Runtime.Config.default with fuel = 200_000_000 }
       ~scheme:(Smarq.Scheme.Smarq 64) prog).Runtime.Driver.stats.Runtime.Stats.total_cycles
  in
  let c1 = cycles p and c2 = cycles p2 in
  let ratio = float_of_int c2 /. float_of_int c1 in
  Alcotest.(check bool)
    (Printf.sprintf "decoded within 2%% of original (%.3f)" ratio)
    true
    (ratio < 1.02)

let test_dbt_equivalence_all_schemes () =
  let b = Workload.Specfp.find "art" in
  let p2 = roundtrip (Workload.Specfp.program b) in
  let ref_m = run_interp p2 in
  List.iter
    (fun scheme ->
      let r =
        Smarq.run_program
          ~config:{ Runtime.Config.default with fuel = 100_000_000 }
          ~scheme p2
      in
      if not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
      then
        Alcotest.failf "decoded art diverged under %s"
          (Smarq.Scheme.name scheme))
    [ Smarq.Scheme.Smarq 64; Smarq.Scheme.Alat; Smarq.Scheme.None_ ]

(* ---- malformed images: typed errors, never an exception ---- *)

(* record [i]'s byte [k] in an assembled image *)
let record_byte i k = Binary.Image.header_bytes + (i * Binary.Image.record_bytes) + k

(* [mov r1 <- r2; ld f1 <- [r3+8] (width 8); st r1 -> [r3+16] (width 4);
   halt]: records 0..3 *)
let small_image () =
  reset_ids ();
  let body =
    [ mk (I.Mov (r 1, I.Reg (r 2))); ld ~width:8 (f 1) (r 3) 8;
      st (I.Reg (r 1)) (r 3) 16 ]
  in
  Binary.Codec.assemble
    (Ir.Program.make ~entry:"a" [ Ir.Block.make ~label:"a" ~body Ir.Block.Halt ])

let decodes_to name want b =
  Alcotest.(check string) name
    (match want with
    | None -> "ok"
    | Some e -> Binary.Codec.error_to_string e)
    (match Binary.Codec.disassemble b with
    | Ok _ -> "ok"
    | Error e -> Binary.Codec.error_to_string e)

let test_register_bit7_rejected () =
  decodes_to "unmutated image decodes" None (small_image ());
  let with_byte i k v =
    let b = small_image () in
    Bytes.set_uint8 b (record_byte i k) v;
    b
  in
  decodes_to "destination 0x81" (Some (Binary.Codec.Bad_register { index = 0; byte = 0x81 }))
    (with_byte 0 1 0x81);
  decodes_to "operand-b 0x82"
    (Some (Binary.Codec.Bad_register { index = 0; byte = 0x82 }))
    (with_byte 0 3 0x82);
  (* 0xff marks an immediate only in an operand slot; a load's base
     register has no immediate form *)
  decodes_to "load base 0xff"
    (Some (Binary.Codec.Bad_register { index = 1; byte = 0xff }))
    (with_byte 1 2 0xff);
  decodes_to "operand-b 0xff is an immediate" None (with_byte 0 3 0xff)

let test_memory_width_rejected () =
  let with_width i w =
    let b = small_image () in
    Bytes.set_uint8 b (record_byte i 5) w;
    b
  in
  decodes_to "load width 4" None (with_width 1 4);
  decodes_to "store width 8" None (with_width 2 8);
  List.iter
    (fun (i, w) ->
      decodes_to
        (Printf.sprintf "record %d width %d" i w)
        (Some (Binary.Codec.Bad_width { index = i; width = w }))
        (with_width i w))
    [ (1, 0); (1, 2); (2, 1); (2, 16); (2, 255) ]

(* Byte strings for the never-raises property: arbitrary bytes, an
   image header over arbitrary records, and single-byte mutations of
   every assembled suite program. *)
let suite_images =
  lazy
    (Array.of_list
       (List.map
          (fun b -> Binary.Codec.assemble (Workload.Specfp.program b))
          Workload.Specfp.suite))

let gen_image_bytes =
  let open QCheck.Gen in
  let raw = map Bytes.of_string (string_size (int_range 0 96)) in
  let framed =
    map
      (fun (entry, count, records) ->
        let b = Bytes.make Binary.Image.header_bytes '\000' in
        Bytes.set_int32_le b 0 Binary.Image.magic;
        Bytes.set_int32_le b 8 (Int32.of_int entry);
        Bytes.set_int32_le b 12 (Int32.of_int count);
        Bytes.cat b (Bytes.of_string records))
      (triple (int_range (-1) 6) (int_range (-1) 6)
         (string_size (map (fun n -> n * 16) (int_range 0 6))))
  in
  let mutated =
    map
      (fun (which, pos, v) ->
        let images = Lazy.force suite_images in
        let b = Bytes.copy images.(which mod Array.length images) in
        Bytes.set_uint8 b (pos mod Bytes.length b) v;
        b)
      (triple nat nat (int_range 0 255))
  in
  frequency [ (1, raw); (2, framed); (4, mutated) ]

let arb_image_bytes =
  QCheck.make
    ~print:(fun b ->
      Printf.sprintf "%d bytes: %s" (Bytes.length b)
        (String.concat " "
           (List.init (min 48 (Bytes.length b)) (fun i ->
                Printf.sprintf "%02x" (Bytes.get_uint8 b i)))))
    gen_image_bytes

let disassemble_never_raises b =
  match Binary.Codec.disassemble b with
  | Ok p -> (
    match Ir.Program.validate p with
    | Ok () -> true
    | Error m -> QCheck.Test.fail_reportf "decoded program invalid: %s" m)
  | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let suite =
  ( "binary",
    [
      case "image header roundtrip" test_image_header;
      case "truncated images rejected" test_truncated_image;
      case "suite roundtrips bit-exactly in behaviour"
        test_suite_roundtrip_state;
      case "plain instruction payload preserved"
        test_instruction_count_preserved;
      case "region-only content is unencodable" test_unencodable_rejected;
      case "probability hints do not survive assembly"
        test_probability_hints_do_not_survive;
      case "edge profiling recovers branch bias"
        test_edge_profiling_recovers_bias;
      case "decoded binaries optimize at parity" test_dbt_performance_parity;
      case "decoded binaries stay equivalent, all schemes"
        test_dbt_equivalence_all_schemes;
      case "register byte with bit 7 set rejected" test_register_bit7_rejected;
      case "memory width other than 4 or 8 rejected"
        test_memory_width_rejected;
      qcase ~count:500 "disassemble never raises (random and mutated images)"
        arb_image_bytes disassemble_never_raises;
    ] )
