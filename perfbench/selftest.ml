(* Determinism test for the benchmark, at tiny size.  Each workload runs
   as a child process: twice end-to-end and twice traced on seed 1,
   once end-to-end on seed 2.  Same-seed runs must agree exactly on
   sim_cycles, on alloc_mwords when the workload runs on the calling
   domain alone, and on the cache, fault and rollback counters of the
   traced run; seed 2 must generate different inputs; every run must
   pass its checks with ok_share 1.0. *)

let exact_layers =
  [
    "runtime.blocks_dispatched";
    "vliw.region_entries";
    "vliw.rollbacks";
    "tcache.misses";
    "tcache.hit_ratio";
    "tcache.chain_ratio";
    "tcache.invalidations";
    "verify.injected_faults";
    "runtime.reoptimizations";
    "runtime.degraded_regions";
    "sim.region_cycles";
    "sched.bundles";
    "opt.fallback_ratio";
    "check.rejects";
  ]

let read_lines ic =
  let rec go acc =
    match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* the text of a JSON string or number that follows [key] in [line] *)
let field line key =
  let k = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length k in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = k then Some (i + m)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      while !stop < n && not (List.mem line.[!stop] [ ','; '}' ]) do
        incr stop
      done;
      String.sub line start (!stop - start))
    (find 0)

let metric line name = field line (name ^ "\":{\"value")

type child = { report : string; result : string }

let child ~exe ~workload ~seed ~trace =
  let args =
    [ exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1";
      "--trace"; string_of_int trace; "--tiny" ]
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = read_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, result :: rest ->
    let report = List.find (fun l -> field l "report" <> None) rest in
    Ok { report; result }
  | _ -> Error (Printf.sprintf "%s seed %d trace %d did not exit cleanly" workload seed trace)

let check_workload ~exe workload =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error (workload ^ ": " ^ s)) fmt in
  let same what a b = if a = b then Ok () else fail "%s differs between same-seed runs: %s vs %s" what a b in
  let get line name =
    match metric line name with Some v -> Ok v | None -> fail "no metric %s" name
  in
  let* a = child ~exe ~workload ~seed:1 ~trace:0 in
  let* b = child ~exe ~workload ~seed:1 ~trace:0 in
  let* c = child ~exe ~workload ~seed:2 ~trace:0 in
  let* ta = child ~exe ~workload ~seed:1 ~trace:1 in
  let* tb = child ~exe ~workload ~seed:1 ~trace:1 in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        let* ok = get r.result "ok_share" in
        if float_of_string ok = 1.0 then Ok () else fail "ok_share %s" ok)
      (Ok ()) [ a; b; c ]
  in
  let* sa = get a.result "sim_cycles" in
  let* sb = get b.result "sim_cycles" in
  let* () = same "sim_cycles" sa sb in
  let* () =
    if field a.report "worker_domains" = Some "0" then
      let* ma = get a.result "alloc_mwords" in
      let* mb = get b.result "alloc_mwords" in
      same "alloc_mwords" ma mb
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let* x = get ta.result name in
        let* y = get tb.result name in
        same name x y)
      (Ok ()) exact_layers
  in
  let inputs r = Option.value (field r.report "inputs") ~default:"" in
  let* () = same "inputs" (inputs a) (inputs b) in
  if inputs a = inputs c then fail "seed 2 generated the same inputs as seed 1"
  else Ok ()

let run ~exe names =
  List.fold_left
    (fun code workload ->
      match check_workload ~exe workload with
      | Ok () ->
        Printf.printf "selftest %s: ok\n%!" workload;
        code
      | Error msg ->
        Printf.printf "selftest FAILED: %s\n%!" msg;
        1)
    0 names
