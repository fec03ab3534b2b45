(* The repository benchmark: one command, three workloads.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] measures the end-to-end metrics with nothing traced;
   [--trace 1] runs the same passes untraced and then traced, and
   reports the per-layer metrics and the tracing overhead.  The last
   stdout line is one JSON object with the keys [correct], [attempted],
   [failed] and [metrics]; an earlier [{"report": ...}] line records
   host facts and sample counts.  Any wrong output exits 1.  [--selftest] checks that
   the benchmark is deterministic (see README.md). *)

let workloads =
  [ Exec_fig15.workload; Translate_verify.workload; Serve_faults.workload ]

(* a timed phase never runs past this, whatever [--seconds] says *)
let max_timed_s = 120.0

(* the end-to-end run keeps going until this many latency samples lie
   beyond request_s.p95 *)
let min_beyond_p95 = 10

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** tiny inputs, one set-up, exactly one pass per phase *)
}

let trace_dir = ".perfbench"
let setup_reps opts = if opts.tiny then 1 else 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentiles of the request latencies, and how many
   samples lie beyond p95.  A failed request has infinite latency, so
   it misses every limit. *)
type latency = { p50 : float; p95 : float; beyond_p95 : int }

let latency outcomes =
  let p = Runtime.Percentiles.create () in
  List.iter (fun (o : Bench.outcome) -> Runtime.Percentiles.add p o.Bench.latency_s) outcomes;
  let p95 = Runtime.Percentiles.percentile p 0.95 in
  {
    p50 = Runtime.Percentiles.percentile p 0.5;
    p95;
    beyond_p95 = List.length (List.filter (fun (o : Bench.outcome) -> o.Bench.latency_s > p95) outcomes);
  }

(* Set up [reps] times, keeping the last instance; set-up time is the
   median. *)
let setups opts (w : Bench.workload) =
  let rec go k times =
    let t0 = Bench.now () in
    let inst = w.Bench.setup ~seed:opts.seed ~tiny:opts.tiny in
    let times = (Bench.now () -. t0) :: times in
    if k >= setup_reps opts then (inst, median times)
    else begin
      inst.Bench.shutdown ();
      go (k + 1) times
    end
  in
  go 1 []

type phase = {
  passes : int;
  outcomes : Bench.outcome list;
  first_sim : int;
  wall_s : float;
}

(* Run whole passes until [enough] says stop (checked after each pass). *)
let run_phase (inst : Bench.instance) probe ~enough =
  let t0 = Bench.now () in
  let rec go k acc first =
    let p = inst.Bench.run_pass probe in
    let acc = List.rev_append p.Bench.outcomes acc in
    let first = if k = 1 then p.Bench.sim_cycles else first in
    let elapsed = Bench.now () -. t0 in
    if enough ~passes:k ~elapsed acc || elapsed >= max_timed_s then
      { passes = k; outcomes = List.rev acc; first_sim = first; wall_s = elapsed }
    else go (k + 1) acc first
  in
  go 1 [] 0

(* a tiny run stops after one pass; otherwise [rule] decides *)
let stop_when opts rule ~passes ~elapsed acc =
  if opts.tiny then passes >= 1 else rule ~elapsed acc

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let host_facts opts (inst : Bench.instance) ~setup_s ~(ph : phase) ~(lat : latency) =
  Printf.sprintf
    "{\"report\":{\"workload\":%S,\"seed\":%d,\"trace\":%b,\"nproc\":%d,\"ocaml\":%S,\"worker_domains\":%d,\"setup_reps\":%d,\"setup_s\":%s,\"passes\":%d,\"requests\":%d,\"request_s.p95\":%s,\"samples_beyond_p95\":%d,\"timed_s\":%s,\"inputs\":%S}}"
    opts.workload opts.seed opts.trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version inst.Bench.worker_domains (setup_reps opts) (json_float setup_s)
    ph.passes (List.length ph.outcomes) (json_float lat.p95) lat.beyond_p95
    (json_float ph.wall_s) inst.Bench.inputs

let print_result ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %s %s\n" name (json_float v) unit) metrics;
  let body =
    String.concat ","
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_float v) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0) attempted failed body

let failures outcomes = List.length (List.filter (fun (o : Bench.outcome) -> not o.Bench.ok) outcomes)

let end_to_end opts w =
  let inst, setup_s = setups opts w in
  let s0 = Gc.quick_stat () in
  let ph =
    run_phase inst None
      ~enough:
        (stop_when opts (fun ~elapsed acc ->
             elapsed >= opts.seconds && (latency acc).beyond_p95 >= min_beyond_p95))
  in
  inst.Bench.shutdown ();
  (* read after the worker domains are joined: quick_stat then counts
     every domain's allocation *)
  let s1 = Gc.quick_stat () in
  let lat = latency ph.outcomes in
  let n = List.length ph.outcomes in
  let failed = failures ph.outcomes in
  let gc = Bench.gc_delta s0 s1 in
  print_endline (host_facts opts inst ~setup_s ~ph ~lat);
  print_result ~attempted:n ~failed
    [
      ("setup_s", "s", setup_s);
      ("requests_per_s", "1/s", float_of_int (n - failed) /. ph.wall_s);
      ("request_s.p50", "s", lat.p50);
      ("request_s.p95", "s", lat.p95);
      ("sim_cycles", "cycles", float_of_int ph.first_sim);
      ("alloc_mwords", "Mword", gc.Bench.minor_words /. 1e6 /. float_of_int ph.passes);
      ( "peak_heap_mb",
        "MB",
        float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ("ok_share", "ratio", float_of_int (n - failed) /. float_of_int n);
    ];
  failed

let traced opts (w : Bench.workload) =
  let inst, setup_s = setups opts w in
  let plain =
    run_phase inst None
      ~enough:(stop_when opts (fun ~elapsed _ -> elapsed >= opts.seconds /. 2.0))
  in
  let probe = Some (Probe.create ()) in
  let g0 = Gc.quick_stat () in
  let ph = run_phase inst probe ~enough:(fun ~passes ~elapsed:_ _ -> passes >= plain.passes) in
  let g1 = Gc.quick_stat () in
  inst.Bench.shutdown ();
  let path =
    Filename.concat trace_dir
      (Printf.sprintf "trace-%s-seed%d.jsonl" opts.workload opts.seed)
  in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  Probe.write probe path;
  let outcomes = plain.outcomes @ ph.outcomes in
  let failed = failures outcomes in
  print_endline (host_facts opts inst ~setup_s ~ph ~lat:(latency ph.outcomes));
  Printf.printf "spans %d written to %s\n" (Probe.span_count probe) path;
  print_result ~attempted:(List.length outcomes) ~failed
    (Bench.layer_metrics probe ~passes:ph.passes ~gc:(Bench.gc_delta g0 g1)
       ~overhead_s:((ph.wall_s -. plain.wall_s) /. float_of_int ph.passes));
  failed

let run opts =
  match List.find_opt (fun (w : Bench.workload) -> w.Bench.name = opts.workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ opts.workload);
    2
  | Some w -> (
    match if opts.trace then traced opts w else end_to_end opts w with
    | 0 -> 0
    | n ->
      Printf.eprintf "%s: %d request(s) failed their check\n" opts.workload n;
      1
    | exception Bench.Incorrect msg ->
      prerr_endline msg;
      1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and selftest = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " exec-fig15 | translate-verify | serve-faults");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed-phase budget");
      ("--trace", Arg.Set_int trace, " 1 = per-layer traced run");
      ("--tiny", Arg.Set tiny, " tiny inputs, one set-up, one pass (the determinism test)");
      ("--selftest", Arg.Set selftest, " determinism test at tiny size");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "main.exe [options]";
  if !selftest then
    exit
      (Selftest.run ~exe:Sys.executable_name
         (List.map (fun (w : Bench.workload) -> w.Bench.name) workloads));
  if !seconds < 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bad options";
    exit 2
  end;
  exit
    (run
       { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = !tiny })
