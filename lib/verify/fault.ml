type kind =
  | Spurious
  | Repeat_pair
  | Storm
  | Tcache_invalidate
  | Tcache_flush

type counters = {
  mutable spurious : int;
  mutable repeat_pair : int;
  mutable storm : int;
  mutable tcache_invalidate : int;
  mutable tcache_flush : int;
}

type spec = {
  seed : int;
  rate : float;
}

type mode =
  | Random
  | Forced_storm

type plan = {
  prng : Prng.t;
  seed : int;
  rate : float;
  dispatch_rate : float;  (* [rate /. 8.0], the tcache event rate *)
  storm_length : int;
  mode : mode;
  counters : counters;
  mutable total : int;
  mutable storm_left : int;
  mutable sticky_pair : (int * int) option;
      (* the pair Repeat_pair and Storm keep re-reporting; picked from
         real executed instruction ids at first use *)
  (* per-region-execution injection state, rolled at detector reset *)
  mutable pending : kind option;
  mutable target : int;
  mutable mem_index : int;
  mutable seen : int array;
      (* ids of this execution's memory ops that passed, oldest first *)
  mutable seen_len : int;
  mutable last_violation : Hw.Detector.violation option;
}

let make ~seed ~rate ~storm_length ~mode =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  {
    prng = Prng.create ~seed;
    seed;
    rate;
    dispatch_rate = rate /. 8.0;
    storm_length = max 2 storm_length;
    mode;
    counters =
      {
        spurious = 0;
        repeat_pair = 0;
        storm = 0;
        tcache_invalidate = 0;
        tcache_flush = 0;
      };
    total = 0;
    (* a forced storm is armed from the first region execution *)
    storm_left = (match mode with Forced_storm -> max 2 storm_length | Random -> 0);
    sticky_pair = None;
    pending = None;
    target = 0;
    mem_index = 0;
    seen = [||];
    seen_len = 0;
    last_violation = None;
  }

let plan ?(storm_length = 16) ~seed ~rate () =
  make ~seed ~rate ~storm_length ~mode:Random

let forced_storm ?(length = max_int) ~seed () =
  make ~seed ~rate:1.0 ~storm_length:length ~mode:Forced_storm

let seed p = p.seed
let rate p = p.rate
let total_injected p = p.total
let counters p = p.counters

(* Region entry (detector reset): decide whether, what and where to
   inject during the coming region execution. *)
let decide_region p =
  p.mem_index <- 0;
  p.seen_len <- 0;
  if p.storm_left > 0 then begin
    p.storm_left <- p.storm_left - 1;
    p.pending <- Some Storm;
    (* storms hit the second memory operation, so the sticky pair gets
       a genuine (earlier setter, later checker) id pair and the pin
       rung pins two distinct operations *)
    p.target <- 1
  end
  else
    match p.mode with
    | Forced_storm -> p.pending <- None  (* the one storm has run dry *)
    | Random ->
      if Prng.below p.prng p.rate then begin
        let k =
          match Prng.int p.prng 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 -> Spurious
          | 6 | 7 | 8 -> Repeat_pair
          | _ -> Storm
        in
        if k = Storm then p.storm_left <- p.storm_length - 1;
        p.pending <- Some k;
        p.target <- Prng.int p.prng 8
      end
      else p.pending <- None

let count p k =
  p.total <- p.total + 1;
  match k with
  | Spurious -> p.counters.spurious <- p.counters.spurious + 1
  | Repeat_pair -> p.counters.repeat_pair <- p.counters.repeat_pair + 1
  | Storm -> p.counters.storm <- p.counters.storm + 1
  | Tcache_invalidate ->
    p.counters.tcache_invalidate <- p.counters.tcache_invalidate + 1
  | Tcache_flush -> p.counters.tcache_flush <- p.counters.tcache_flush + 1

let inject p kind (i : Ir.Instr.t) =
  let fresh_pair () =
    let checker = i.Ir.Instr.id in
    let n = p.seen_len in
    let setter =
      if n = 0 then checker
      else
        (* the draw indexes the ops newest first *)
        p.seen.(n - 1 - Prng.int p.prng n)
    in
    (setter, checker)
  in
  let setter, checker =
    match kind with
    | Spurious -> fresh_pair ()
    | Repeat_pair | Storm ->
      (match p.sticky_pair with
      | Some pr -> pr
      | None ->
        let pr = fresh_pair () in
        p.sticky_pair <- Some pr;
        pr)
    | Tcache_invalidate | Tcache_flush -> assert false
  in
  count p kind;
  let v = Hw.Detector.{ checker; setter; false_positive_prone = true } in
  p.last_violation <- Some v;
  v

let note_seen p id =
  let n = p.seen_len in
  if n = Array.length p.seen then begin
    let grown = Array.make (max 64 (2 * n)) 0 in
    Array.blit p.seen 0 grown 0 n;
    p.seen <- grown
  end;
  p.seen.(n) <- id;
  p.seen_len <- n + 1

let wrap p (d : Hw.Detector.t) =
  Hw.Detector.wrap
    ~name:(d.Hw.Detector.name ^ "+faults")
    ~reset:(fun () -> decide_region p)
    ~on_mem:(fun next i ~lo ~hi ->
      match next i ~lo ~hi with
      | Error _ as real ->
        (* a genuine violation: never claimed as injected *)
        p.last_violation <- None;
        real
      | Ok () ->
        let idx = p.mem_index in
        p.mem_index <- idx + 1;
        (match p.pending with
        | Some kind when idx = p.target ->
          p.pending <- None;
          Error (inject p kind i)
        | _ ->
          note_seen p i.Ir.Instr.id;
          Ok ()))
    d

let before_dispatch p _label =
  match p.mode with
  | Forced_storm -> Runtime.Driver.Keep
  | Random ->
    if p.rate > 0.0 && Prng.below p.prng p.dispatch_rate then
      if Prng.int p.prng 4 = 0 then begin
        count p Tcache_flush;
        Runtime.Driver.Flush
      end
      else begin
        count p Tcache_invalidate;
        Runtime.Driver.Invalidate
      end
    else Runtime.Driver.Keep

let hooks p =
  Runtime.Driver.
    {
      detector = wrap p;
      before_dispatch = before_dispatch p;
      is_injected =
        (fun v -> match p.last_violation with Some w -> w == v | None -> false);
      injected_count = (fun () -> p.total);
      deadline = (fun () -> false);
    }

let pp_counters ppf c =
  Format.fprintf ppf
    "spurious %d, repeat-pair %d, storm %d, tcache invalidate %d, tcache \
     flush %d"
    c.spurious c.repeat_pair c.storm c.tcache_invalidate c.tcache_flush
