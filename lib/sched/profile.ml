type t = {
  mutable alias_s : float;
  mutable depgraph_s : float;
  mutable hazards_s : float;
  mutable alloc_s : float;
  mutable sched_s : float;
  mutable emit_s : float;
  mutable regions : int;
  mutable instrs : int;
}

let create () =
  {
    alias_s = 0.0;
    depgraph_s = 0.0;
    hazards_s = 0.0;
    alloc_s = 0.0;
    sched_s = 0.0;
    emit_s = 0.0;
    regions = 0;
    instrs = 0;
  }

let now = Unix.gettimeofday

let time profile set f =
  match profile with
  | None -> f ()
  | Some p ->
    let t0 = now () in
    let r = f () in
    set p (now () -. t0);
    r

let add_alias p d = p.alias_s <- p.alias_s +. d
let add_depgraph p d = p.depgraph_s <- p.depgraph_s +. d
let add_hazards p d = p.hazards_s <- p.hazards_s +. d
let add_alloc p d = p.alloc_s <- p.alloc_s +. d
let add_sched p d = p.sched_s <- p.sched_s +. d
let add_emit p d = p.emit_s <- p.emit_s +. d

let note_region p ~instrs =
  p.regions <- p.regions + 1;
  p.instrs <- p.instrs + instrs

let total p =
  p.alias_s +. p.depgraph_s +. p.hazards_s +. p.alloc_s +. p.sched_s
  +. p.emit_s

let regions_per_second p =
  let s = total p in
  if s <= 0.0 then 0.0 else float_of_int p.regions /. s

let instrs_per_second p =
  let s = total p in
  if s <= 0.0 then 0.0 else float_of_int p.instrs /. s

let phases p =
  [
    ("alias", p.alias_s);
    ("depgraph", p.depgraph_s);
    ("hazards", p.hazards_s);
    ("alloc", p.alloc_s);
    ("sched", p.sched_s);
    ("emit", p.emit_s);
  ]

let pp ppf p =
  if total p > 0.0 then begin
    Format.fprintf ppf "  %-26s %.4f s (%d regions, %d instrs)@."
      "translate time" (total p) p.regions p.instrs;
    List.iter
      (fun (name, s) ->
        if s > 0.0 then
          Format.fprintf ppf "    %-24s %.4f s@." (name ^ " phase") s)
      (phases p);
    Format.fprintf ppf "  %-26s %.1f@." "regions / second"
      (regions_per_second p)
  end

let accumulate ~into p =
  into.alias_s <- into.alias_s +. p.alias_s;
  into.depgraph_s <- into.depgraph_s +. p.depgraph_s;
  into.hazards_s <- into.hazards_s +. p.hazards_s;
  into.alloc_s <- into.alloc_s +. p.alloc_s;
  into.sched_s <- into.sched_s +. p.sched_s;
  into.emit_s <- into.emit_s +. p.emit_s;
  into.regions <- into.regions + p.regions;
  into.instrs <- into.instrs + p.instrs

let reset p =
  p.alias_s <- 0.0;
  p.depgraph_s <- 0.0;
  p.hazards_s <- 0.0;
  p.alloc_s <- 0.0;
  p.sched_s <- 0.0;
  p.emit_s <- 0.0;
  p.regions <- 0;
  p.instrs <- 0
