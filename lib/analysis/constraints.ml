type kind =
  | Check
  | Anti

type edge = {
  first : int;
  second : int;
  kind : kind;
}

type allocation = {
  order : (int, int) Hashtbl.t;
  base : (int, int) Hashtbl.t;
  p_bit : (int, unit) Hashtbl.t;
  c_bit : (int, unit) Hashtbl.t;
}

let empty_allocation () =
  {
    order = Hashtbl.create 64;
    base = Hashtbl.create 64;
    p_bit = Hashtbl.create 64;
    c_bit = Hashtbl.create 64;
  }

let offset a id =
  match Hashtbl.find_opt a.order id, Hashtbl.find_opt a.base id with
  | Some o, Some b -> Some (o - b)
  | _ -> None

type problem =
  | Unsatisfied of string
  | Window of string

let validate a ~edges ~ar_count =
  let problems = ref [] in
  let note kind fmt =
    Printf.ksprintf (fun s -> problems := kind s :: !problems) fmt
  in
  let unsatisfied s = Unsatisfied s and window s = Window s in
  List.iter
    (fun e ->
      match Hashtbl.find_opt a.order e.first, Hashtbl.find_opt a.order e.second
      with
      | Some o1, Some o2 ->
        (match e.kind with
        | Check ->
          if not (o1 <= o2) then
            note unsatisfied "check-constraint %d->%d violated: order %d > %d"
              e.first e.second o1 o2
        | Anti ->
          if not (o1 < o2) then
            note unsatisfied "anti-constraint %d->%d violated: order %d >= %d"
              e.first e.second o1 o2)
      | None, _ ->
        note unsatisfied "constraint %d->%d: %d not allocated" e.first e.second
          e.first
      | _, None ->
        note unsatisfied "constraint %d->%d: %d not allocated" e.first e.second
          e.second)
    edges;
  Hashtbl.iter
    (fun id order ->
      match Hashtbl.find_opt a.base id with
      | None -> note window "instr %d has order but no base" id
      | Some base ->
        let off = order - base in
        if off < 0 then note window "instr %d has negative offset %d" id off;
        if off >= ar_count then
          note window "instr %d offset %d exceeds %d alias registers" id off
            ar_count)
    a.order;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (List.rev ps)

let adjacency edges =
  let out = Hashtbl.create 64 and indeg = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let l = Option.value (Hashtbl.find_opt out e.first) ~default:[] in
      Hashtbl.replace out e.first (e.second :: l);
      let d = Option.value (Hashtbl.find_opt indeg e.second) ~default:0 in
      Hashtbl.replace indeg e.second (d + 1))
    edges;
  (out, indeg)

let topological_order edges ~ids =
  let out, indeg = adjacency edges in
  let degree id = Option.value (Hashtbl.find_opt indeg id) ~default:0 in
  let module IS = Set.Make (Int) in
  let ready =
    ref (IS.of_list (List.filter (fun id -> degree id = 0) ids))
  in
  let in_ids = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_ids id ()) ids;
  let result = ref [] in
  let count = ref 0 in
  while not (IS.is_empty !ready) do
    let id = IS.min_elt !ready in
    ready := IS.remove id !ready;
    result := id :: !result;
    incr count;
    List.iter
      (fun succ ->
        if Hashtbl.mem in_ids succ then begin
          let d = degree succ - 1 in
          Hashtbl.replace indeg succ d;
          if d = 0 then ready := IS.add succ !ready
        end)
      (Option.value (Hashtbl.find_opt out id) ~default:[])
  done;
  if !count = List.length ids then Some (List.rev !result) else None

let cycle_edges edges ~ids =
  (* Kahn in reverse: iteratively strip nodes of in-degree zero; the
     edges among whatever survives all lie on (or between) cycles. *)
  let out, indeg = adjacency edges in
  let degree id = Option.value (Hashtbl.find_opt indeg id) ~default:0 in
  let alive = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace alive id ()) ids;
  let ready = Queue.create () in
  List.iter (fun id -> if degree id = 0 then Queue.add id ready) ids;
  while not (Queue.is_empty ready) do
    let id = Queue.pop ready in
    Hashtbl.remove alive id;
    List.iter
      (fun succ ->
        if Hashtbl.mem alive succ then begin
          let d = degree succ - 1 in
          Hashtbl.replace indeg succ d;
          if d = 0 then Queue.add succ ready
        end)
      (Option.value (Hashtbl.find_opt out id) ~default:[])
  done;
  List.filter
    (fun e -> Hashtbl.mem alive e.first && Hashtbl.mem alive e.second)
    edges

let has_cycle edges =
  let ids =
    List.concat_map (fun e -> [ e.first; e.second ]) edges
    |> List.sort_uniq Int.compare
  in
  Option.is_none (topological_order edges ~ids)

let pp_edge ppf e =
  Format.fprintf ppf "%d ->%s %d" e.first
    (match e.kind with Check -> "check" | Anti -> "anti")
    e.second
