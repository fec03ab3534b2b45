(* Test oracle for [Sched.Hazards]: the seed's list-and-hashtable
   hazard builder, moved here verbatim.  It emits the explicit
   all-pairs, unreduced graph — every register dependence, every
   non-dropped memory dependence and one edge per blocked
   (instruction, exit) pair — which the reduced builder must match in
   transitive closure and dropped set (as packed keys).  It shares no code with the
   library builder: only the public [Hazards.t] record, the dependence
   graph's iterator and the policy's drop rule. *)

module Hazards = Sched.Hazards
module Policy = Sched.Policy

(* RAW, WAR, WAW edges over the straight-line body (positions). *)
let register_edges ~arr ~add =
  let last_def : (Ir.Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let uses_since_def : (Ir.Reg.t, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          (* RAW: reader depends on the last writer *)
          (match Hashtbl.find_opt last_def r with
          | Some d -> add d pos
          | None -> ());
          let l = Option.value (Hashtbl.find_opt uses_since_def r) ~default:[] in
          Hashtbl.replace uses_since_def r (pos :: l))
        (Ir.Instr.uses i);
      List.iter
        (fun r ->
          (* WAW on the previous writer, WAR on readers since then *)
          (match Hashtbl.find_opt last_def r with
          | Some d -> add d pos
          | None -> ());
          List.iter
            (fun u -> add u pos)
            (Option.value (Hashtbl.find_opt uses_since_def r) ~default:[]);
          Hashtbl.replace last_def r pos;
          Hashtbl.replace uses_since_def r [])
        (Ir.Instr.defs i))
    arr

(* Memory edges: hard dependences always; speculative ones unless the
   policy may drop them. *)
let memory_edges ~arr ~pos_of ~deps ~policy ~add =
  let dropped = ref [] in
  Analysis.Depgraph.iter_mem_deps deps (fun ~first ~second ~strength ->
      match Hashtbl.find_opt pos_of first, Hashtbl.find_opt pos_of second with
      | Some pf, Some ps ->
        (match strength with
        | Analysis.Depgraph.Hard -> add pf ps
        | Analysis.Depgraph.Speculative ->
          if Policy.may_drop_edge policy ~first:arr.(pf) ~second:arr.(ps) then
            dropped := (first, second) :: !dropped
          else add pf ps)
      | _ -> ());
  !dropped

let crosses_exit_blocked (i : Ir.Instr.t) live =
  Ir.Instr.is_store i
  || List.exists (fun r -> Ir.Reg.Set.mem r live) (Ir.Instr.defs i)

(* Branch-branch program order: consecutive side exits chain. *)
let branch_chain ~arr ~add =
  let last_branch = ref None in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      if Ir.Instr.is_side_exit i then begin
        (match !last_branch with
        | Some b -> add b pos
        | None -> ());
        last_branch := Some pos
      end)
    arr

(* Control edges around side exits: for every (instruction, exit)
   pair whose crossing is blocked, an explicit edge — O(n^2). *)
let control_edges ~sb ~arr ~add =
  branch_chain ~arr ~add;
  let n = Array.length arr in
  let exits = ref [] in
  for idx = 0 to n - 1 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      let live = Ir.Superblock.exit_live_out sb i.Ir.Instr.id in
      (* earlier instructions that must stay before this exit *)
      for k = 0 to idx - 1 do
        let j = arr.(k) in
        if (not (Ir.Instr.is_side_exit j)) && crosses_exit_blocked j live then
          add k idx
      done;
      exits := (idx, live) :: !exits
    end
    else
      (* later instruction blocked from hoisting above earlier exits *)
      List.iter
        (fun (bpos, live) -> if crosses_exit_blocked i live then add bpos idx)
        !exits
  done

(* The public record from successor position lists (any order, no
   duplicates): rows descending, like the library's. *)
let of_rows ~ids ~index ~dropped succs_pos =
  let n = Array.length ids in
  let preds_pos = Array.make (max 1 n) [] in
  Array.iteri
    (fun a l -> List.iter (fun b -> preds_pos.(b) <- a :: preds_pos.(b)) l)
    succs_pos;
  let csr rows =
    let start = Array.make (n + 1) 0 in
    for p = 0 to n - 1 do
      start.(p + 1) <- start.(p) + List.length rows.(p)
    done;
    let flat = Array.make start.(n) 0 in
    for p = 0 to n - 1 do
      List.iteri
        (fun k x -> flat.(start.(p) + k) <- x)
        (List.sort (fun x y -> compare y x) rows.(p))
    done;
    (start, flat)
  in
  let succ_start, succ = csr succs_pos and pred_start, pred = csr preds_pos in
  { Hazards.ids; index; succ_start; succ; pred_start; pred; dropped }

let build_arrays ~sb ~arr ~n ~ids ~index ~deps ~policy =
  let succs_pos = Array.make (max 1 n) [] in
  let seen = Hashtbl.create 1024 in
  let add a b =
    if a <> b then begin
      let key = (a * n) + b in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        succs_pos.(a) <- b :: succs_pos.(a)
      end
    end
  in
  register_edges ~arr ~add;
  let dropped = memory_edges ~arr ~pos_of:index ~deps ~policy ~add in
  control_edges ~sb ~arr ~add;
  (* the record's key layout, packed here rather than through the
     library's packer: (first, second) is first * 2^31 + second, so
     the sorted tuples pack into ascending keys *)
  let dropped =
    Array.of_list
      (List.map (fun (a, b) -> (a lsl 31) lor b) (List.sort_uniq compare dropped))
  in
  of_rows ~ids ~index ~dropped succs_pos

let build ~sb ~deps ~policy =
  let arr = Array.of_list sb.Ir.Superblock.body in
  let n = Array.length arr in
  let ids = Array.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id) arr in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun pos id -> Hashtbl.replace index id pos) ids;
  build_arrays ~sb ~arr ~n ~ids ~index ~deps ~policy

(* The transitive reduction of [h] by its definition, as id lists per
   body position: the successors of [a] that no other successor of [a]
   reaches, and the matching predecessor lists, both in descending
   position order.  Reachability is a boolean row per position, filled
   in reverse body order (edges only run forward).  A reduced graph
   with the same closure as [h] must have exactly these rows. *)
let reduced_rows (h : Hazards.t) =
  let n = Array.length h.Hazards.ids in
  let succ_pos p =
    List.init
      (h.Hazards.succ_start.(p + 1) - h.Hazards.succ_start.(p))
      (fun k -> h.Hazards.succ.(h.Hazards.succ_start.(p) + k))
  in
  let reach = Array.init n (fun _ -> Array.make n false) in
  for p = n - 1 downto 0 do
    List.iter
      (fun s ->
        reach.(p).(s) <- true;
        Array.iteri (fun x r -> if r then reach.(p).(x) <- true) reach.(s))
      (succ_pos p)
  done;
  let succs = Array.make n [] and preds = Array.make n [] in
  for a = 0 to n - 1 do
    let direct = succ_pos a in
    let via = Array.make n false in
    List.iter
      (fun c -> Array.iteri (fun x r -> if r then via.(x) <- true) reach.(c))
      direct;
    List.iter (fun b -> if not via.(b) then succs.(a) <- b :: succs.(a)) direct
  done;
  let desc l = List.sort (fun x y -> compare y x) l in
  Array.iteri (fun a l -> List.iter (fun b -> preds.(b) <- a :: preds.(b)) l) succs;
  let to_ids l = List.map (fun p -> h.Hazards.ids.(p)) (desc l) in
  (Array.map to_ids preds, Array.map to_ids succs)
