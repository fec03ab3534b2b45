(* Test oracle for [Sched.Hazards]: the seed's list-and-hashtable
   hazard builder, moved here verbatim.  It emits the explicit
   all-pairs, unreduced graph — every register dependence, every
   non-dropped memory dependence and one edge per blocked
   (instruction, exit) pair — which the reduced builder must match in
   transitive closure and dropped set.  It shares no code with the
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
  let preds_of = Array.make (max 1 n) [] in
  let succs_of = Array.make (max 1 n) [] in
  for a = 0 to n - 1 do
    List.iter
      (fun b ->
        preds_of.(b) <- ids.(a) :: preds_of.(b);
        succs_of.(a) <- ids.(b) :: succs_of.(a))
      succs_pos.(a)
  done;
  let dropped = List.sort_uniq compare dropped in
  { Hazards.ids; index; preds_of; succs_of; dropped }

let build ~sb ~deps ~policy =
  let arr = Array.of_list sb.Ir.Superblock.body in
  let n = Array.length arr in
  let ids = Array.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id) arr in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun pos id -> Hashtbl.replace index id pos) ids;
  build_arrays ~sb ~arr ~n ~ids ~index ~deps ~policy
