type t = {
  ids : int array;
  index : (int, int) Hashtbl.t;
  preds_of : int list array;
  succs_of : int list array;
  dropped : (int * int) list;
}

(* RAW, WAR, WAW edges over the straight-line body (positions), on
   arena-leased flat arrays: registers as compact codes, last-def as a
   direct array, uses-since-def as per-register token chains
   (newest-first).  Zero allocation. *)
let register_edges_flat ~arena ~arr ~nr ~n_uses ~add =
  let module A = Analysis.Arena in
  let last_def = A.filled_ints arena ~slot:16 nr (-1) in
  let use_head = A.filled_ints arena ~slot:17 nr (-1) in
  let use_pos = A.ints arena ~slot:18 (max 1 n_uses) in
  let use_next = A.ints arena ~slot:19 (max 1 n_uses) in
  let tok = ref 0 in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          let c = A.reg_code r in
          if last_def.(c) >= 0 then add last_def.(c) pos;
          use_pos.(!tok) <- pos;
          use_next.(!tok) <- use_head.(c);
          use_head.(c) <- !tok;
          incr tok)
        (Ir.Instr.uses i);
      List.iter
        (fun r ->
          let c = A.reg_code r in
          if last_def.(c) >= 0 then add last_def.(c) pos;
          let u = ref use_head.(c) in
          while !u >= 0 do
            add use_pos.(!u) pos;
            u := use_next.(!u)
          done;
          last_def.(c) <- pos;
          use_head.(c) <- -1)
        (Ir.Instr.defs i))
    arr

(* Memory edges: hard dependences always; speculative ones unless the
   policy may drop them.  Dropped pairs go into [dropped] as
   [Pair_key.pack first second] keys. *)
let memory_edges ~arr ~pos_of ~deps ~policy ~dropped ~add =
  Analysis.Depgraph.iter_mem_deps deps (fun ~first ~second ~strength ->
      match (Hashtbl.find pos_of first, Hashtbl.find pos_of second) with
      | pf, ps -> (
        match strength with
        | Analysis.Depgraph.Hard -> add pf ps
        | Analysis.Depgraph.Speculative ->
          if Policy.may_drop_edge policy ~first:arr.(pf) ~second:arr.(ps) then
            Analysis.Arena.vec_push dropped (Analysis.Pair_key.pack first second)
          else add pf ps)
      | exception Not_found -> ())

(* Branch-branch program order: consecutive side exits chain, which
   also carries exit-fence transitivity for the reduced builder. *)
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

(* Reduced control edges: one backward and one forward sweep.

   Per instruction only two exit edges are emitted — to the nearest
   following exit that blocks it and from the latest preceding exit
   that blocks it.  The branch chain supplies transitivity: if j is
   blocked at exit e then it is blocked-by-order at every exit after e
   (forward) resp. before e (backward), so the chained graph has the
   same transitive closure as the all-pairs form (an edge for every
   blocked (instruction, exit) pair).  Since every
   latency is >= 1, equal closure means the list scheduler makes
   identical decisions (see DESIGN.md, "Translation pipeline").

   Blockedness is per-exit (it depends on the exit's live-out set), so
   the sweeps track, per register, the nearest exit at which that
   register is live; stores are blocked at every exit.  The per-register
   trackers are arena arrays indexed by compact reg code. *)
let control_edges_reduced ~arena ~sb ~arr ~nr ~add =
  let module A = Analysis.Arena in
  branch_chain ~arr ~add;
  let n = Array.length arr in
  (* forward sweep: latest preceding blocked exit per instruction *)
  let latest_exit = ref (-1) in
  let latest_live = A.filled_ints arena ~slot:20 nr (-1) in
  for idx = 0 to n - 1 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      let live = Ir.Superblock.exit_live_out sb i.Ir.Instr.id in
      latest_exit := idx;
      Ir.Reg.Set.iter (fun r -> latest_live.(A.reg_code r) <- idx) live
    end
    else begin
      let e =
        if Ir.Instr.is_store i then !latest_exit
        else
          List.fold_left
            (fun acc r -> max acc latest_live.(A.reg_code r))
            (-1) (Ir.Instr.defs i)
      in
      if e >= 0 then add e idx
    end
  done;
  (* backward sweep: nearest following blocked exit per instruction *)
  let next_exit = ref (-1) in
  let next_live = A.filled_ints arena ~slot:21 nr (-1) in
  for idx = n - 1 downto 0 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      let live = Ir.Superblock.exit_live_out sb i.Ir.Instr.id in
      next_exit := idx;
      Ir.Reg.Set.iter (fun r -> next_live.(A.reg_code r) <- idx) live
    end
    else begin
      let e =
        if Ir.Instr.is_store i then !next_exit
        else
          List.fold_left
            (fun acc r ->
              let e = next_live.(A.reg_code r) in
              if e < 0 then acc else if acc < 0 then e else min acc e)
            (-1) (Ir.Instr.defs i)
      in
      if e >= 0 then add idx e
    end
  done

(* The reduction is skipped (deterministically — the choice depends
   only on the graph, never on timing) for pathologically dense graphs,
   where the reachability matrix would not pay for itself. *)
let skip_reduce ~n ~edge_count =
  let row_bytes = (n + 7) / 8 in
  n = 0 || n > 8192 || edge_count * row_bytes > 64_000_000

(* Flat builder: edges are packed [a * n + b] keys pushed into an arena
   vector, deduplicated by an arena bitset (hashtable fallback above
   the matrix gate), sorted once — which also puts every successor row
   in ascending order — then transitively reduced on the CSR form with
   an arena-leased reachability matrix.  Kept edges materialize into
   descending [preds_of]/[succs_of] id lists, whether or not the
   reduction ran; every consumer folds or counts over the lists. *)
let build_flat ~arena ~sb ~arr ~n ~ids ~index ~deps ~policy =
  let module A = Analysis.Arena in
  (* one prescan: compact-code bound over defs, uses and exit live-out
     sets, plus the use-token count for the register-edge chains *)
  let max_code = ref (-1) and n_uses = ref 0 in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          max_code := max !max_code (A.reg_code r);
          incr n_uses)
        (Ir.Instr.uses i);
      List.iter (fun r -> max_code := max !max_code (A.reg_code r)) (Ir.Instr.defs i);
      if Ir.Instr.is_side_exit i then
        Ir.Reg.Set.iter
          (fun r -> max_code := max !max_code (A.reg_code r))
          (Ir.Superblock.exit_live_out sb i.Ir.Instr.id))
    arr;
  let nr = !max_code + 1 in
  let edge_keys = A.vec arena ~slot:16 in
  let use_bitset = n > 0 && n <= 8192 in
  let seen_bits =
    if use_bitset then Some (A.seen arena (n * n)) else None
  in
  let seen_tbl = if use_bitset then None else Some (Hashtbl.create 1024) in
  let add a b =
    if a <> b then begin
      let key = (a * n) + b in
      let fresh =
        match seen_bits with
        | Some bs ->
          if Analysis.Bitset.mem bs key then false
          else begin
            Analysis.Bitset.add bs key;
            true
          end
        | None ->
          let tbl = Option.get seen_tbl in
          if Hashtbl.mem tbl key then false
          else begin
            Hashtbl.replace tbl key ();
            true
          end
      in
      if fresh then A.vec_push edge_keys key
    end
  in
  register_edges_flat ~arena ~arr ~nr ~n_uses:!n_uses ~add;
  let dropped_keys = A.vec arena ~slot:18 in
  memory_edges ~arr ~pos_of:index ~deps ~policy ~dropped:dropped_keys ~add;
  control_edges_reduced ~arena ~sb ~arr ~nr ~add;
  A.sort_ints edge_keys.A.buf ~lo:0 ~hi:edge_keys.A.len;
  let edge_count = edge_keys.A.len in
  let final_keys, final_len =
    if skip_reduce ~n ~edge_count then (edge_keys.A.buf, edge_count)
    else begin
      (* CSR over positions; rows are ascending after the key sort *)
      let row_start = A.filled_ints arena ~slot:22 (n + 1) 0 in
      for x = 0 to edge_count - 1 do
        let a = edge_keys.A.buf.(x) / n in
        row_start.(a + 1) <- row_start.(a + 1) + 1
      done;
      for a = 1 to n do
        row_start.(a) <- row_start.(a) + row_start.(a - 1)
      done;
      let m = A.reach arena ~rows:n ~cols:n in
      let kept = A.vec arena ~slot:17 in
      for v = n - 1 downto 0 do
        for x = row_start.(v) to row_start.(v + 1) - 1 do
          let u = edge_keys.A.buf.(x) mod n in
          if not (Analysis.Bitset.Matrix.mem m ~row:v u) then begin
            Analysis.Bitset.Matrix.add m ~row:v u;
            Analysis.Bitset.Matrix.union_rows m ~dst:v ~src:u;
            A.vec_push kept ((v * n) + u)
          end
        done
      done;
      A.sort_ints kept.A.buf ~lo:0 ~hi:kept.A.len;
      (kept.A.buf, kept.A.len)
    end
  in
  let preds_of = Array.make (max 1 n) [] in
  let succs_of = Array.make (max 1 n) [] in
  for x = 0 to final_len - 1 do
    let key = final_keys.(x) in
    let a = key / n and b = key mod n in
    preds_of.(b) <- ids.(a) :: preds_of.(b);
    succs_of.(a) <- ids.(b) :: succs_of.(a)
  done;
  (* key order is pair order, so the sorted, deduplicated keys unpack
     into the normalized list *)
  A.sort_ints dropped_keys.A.buf ~lo:0 ~hi:dropped_keys.A.len;
  let dropped =
    Analysis.Pair_key.to_pairs dropped_keys.A.buf ~len:dropped_keys.A.len
  in
  { ids; index; preds_of; succs_of; dropped }

let build ~sb ~deps ~policy ?arena () =
  let body = sb.Ir.Superblock.body in
  let arr = Array.of_list body in
  let n = Array.length arr in
  let ids = Array.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id) arr in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun pos id -> Hashtbl.replace index id pos) ids;
  let arena =
    match arena with Some a -> a | None -> Analysis.Arena.create ()
  in
  build_flat ~arena ~sb ~arr ~n ~ids ~index ~deps ~policy

let preds t id =
  match Hashtbl.find_opt t.index id with
  | Some pos -> t.preds_of.(pos)
  | None -> []

let succs t id =
  match Hashtbl.find_opt t.index id with
  | Some pos -> t.succs_of.(pos)
  | None -> []
