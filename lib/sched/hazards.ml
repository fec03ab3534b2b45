type t = {
  ids : int array;
  index : (int, int) Hashtbl.t;
  succ_start : int array;
  succ : int array;
  pred_start : int array;
  pred : int array;
  dropped : int array;
}

(* RAW, WAR, WAW edges over the straight-line body (positions), on
   arena-leased flat arrays: registers as compact codes, last-def as a
   direct array, uses-since-def as per-register token chains
   (newest-first).  Operands are read in place; the two callbacks are
   made once per build and see the current position through [cur].
   Zero allocation per instruction. *)
let register_edges_flat ~arena ~arr ~nr ~n_uses ~add =
  let module A = Analysis.Arena in
  let last_def = A.filled_ints arena ~slot:16 nr (-1) in
  let use_head = A.filled_ints arena ~slot:17 nr (-1) in
  let use_pos = A.ints arena ~slot:18 (max 1 n_uses) in
  let use_next = A.ints arena ~slot:19 (max 1 n_uses) in
  let tok = ref 0 and cur = ref 0 in
  let on_use r =
    let c = A.reg_code r and pos = !cur in
    if last_def.(c) >= 0 then add last_def.(c) pos;
    use_pos.(!tok) <- pos;
    use_next.(!tok) <- use_head.(c);
    use_head.(c) <- !tok;
    incr tok
  in
  let on_def r =
    let c = A.reg_code r and pos = !cur in
    if last_def.(c) >= 0 then add last_def.(c) pos;
    let u = ref use_head.(c) in
    while !u >= 0 do
      add use_pos.(!u) pos;
      u := use_next.(!u)
    done;
    last_def.(c) <- pos;
    use_head.(c) <- -1
  in
  for pos = 0 to Array.length arr - 1 do
    cur := pos;
    Ir.Instr.iter_uses on_use arr.(pos);
    Ir.Instr.iter_defs on_def arr.(pos)
  done

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
  let last_branch = ref (-1) in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      if Ir.Instr.is_side_exit i then begin
        if !last_branch >= 0 then add !last_branch pos;
        last_branch := pos
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
   trackers are arena arrays indexed by compact reg code; the callbacks
   that read and mark them are made once per build and share the
   current exit position and accumulator through refs. *)
let control_edges_reduced ~arena ~sb ~arr ~nr ~add =
  let module A = Analysis.Arena in
  branch_chain ~arr ~add;
  let n = Array.length arr in
  let exit_at = ref (-1) and acc = ref (-1) in
  (* forward sweep: latest preceding blocked exit per instruction *)
  let latest_exit = ref (-1) in
  let latest_live = A.filled_ints arena ~slot:20 nr (-1) in
  let mark_latest r = latest_live.(A.reg_code r) <- !exit_at in
  let latest_of r = acc := Int.max !acc latest_live.(A.reg_code r) in
  for idx = 0 to n - 1 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      latest_exit := idx;
      exit_at := idx;
      Ir.Reg.Set.iter mark_latest (Ir.Superblock.exit_live_out sb i.Ir.Instr.id)
    end
    else begin
      if Ir.Instr.is_store i then acc := !latest_exit
      else begin
        acc := -1;
        Ir.Instr.iter_defs latest_of i
      end;
      if !acc >= 0 then add !acc idx
    end
  done;
  (* backward sweep: nearest following blocked exit per instruction *)
  let next_exit = ref (-1) in
  let next_live = A.filled_ints arena ~slot:21 nr (-1) in
  let mark_next r = next_live.(A.reg_code r) <- !exit_at in
  let next_of r =
    let e = next_live.(A.reg_code r) in
    if e >= 0 && (!acc < 0 || e < !acc) then acc := e
  in
  for idx = n - 1 downto 0 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      next_exit := idx;
      exit_at := idx;
      Ir.Reg.Set.iter mark_next (Ir.Superblock.exit_live_out sb i.Ir.Instr.id)
    end
    else begin
      if Ir.Instr.is_store i then acc := !next_exit
      else begin
        acc := -1;
        Ir.Instr.iter_defs next_of i
      end;
      if !acc >= 0 then add idx !acc
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
   the matrix gate), sorted once — which also groups the keys by source
   position, each row ascending — then transitively reduced on the CSR
   form with an arena-leased reachability matrix.  The kept keys,
   sorted again, become the result's CSR rows directly: a successor row
   is its key run mirrored (descending), and the predecessor rows come
   from one counting pass and a fill from each row's end, so they are
   descending too.  Row order is observable: the mutation harness takes
   the first hazard edge it finds, and the verifier reports violations
   in walk order. *)
let build_flat ~arena ~sb ~arr ~n ~ids ~index ~deps ~policy =
  let module A = Analysis.Arena in
  (* one prescan: compact-code bound over defs, uses and exit live-out
     sets, plus the use-token count for the register-edge chains *)
  let max_code = ref (-1) and n_uses = ref 0 in
  let note r = max_code := Int.max !max_code (A.reg_code r) in
  let note_use r =
    note r;
    incr n_uses
  in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      Ir.Instr.iter_uses note_use i;
      Ir.Instr.iter_defs note i;
      if Ir.Instr.is_side_exit i then
        Ir.Reg.Set.iter note (Ir.Superblock.exit_live_out sb i.Ir.Instr.id))
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
  let succ_start = Array.make (n + 1) 0 and pred_start = Array.make (n + 1) 0 in
  for x = 0 to final_len - 1 do
    let key = final_keys.(x) in
    let a = key / n and b = key mod n in
    succ_start.(a + 1) <- succ_start.(a + 1) + 1;
    pred_start.(b + 1) <- pred_start.(b + 1) + 1
  done;
  for p = 1 to n do
    succ_start.(p) <- succ_start.(p) + succ_start.(p - 1);
    pred_start.(p) <- pred_start.(p) + pred_start.(p - 1)
  done;
  let succ = Array.make final_len 0 and pred = Array.make final_len 0 in
  (* next free predecessor slot per row, filled from the row's end *)
  let pred_fill = A.ints arena ~slot:23 (n + 1) in
  Array.blit pred_start 1 pred_fill 0 n;
  for x = 0 to final_len - 1 do
    let key = final_keys.(x) in
    let a = key / n and b = key mod n in
    (* row [a] is the key run [succ_start.(a), succ_start.(a + 1)) *)
    succ.(succ_start.(a) + succ_start.(a + 1) - 1 - x) <- b;
    pred_fill.(b) <- pred_fill.(b) - 1;
    pred.(pred_fill.(b)) <- a
  done;
  A.sort_ints dropped_keys.A.buf ~lo:0 ~hi:dropped_keys.A.len;
  let dropped =
    Analysis.Pair_key.sorted_unique dropped_keys.A.buf ~len:dropped_keys.A.len
  in
  { ids; index; succ_start; succ; pred_start; pred; dropped }

let build ~sb ~deps ~policy ?arena () =
  let body = sb.Ir.Superblock.body in
  let arr = Array.of_list body in
  let n = Array.length arr in
  let ids = Array.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id) arr in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri
    (fun pos id ->
      if Hashtbl.mem index id then
        invalid_arg (Printf.sprintf "Hazards.build: id %d repeats in the body" id);
      Hashtbl.add index id pos)
    ids;
  let arena =
    match arena with Some a -> a | None -> Analysis.Arena.create ()
  in
  build_flat ~arena ~sb ~arr ~n ~ids ~index ~deps ~policy

let iter_succs t p f =
  for x = t.succ_start.(p) to t.succ_start.(p + 1) - 1 do
    f t.succ.(x)
  done

let iter_preds t p f =
  for x = t.pred_start.(p) to t.pred_start.(p + 1) - 1 do
    f t.pred.(x)
  done

let position t id =
  match Hashtbl.find t.index id with p -> p | exception Not_found -> -1

(* a row as an id list, in row order *)
let row_ids t start row id =
  match Hashtbl.find_opt t.index id with
  | Some p ->
    let l = ref [] in
    for x = start.(p + 1) - 1 downto start.(p) do
      l := t.ids.(row.(x)) :: !l
    done;
    !l
  | None -> []

let preds t id = row_ids t t.pred_start t.pred id
let succs t id = row_ids t t.succ_start t.succ id
