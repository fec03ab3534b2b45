type kind =
  | Real
  | Extended

type strength =
  | Hard
  | Speculative

type edge = {
  first : int;
  second : int;
  kind : kind;
  strength : strength;
}

type elimination =
  | Load_forwarded of {
      source : int;
      eliminated : int;
    }
  | Store_overwritten of {
      eliminated : int;
      overwriter : int;
    }

(* Flat struct-of-arrays edge store.  Edge [k] is
   (e_first.(k), e_second.(k), flags) with the kind and strength packed
   into one byte; [into_*] is a CSR adjacency over distinct target ids
   (edges grouped by [second] in occurrence order — the order the
   allocator consumes them in).  No per-edge records survive
   construction; the list-returning accessors below materialize on
   demand for the cold consumers (verifier, mutation harness, tests). *)
type t = {
  n_edges : int;
  e_first : int array;
  e_second : int array;
  e_flags : Bytes.t;  (* bit 0: Extended, bit 1: Hard *)
  into_slot : (int, int) Hashtbl.t;  (* target instr id -> CSR slot *)
  into_start : int array;  (* n_targets + 1 *)
  into_edge : int array;  (* edge indices grouped by target slot *)
}

let flag_of_edge e =
  (match e.kind with Real -> 0 | Extended -> 1)
  lor match e.strength with Speculative -> 0 | Hard -> 2

let kind_at t k = if Char.code (Bytes.get t.e_flags k) land 1 = 0 then Real else Extended

let strength_at t k =
  if Char.code (Bytes.get t.e_flags k) land 2 = 0 then Speculative else Hard

let edge_at t k =
  {
    first = t.e_first.(k);
    second = t.e_second.(k);
    kind = kind_at t k;
    strength = strength_at t k;
  }

(* Assemble the final store from per-edge writers.  [fill] must call
   [set] exactly [n_edges] times, in edge order. *)
let assemble ~n_edges fill =
  let e_first = Array.make (max 1 n_edges) 0 in
  let e_second = Array.make (max 1 n_edges) 0 in
  let e_flags = Bytes.make (max 1 n_edges) '\000' in
  let pos = ref 0 in
  fill (fun ~first ~second ~flags ->
      let k = !pos in
      incr pos;
      e_first.(k) <- first;
      e_second.(k) <- second;
      Bytes.set e_flags k (Char.chr flags));
  assert (!pos = n_edges);
  let into_slot = Hashtbl.create 64 in
  let n_targets = ref 0 in
  for k = 0 to n_edges - 1 do
    if not (Hashtbl.mem into_slot e_second.(k)) then begin
      Hashtbl.replace into_slot e_second.(k) !n_targets;
      incr n_targets
    end
  done;
  let n_targets = !n_targets in
  let into_start = Array.make (n_targets + 1) 0 in
  for k = 0 to n_edges - 1 do
    let s = Hashtbl.find into_slot e_second.(k) in
    into_start.(s + 1) <- into_start.(s + 1) + 1
  done;
  for s = 1 to n_targets do
    into_start.(s) <- into_start.(s) + into_start.(s - 1)
  done;
  let cursor = Array.copy into_start in
  let into_edge = Array.make (max 1 n_edges) 0 in
  for k = 0 to n_edges - 1 do
    let s = Hashtbl.find into_slot e_second.(k) in
    into_edge.(cursor.(s)) <- k;
    cursor.(s) <- cursor.(s) + 1
  done;
  { n_edges; e_first; e_second; e_flags; into_slot; into_start; into_edge }

let of_edge_list all =
  let n_edges = List.length all in
  assemble ~n_edges (fun set ->
      List.iter
        (fun e -> set ~first:e.first ~second:e.second ~flags:(flag_of_edge e))
        all)

(* Real dependences: X before Y, may access same memory, >= 1 store.

   The swept builder produces the edge list of the pairwise definition
   (every store-carrying pair with a may/must verdict, in (i, j)
   order) without calling the pairwise verdict:

   - Memory operations are bucketed by (base register,
     [May_alias.generation]): two same-base operations see an
     intervening redefinition exactly when their generations differ.
   - Within a bucket the displacement intervals decide exactly, so a
     disp-sorted sweep emits only the overlapping (hard) pairs and
     never touches the provably disjoint ones.
   - Across buckets every store-carrying pair is an edge (speculative
     unless a recorded alias or a constant-address proof upgrades or
     removes it), so enumerating them costs O(1) per emitted edge.
   - Recorded alias pairs are folded in out of band: they are the only
     way a within-bucket disjoint pair becomes an edge.

   Edges are emitted as packed [(i * n + j) * 2 + hard?] keys into an
   arena vector and sorted at the end, which restores the pairwise
   (i, j)-lexicographic order.  All node attributes live in
   arena-leased struct-of-arrays buffers (bases as compact reg codes,
   absent constant addresses as [min_int]); the maps are open-addressed
   arena intmaps.  Nothing here allocates once the arena is warm. *)
let no_caddr = min_int

let real_edges_swept ~arena ~body ~alias ~emit_edges =
  let module A = Arena in
  let n = List.fold_left (fun acc i -> if Ir.Instr.is_memory i then acc + 1 else acc) 0 body in
  if n = 0 then ()
  else begin
    let id = A.ints arena ~slot:0 n in
    let bcode = A.ints arena ~slot:1 n in
    let disp = A.ints arena ~slot:2 n in
    let width = A.ints arena ~slot:3 n in
    let store = A.ints arena ~slot:4 n in
    let caddr = A.ints arena ~slot:5 n in
    let gen = A.ints arena ~slot:6 n in
    let slot_of_id = A.map arena ~slot:1 in
    let next = ref 0 in
    let max_gen = ref 0 in
    List.iter
      (fun (ins : Ir.Instr.t) ->
        match ins.op with
        | Ir.Instr.Load { addr = a; width = w; _ }
        | Ir.Instr.Store { addr = a; width = w; _ } ->
          let k = !next in
          incr next;
          id.(k) <- ins.id;
          bcode.(k) <- A.reg_code a.Ir.Instr.base;
          disp.(k) <- a.Ir.Instr.disp;
          width.(k) <- w;
          store.(k) <- (if Ir.Instr.is_store ins then 1 else 0);
          caddr.(k) <-
            (match May_alias.const_address alias ins with
            | Some v -> v
            | None -> no_caddr);
          gen.(k) <- May_alias.generation alias ins;
          max_gen := max !max_gen gen.(k);
          A.map_set slot_of_id ins.id k
        | _ -> ())
      body;
    (* dense bucket ids per (base code, generation); a generation can
       exceed the memory-op count, so the key spreads by the largest *)
    let bucket_ids = A.map arena ~slot:2 in
    let bucket = A.ints arena ~slot:7 n in
    let n_buckets = ref 0 in
    for k = 0 to n - 1 do
      let key = (bcode.(k) * (!max_gen + 1)) + gen.(k) in
      bucket.(k) <-
        (match A.map_get bucket_ids key ~default:(-1) with
        | -1 ->
          let b = !n_buckets in
          incr n_buckets;
          A.map_set bucket_ids key b;
          b
        | b -> b)
    done;
    let n_buckets = !n_buckets in
    let keys = A.vec arena ~slot:0 in
    let emit i j hard =
      A.vec_push keys ((((i * n) + j) lsl 1) lor if hard then 1 else 0)
    in
    (* bucket membership as a counting-sorted CSR (ascending slots,
       like the seed's prepend-backwards member lists) *)
    let bstart = A.filled_ints arena ~slot:8 (n_buckets + 1) 0 in
    for k = 0 to n - 1 do
      bstart.(bucket.(k) + 1) <- bstart.(bucket.(k) + 1) + 1
    done;
    for b = 1 to n_buckets do
      bstart.(b) <- bstart.(b) + bstart.(b - 1)
    done;
    let bitems = A.ints arena ~slot:9 n in
    let cursor = A.ints arena ~slot:10 (n_buckets + 1) in
    Array.blit bstart 0 cursor 0 (n_buckets + 1);
    for k = 0 to n - 1 do
      bitems.(cursor.(bucket.(k))) <- k;
      cursor.(bucket.(k)) <- cursor.(bucket.(k)) + 1
    done;
    (* pass 1: within-bucket disp-interval sweep (hard edges only) *)
    for b = 0 to n_buckets - 1 do
      let lo = bstart.(b) and hi = bstart.(b + 1) in
      if hi - lo >= 2 then begin
        A.sort_by bitems ~lo ~hi ~cmp:(fun a b ->
            let c = Int.compare disp.(a) disp.(b) in
            if c <> 0 then c else Int.compare a b);
        for u = lo to hi - 2 do
          let du = disp.(bitems.(u)) and wu = width.(bitems.(u)) in
          let v = ref (u + 1) in
          while !v < hi && disp.(bitems.(!v)) < du + wu do
            let a = bitems.(u) and b = bitems.(!v) in
            if store.(a) = 1 || store.(b) = 1 then
              emit (min a b) (max a b) true;
            incr v
          done
        done
      end
    done;
    (* pass 2: cross-bucket pairs, O(1) per emitted edge.  Per-bucket
       membership chains (newest-first, like the seed's prepend lists)
       and bucket registries as arena vectors. *)
    let mem_head = A.filled_ints arena ~slot:11 n_buckets (-1) in
    let store_head = A.filled_ints arena ~slot:12 n_buckets (-1) in
    let mem_next = A.ints arena ~slot:13 n in
    let store_next = A.ints arena ~slot:14 n in
    let mem_buckets = A.vec arena ~slot:1 in
    let store_buckets = A.vec arena ~slot:2 in
    for j = 0 to n - 1 do
      let bj = bucket.(j) in
      let classify i =
        (* same bucket is excluded at the registry level *)
        if May_alias.is_known alias id.(i) id.(j) then 1
        else if bcode.(i) = bcode.(j) then
          (* same base, different generation: may-alias unless the
             certifier proved the pair disjoint *)
          if May_alias.certified alias id.(i) id.(j) then -1 else 0
        else if caddr.(i) <> no_caddr && caddr.(j) <> no_caddr then begin
          let d1 = caddr.(i) and d2 = caddr.(j) in
          if d1 < d2 + width.(j) && d2 < d1 + width.(i) then 1 else -1
        end
        else if May_alias.certified alias id.(i) id.(j) then -1
        else 0
      in
      let scan (bs : A.vec) head next =
        (* newest-first, matching the seed's prepended registry list *)
        for r = bs.A.len - 1 downto 0 do
          let b = bs.A.buf.(r) in
          if b <> bj then begin
            let i = ref head.(b) in
            while !i >= 0 do
              (match classify !i with
              | 1 -> emit !i j true
              | 0 -> emit !i j false
              | _ -> ());
              i := next.(!i)
            done
          end
        done
      in
      if store.(j) = 1 then scan mem_buckets mem_head mem_next
      else scan store_buckets store_head store_next;
      if mem_head.(bj) < 0 then A.vec_push mem_buckets bj;
      mem_next.(j) <- mem_head.(bj);
      mem_head.(bj) <- j;
      if store.(j) = 1 then begin
        if store_head.(bj) < 0 then A.vec_push store_buckets bj;
        store_next.(j) <- store_head.(bj);
        store_head.(bj) <- j
      end
    done;
    (* pass 3: recorded alias pairs that fall inside a bucket but do not
       overlap — the one case the sweeps above never visit *)
    List.iter
      (fun (a, b) ->
        match
          A.map_get slot_of_id a ~default:(-1), A.map_get slot_of_id b ~default:(-1)
        with
        | -1, _ | _, -1 -> ()
        | i, j when i <> j ->
          let i, j = (min i j, max i j) in
          if
            (store.(i) = 1 || store.(j) = 1)
            && bucket.(i) = bucket.(j)
            && not
                 (disp.(i) < disp.(j) + width.(j)
                 && disp.(j) < disp.(i) + width.(i))
          then emit i j true
        | _ -> ())
      (May_alias.known_pairs alias);
    A.sort_ints keys.A.buf ~lo:0 ~hi:keys.A.len;
    emit_edges ~n ~id ~keys
  end

let find_instr body id = List.find_opt (fun (i : Ir.Instr.t) -> i.id = id) body

(* EXTENDED-DEPENDENCE 1: load Z forwarded from X; every intervening
   store Y that may alias X yields Y ->dep X (backward order). *)
let ext_load_forwarded ~alias ~source ~between =
  List.filter_map
    (fun (y : Ir.Instr.t) ->
      if not (Ir.Instr.is_store y) then None
      else
        match May_alias.verdict alias y source with
        | May_alias.No_alias -> None
        | May_alias.Must_alias ->
          Some
            {
              first = y.id;
              second = source.Ir.Instr.id;
              kind = Extended;
              strength = Hard;
            }
        | May_alias.May_alias ->
          Some
            {
              first = y.id;
              second = source.Ir.Instr.id;
              kind = Extended;
              strength = Speculative;
            })
    between

(* EXTENDED-DEPENDENCE 2: store X eliminated, overwritten by Z; every
   intervening load Y that may alias Z yields Z ->dep Y. *)
let ext_store_overwritten ~alias ~overwriter ~between =
  List.filter_map
    (fun (y : Ir.Instr.t) ->
      if not (Ir.Instr.is_load y) then None
      else
        match May_alias.verdict alias overwriter y with
        | May_alias.No_alias -> None
        | May_alias.Must_alias ->
          Some
            {
              first = overwriter.Ir.Instr.id;
              second = y.id;
              kind = Extended;
              strength = Hard;
            }
        | May_alias.May_alias ->
          Some
            {
              first = overwriter.Ir.Instr.id;
              second = y.id;
              kind = Extended;
              strength = Speculative;
            })
    between

let ext_edges ~body ~alias ~eliminated =
  List.concat_map
    (fun (elim, between) ->
      match elim with
      | Load_forwarded { source; eliminated = _ } ->
        (match find_instr body source with
        | Some src -> ext_load_forwarded ~alias ~source:src ~between
        | None -> [])
      | Store_overwritten { eliminated = _; overwriter } ->
        (match find_instr body overwriter with
        | Some ovw -> ext_store_overwritten ~alias ~overwriter:ovw ~between
        | None -> []))
    eliminated

(* Deduplicate by (first, second, kind): an extended edge may coincide
   with another extended edge from a different elimination. *)
let dedup_edges all =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let key = (e.first, e.second, e.kind) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    all

let build ~body ~alias ?(eliminated = []) ?arena () =
  let ext = ext_edges ~body ~alias ~eliminated in
  let arena = match arena with Some a -> a | None -> Arena.create () in
  (* the swept pass emits unique pairs, so only sorted-adjacent
     duplicate keys (a pair recorded twice by pass 3) and ext-vs-ext
     collisions need deduplication — real and extended edges can
     never collide on (first, second, kind) *)
  let ext = dedup_edges ext in
  let n_ext = List.length ext in
  let result = ref None in
  real_edges_swept ~arena ~body ~alias ~emit_edges:(fun ~n ~id ~keys ->
      let n_real = ref 0 in
      for k = 0 to keys.Arena.len - 1 do
        if k = 0 || keys.Arena.buf.(k) <> keys.Arena.buf.(k - 1) then
          incr n_real
      done;
      let n_real = !n_real in
      result :=
        Some
          (assemble ~n_edges:(n_real + n_ext) (fun set ->
               for k = 0 to keys.Arena.len - 1 do
                 let key = keys.Arena.buf.(k) in
                 if k = 0 || key <> keys.Arena.buf.(k - 1) then begin
                   let pair = key lsr 1 in
                   set ~first:id.(pair / n) ~second:id.(pair mod n)
                     ~flags:(if key land 1 = 1 then 2 else 0)
                 end
               done;
               List.iter
                 (fun e ->
                   set ~first:e.first ~second:e.second
                     ~flags:(flag_of_edge e))
                 ext)));
  match !result with
  | Some t -> t
  | None -> of_edge_list ext (* no memory operations in the body *)

let edges t =
  let acc = ref [] in
  for k = t.n_edges - 1 downto 0 do
    acc := edge_at t k :: !acc
  done;
  !acc

let iter_edges t f =
  for k = 0 to t.n_edges - 1 do
    f ~first:t.e_first.(k) ~second:t.e_second.(k) ~kind:(kind_at t k)
      ~strength:(strength_at t k)
  done

let edges_into t id =
  match Hashtbl.find_opt t.into_slot id with
  | Some s ->
    let acc = ref [] in
    for x = t.into_start.(s + 1) - 1 downto t.into_start.(s) do
      acc := edge_at t t.into_edge.(x) :: !acc
    done;
    !acc
  | None -> []

let iter_into t id f =
  match Hashtbl.find t.into_slot id with
  | s ->
    for x = t.into_start.(s) to t.into_start.(s + 1) - 1 do
      let k = t.into_edge.(x) in
      f ~first:t.e_first.(k) ~second:t.e_second.(k) ~kind:(kind_at t k)
        ~strength:(strength_at t k)
    done
  | exception Not_found -> ()

let iter_mem_deps t f =
  for k = 0 to t.n_edges - 1 do
    match kind_at t k with
    | Real -> f ~first:t.e_first.(k) ~second:t.e_second.(k) ~strength:(strength_at t k)
    | Extended -> ()
  done

let pp ppf t =
  iter_edges t (fun ~first ~second ~kind ~strength ->
      Format.fprintf ppf "%d ->dep %d (%s, %s)@." first second
        (match kind with Real -> "real" | Extended -> "ext")
        (match strength with Hard -> "hard" | Speculative -> "spec"))
