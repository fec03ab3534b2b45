(* Nodes are small non-negative ints (the SMARQ allocator's slots), so
   every per-node table is an array grown on demand.  Out-edges are an
   int linked list per node, newest first ([head] into the parallel
   [e_dst]/[e_next] vectors); a removed edge is unlinked and its cell
   left behind.  The depth-first search behind [try_add_anti] marks
   visited nodes with a per-search stamp and collects the component in
   a scratch array, so a search allocates nothing once the tables are
   warm: only the verdict's node list, on a shift or a cycle.  The edge
   vectors and the search's scratch come from the arena when there is
   one. *)
type t = {
  arena : Arena.t option;
  mutable torder : int array;
  mutable known : Bytes.t;  (* '\001' once [init_t] has named the node *)
  mutable head : int array;  (* first out-edge cell, -1 for none *)
  mutable mark : int array;  (* stamp of the last search that saw it *)
  e_dst : Arena.vec;
  e_next : Arena.vec;
  mutable stamp : int;
  mutable stack : int array;
  mutable comp : int array;  (* the last search's component *)
  mutable comp_len : int;
}

let create ?arena () =
  let vec slot =
    match arena with
    | Some a -> Arena.vec a ~slot
    | None -> { Arena.buf = Array.make 16 0; len = 0 }
  in
  let nodes = 16 in
  {
    arena;
    torder = Array.make nodes 0;
    known = Bytes.make nodes '\000';
    head = Array.make nodes (-1);
    mark = Array.make nodes 0;
    e_dst = vec 12;
    e_next = vec 13;
    stamp = 0;
    stack = [||];
    comp = [||];
    comp_len = 0;
  }

let grow a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* make room for node [v] *)
let reserve t v =
  let cap = Array.length t.torder in
  if v >= cap then begin
    let len = Int.max (2 * cap) (v + 1) in
    t.torder <- grow t.torder len 0;
    t.head <- grow t.head len (-1);
    t.mark <- grow t.mark len 0;
    let k = Bytes.make len '\000' in
    Bytes.blit t.known 0 k 0 cap;
    t.known <- k
  end

let init_t t v x =
  if v < 0 then invalid_arg "Cycle_detect.init_t: negative node";
  reserve t v;
  Bytes.unsafe_set t.known v '\001';
  t.torder.(v) <- x;
  x

let get_t t v =
  if v < 0 || v >= Array.length t.torder || Bytes.get t.known v = '\000' then
    raise Not_found;
  t.torder.(v)

let set_t t v x = t.torder.(v) <- x

let add_edge t x y =
  reserve t (Int.max x y);
  let k = t.e_dst.len in
  Arena.vec_push t.e_dst y;
  Arena.vec_push t.e_next t.head.(x);
  t.head.(x) <- k

let remove_edge t x y =
  if x < Array.length t.head then begin
    let dst = t.e_dst.buf and next = t.e_next.buf in
    let prev = ref (-1) and e = ref t.head.(x) in
    while !e >= 0 && dst.(!e) <> y do
      prev := !e;
      e := next.(!e)
    done;
    if !e >= 0 then
      if !prev < 0 then t.head.(x) <- next.(!e) else next.(!prev) <- next.(!e)
  end

(* Mark every node reachable from [start], itself included, with a
   fresh stamp and list them in [comp.(0 .. comp_len - 1)]. *)
let search t start =
  let cap = Array.length t.torder in
  if Array.length t.stack < cap then begin
    match t.arena with
    | Some a ->
      t.stack <- Arena.ints a ~slot:45 cap;
      t.comp <- Arena.ints a ~slot:46 cap
    | None ->
      t.stack <- Array.make cap 0;
      t.comp <- Array.make cap 0
  end;
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  t.mark.(start) <- stamp;
  t.stack.(0) <- start;
  let sp = ref 1 in
  t.comp_len <- 0;
  while !sp > 0 do
    decr sp;
    let v = t.stack.(!sp) in
    t.comp.(t.comp_len) <- v;
    t.comp_len <- t.comp_len + 1;
    let e = ref t.head.(v) in
    while !e >= 0 do
      let w = t.e_dst.buf.(!e) in
      if t.mark.(w) <> stamp then begin
        t.mark.(w) <- stamp;
        t.stack.(!sp) <- w;
        incr sp
      end;
      e := t.e_next.buf.(!e)
    done
  done

let component t = List.init t.comp_len (fun k -> t.comp.(k))

let reachable_from t start =
  search t start;
  component t

type verdict =
  | Ok_already
  | Ok_shifted of int list
  | Cycle of int list

let try_add_anti t ~x ~y =
  let tx = get_t t x and ty = get_t t y in
  if tx < ty then begin
    add_edge t x y;
    Ok_already
  end
  else begin
    search t y;
    if t.mark.(x) = t.stamp then Cycle (component t)
    else begin
      (* Shift the component reachable from y above x so T x < T y. *)
      let delta = tx - (ty - 1) in
      for k = 0 to t.comp_len - 1 do
        let z = t.comp.(k) in
        t.torder.(z) <- t.torder.(z) + delta
      done;
      add_edge t x y;
      Ok_shifted (component t)
    end
  end

let lower_for_check t ~x ~y =
  let tx = get_t t x and ty = get_t t y in
  if tx >= ty then set_t t x (ty - 1);
  add_edge t x y
