type t = {
  torder : (int, int) Hashtbl.t;
  out : (int, int list) Hashtbl.t;
}

let create () = { torder = Hashtbl.create 64; out = Hashtbl.create 64 }

let init_t t id v =
  Hashtbl.replace t.torder id v;
  v

let get_t t id = Hashtbl.find t.torder id
let set_t t id v = Hashtbl.replace t.torder id v

let add_edge t x y =
  let l = Option.value (Hashtbl.find_opt t.out x) ~default:[] in
  Hashtbl.replace t.out x (y :: l)

let remove_edge t x y =
  match Hashtbl.find_opt t.out x with
  | None -> ()
  | Some l ->
    let removed = ref false in
    let l' =
      List.filter
        (fun s ->
          if (not !removed) && s = y then begin
            removed := true;
            false
          end
          else true)
        l
    in
    Hashtbl.replace t.out x l'

let reachable_from t start =
  let visited = Hashtbl.create 32 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      List.iter go (Option.value (Hashtbl.find_opt t.out id) ~default:[])
    end
  in
  go start;
  Hashtbl.fold (fun id () acc -> id :: acc) visited []

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
    let h = reachable_from t y in
    if List.mem x h then Cycle h
    else begin
      (* Shift the component reachable from y above x so T x < T y. *)
      let delta = tx - (ty - 1) in
      List.iter (fun z -> set_t t z (get_t t z + delta)) h;
      add_edge t x y;
      Ok_shifted h
    end
  end

let lower_for_check t ~x ~y =
  let tx = get_t t x and ty = get_t t y in
  if tx >= ty then set_t t x (ty - 1);
  add_edge t x y
