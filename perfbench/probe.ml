(* The traced run's recorder: spans around the benchmark's calls into
   each layer's public functions, per-layer counters, and per-layer
   latency samples.  Everything stays in memory until [write].

   Every entry point takes a [t option]; [None] is the untraced run and
   costs one pattern match per call. *)

type span = {
  id : int;
  name : string;
  rid : int;  (** request id shared by every span of one request *)
  parent : int;  (** id of the enclosing span, 0 at the root *)
  start : float;
  stop : float;
}

type t = {
  origin : float;
  mutable spans : span list;
  mutable next_id : int;
  mutable current : int;
  mutable rid : int;
  sums : (string, float) Hashtbl.t;
  samples : (string, Runtime.Percentiles.t) Hashtbl.t;
}

let now = Unix.gettimeofday

let create () =
  {
    origin = now ();
    spans = [];
    next_id = 1;
    current = 0;
    rid = 0;
    sums = Hashtbl.create 64;
    samples = Hashtbl.create 8;
  }

let add t key v =
  match t with
  | None -> ()
  | Some r ->
    let old = Option.value (Hashtbl.find_opt r.sums key) ~default:0.0 in
    Hashtbl.replace r.sums key (old +. v)

let count t key n = add t key (float_of_int n)

let sample t key v =
  match t with
  | None -> ()
  | Some r ->
    let p =
      match Hashtbl.find_opt r.samples key with
      | Some p -> p
      | None ->
        let p = Runtime.Percentiles.create () in
        Hashtbl.replace r.samples key p;
        p
    in
    Runtime.Percentiles.add p v

(* A span named [name] also adds its duration to the sum [name ^ "_s"],
   so a layer's busy time is the sum of the spans around its calls. *)
let span t name f =
  match t with
  | None -> f ()
  | Some r ->
    let id = r.next_id and parent = r.current in
    r.next_id <- id + 1;
    r.current <- id;
    let start = now () in
    let v = f () in
    let stop = now () in
    r.current <- parent;
    r.spans <- { id; name; rid = r.rid; parent; start; stop } :: r.spans;
    add t (name ^ "_s") (stop -. start);
    v

(* A request is the root span of one request's spans.  It is opened and
   closed explicitly because a closed loop overlaps requests: spans run
   [within] a request become its children and carry its id. *)
type request = { req_id : int; req_rid : int; req_start : float }

let start_request t ~rid =
  Option.map
    (fun r ->
      let id = r.next_id in
      r.next_id <- id + 1;
      { req_id = id; req_rid = rid; req_start = now () })
    t

let within t req f =
  match (t, req) with
  | Some r, Some q ->
    let current = r.current and rid = r.rid in
    r.current <- q.req_id;
    r.rid <- q.req_rid;
    let v = f () in
    r.current <- current;
    r.rid <- rid;
    v
  | _ -> f ()

let finish_request t req =
  match (t, req) with
  | Some r, Some q ->
    r.spans <-
      {
        id = q.req_id;
        name = "request";
        rid = q.req_rid;
        parent = 0;
        start = q.req_start;
        stop = now ();
      }
      :: r.spans
  | _ -> ()

let request t ~rid f =
  let req = start_request t ~rid in
  let v = within t req f in
  finish_request t req;
  v

let sum t key =
  match t with
  | None -> 0.0
  | Some r -> Option.value (Hashtbl.find_opt r.sums key) ~default:0.0

let percentile t key q =
  match t with
  | None -> 0.0
  | Some r -> (
    match Hashtbl.find_opt r.samples key with
    | Some p -> Runtime.Percentiles.percentile p q
    | None -> 0.0)

let span_count t = match t with None -> 0 | Some r -> List.length r.spans

(* One JSON object per span, in order of span id (the order spans
   opened), times relative to the recorder's creation. *)
let write t path =
  match t with
  | None -> ()
  | Some r ->
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
          s.id s.name s.rid s.parent (s.start -. r.origin) (s.stop -. r.origin))
      (List.sort (fun a b -> compare a.id b.id) r.spans);
    close_out oc
