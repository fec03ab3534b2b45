(* Sharded translation cache: (tenant, worker) -> one private store.

   Two axes, both load-bearing:

   - per {b tenant}, so one tenant's eviction pressure cannot evict
     another's translations — each shard is created with the tenant
     budget as its capacity, which makes budget isolation structural
     rather than accounted;
   - per {b worker} domain, so a store is only ever touched by the one
     domain the scheduler routed that tenant's request to — shard
     lookups take the table mutex, but the store operations inside a
     driver run are lock-free. *)

type 'c ops = {
  make : capacity:int option -> 'c;
  telemetry : 'c -> Tcache.Telemetry.t;
}

let store_ops ~policy =
  {
    make = (fun ~capacity -> Tcache.Store.create ?capacity ~policy ());
    telemetry = Tcache.Store.telemetry;
  }

type 'c t = {
  ops : 'c ops;
  tenant_budget : int option;
  m : Mutex.t;
  tbl : (string * int, 'c) Hashtbl.t;
}

let create ?tenant_budget ~ops () =
  (match tenant_budget with
  | Some b when b <= 0 -> invalid_arg "Serve.Shards.create: budget <= 0"
  | _ -> ());
  { ops; tenant_budget; m = Mutex.create (); tbl = Hashtbl.create 16 }

let shard t ~tenant ~worker =
  Mutex.lock t.m;
  let key = (tenant, worker) in
  let s =
    match Hashtbl.find_opt t.tbl key with
    | Some s -> s
    | None ->
      let s = t.ops.make ~capacity:t.tenant_budget in
      Hashtbl.replace t.tbl key s;
      s
  in
  Mutex.unlock t.m;
  s

let shard_count t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.m;
  n

let telemetry ?tenant t =
  let acc = Tcache.Telemetry.create () in
  Mutex.lock t.m;
  Hashtbl.iter
    (fun (ten, _) s ->
      if match tenant with None -> true | Some w -> w = ten then
        Tcache.Telemetry.add ~into:acc (t.ops.telemetry s))
    t.tbl;
  Mutex.unlock t.m;
  acc
