(* A flat Domain-based worker pool.

   Jobs are indexed into an array; workers race on an atomic cursor and
   each result lands in its submission slot, so the output order is the
   input order no matter which domain ran what.  The calling domain
   works too: [domains = 1] (or a single job) degenerates to List.map
   with no domain spawned at all. *)

let default_domains () = Domain.recommended_domain_count ()

(* ---- a long-running pool for the serve subsystem ----

   [map] below spins domains up and down per call, which is fine for
   one-shot matrix runs but wrong for a service: the server needs
   workers that outlive any single request, a submission queue, and a
   shutdown that (a) drains everything already accepted and (b) is
   safe to call twice (the CLI calls it on the normal path and again
   from cleanup).  Jobs receive their worker index so callers can keep
   per-worker state (e.g. a tenant's per-domain cache shard) without
   locks. *)

type t = {
  m : Mutex.t;
  work_available : Condition.t;
  finished : Condition.t;  (* signalled when the join completes *)
  jobs : (int -> unit) Queue.t;
  mutable shutting_down : bool;  (* no new submissions; drain and exit *)
  mutable joined : bool;
  failed_jobs : int Atomic.t;  (* jobs that raised (a bug in the caller:
                                  service jobs catch their own errors) *)
  mutable workers : unit Domain.t array;
}

let create ?domains () =
  let n =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let t =
    {
      m = Mutex.create ();
      work_available = Condition.create ();
      finished = Condition.create ();
      jobs = Queue.create ();
      shutting_down = false;
      joined = false;
      failed_jobs = Atomic.make 0;
      workers = [||];
    }
  in
  let worker id =
    Mutex.lock t.m;
    let rec loop () =
      if not (Queue.is_empty t.jobs) then begin
        let job = Queue.pop t.jobs in
        Mutex.unlock t.m;
        (try job id with _ -> Atomic.incr t.failed_jobs);
        Mutex.lock t.m;
        loop ()
      end
      else if t.shutting_down then Mutex.unlock t.m
      else begin
        Condition.wait t.work_available t.m;
        loop ()
      end
    in
    loop ()
  in
  t.workers <- Array.init n (fun id -> Domain.spawn (fun () -> worker id));
  t

let size t = Array.length t.workers
let failed_jobs t = Atomic.get t.failed_jobs

let submit t job =
  Mutex.lock t.m;
  if t.shutting_down then begin
    Mutex.unlock t.m;
    invalid_arg "Exec.Pool.submit: pool is shut down"
  end;
  Queue.push job t.jobs;
  Condition.signal t.work_available;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  if t.shutting_down then begin
    (* another caller is (or was) already joining: wait it out, so a
       double shutdown still returns only once the pool is drained *)
    while not t.joined do
      Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m
  end
  else begin
    t.shutting_down <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.m;
    (* workers exit only once the queue is empty, so every job accepted
       before shutdown completes before join returns *)
    Array.iter Domain.join t.workers;
    Mutex.lock t.m;
    t.joined <- true;
    Condition.broadcast t.finished;
    Mutex.unlock t.m
  end

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let map ?domains f xs =
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let n = List.length xs in
  if n <= 1 || domains = 1 then List.map f xs
  else begin
    let jobs = Array.of_list xs in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (results.(i) <-
          (try Done (f jobs.(i))
           with e -> Failed (e, Printexc.get_raw_backtrace ())));
        worker ()
      end
    in
    let spawned =
      Array.init (min domains n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Done r -> r
         | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
         | Pending -> assert false)
  end
