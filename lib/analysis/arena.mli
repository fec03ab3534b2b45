(** Reusable scratch buffers for the translation hot path.

    One arena serves one sequence of region translations — a driver
    run, or one worker domain of a parallel replay.  Each lease resets
    the logical contents but keeps the backing storage, so buffers grow
    to the high-water mark of the regions seen and are then reused:
    once warm, the depgraph and hazard builders allocate nothing on the
    OCaml heap.

    Arenas are single-owner: nothing leased may escape the build that
    leased it, and an arena must never be shared between domains.
    Slot numbers namespace concurrent leases within one build; the
    depgraph builder uses slots 0–15 (and intmap slots 1–2, vector
    slots 0–2), the
    hazard builder 16–31 (and vector slots 16–18),
    {!Absint} 32–38 (and intmap slot 3), {!Disamb} 40–42 (and vector
    slot 3), {!May_alias} intmap slot 0, [Opt.Elim] 44 (and the
    instruction array), [Sched.Smarq_alloc] vector slots 4–11 and
    {!Cycle_detect} 45–46 (and vector slots 12–13). *)

type t

val create : unit -> t

val ints : t -> slot:int -> int -> int array
(** [ints t ~slot n] is a scratch array of capacity >= [n].  Contents
    are stale — initialize everything you read. *)

val filled_ints : t -> slot:int -> int -> int -> int array
(** [filled_ints t ~slot n x] is [ints] with the first [n] cells set
    to [x]. *)

val instrs : t -> of_list:Ir.Instr.t list -> Ir.Instr.t array
(** [instrs t ~of_list:l] is the arena's one scratch instruction array,
    of capacity >= [List.length l], holding [l] in its first cells;
    cells past them are stale.  The cells keep their instructions
    reachable until a later lease overwrites them. *)

(** {2 Growable int vector} *)

type vec = {
  mutable buf : int array;
  mutable len : int;
}

val vec : t -> slot:int -> vec
(** Lease the vector at [slot], cleared to length 0. *)

val vec_push : vec -> int -> unit

(** {2 Open-addressed int->int map}

    Epoch-stamped slots make [map] (the lease) O(1); lookups and
    insertions never allocate once warm.  Keys must be >= 0. *)

type intmap

val map : t -> slot:int -> intmap
(** Lease the map at [slot], logically empty. *)

val map_set : intmap -> int -> int -> unit
val map_get : intmap -> int -> default:int -> int

(** {2 Bitset scratch} *)

val seen : t -> int -> Bitset.t
(** A cleared bitset over [0, n), reusing the arena's buffer. *)

val reach : t -> rows:int -> cols:int -> Bitset.Matrix.m
(** A cleared reachability matrix, reusing the arena's buffer. *)

(** {2 In-place sorting}

    Deterministic quicksort (insertion-sort tail) over an array range
    [lo, hi) — the stdlib lacks a range sort, and copying slices out
    defeats the arena. *)

val sort_ints : int array -> lo:int -> hi:int -> unit
val sort_by : int array -> lo:int -> hi:int -> cmp:(int -> int -> int) -> unit

val reg_code : Ir.Reg.t -> int
(** Compact non-negative encoding of a register for direct array
    indexing: [3 * index + rank]. *)
