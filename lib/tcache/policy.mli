(** Eviction policies for the translation cache.

    The capacity unit is scheduled-region instructions, not entry
    counts: a policy decides which translations to drop when inserting
    a region would push the resident instruction total past the
    configured capacity. *)

type t =
  | Lru  (** evict the least recently dispatched translation *)
  | Fifo  (** evict the oldest translation, ignoring reuse *)
  | Flush_all
      (** Dynamo-style: when the cache is full, drop every translation
          at once and start over (cheap bookkeeping, brutal misses) *)
  | Unbounded
      (** never evict — the seed behavior, and the default *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Accepts "lru", "fifo", "flush" / "flush-all" / "flush_all",
    "unbounded" / "none" (case-insensitive); [Error] names anything
    else. *)

val all : t list
val pp : Format.formatter -> t -> unit
