(** Packed memory-pair keys.

    A pair of instruction ids [(a, b)] with both ids in [[0, 2{^31})]
    packs into the one non-negative int [a * 2{^31} + b].  The packing
    is injective and order-preserving: keys compare exactly as the
    pairs do under [compare] on [(int * int)] tuples, so sorting keys
    sorts pairs.  Tables keyed by pairs hash an immediate int instead of
    a boxed tuple, and a verdict lookup allocates nothing.

    Pair {e sets} travel as key arrays: ascending and duplicate-free,
    so membership is a binary search and two sets merge in one walk.

    This is the product's packer ({!May_alias}, {!Disamb}, the hazard
    builder).  The static checker keeps its own, so the checker shares
    no code with the certifier it checks. *)

val bound : int
(** [2{^31}]: ids must lie in [[0, bound)]. *)

val pack : int -> int -> int
(** [pack a b] is the key of the ordered pair [(a, b)].  Raises
    [Invalid_argument] when either id lies outside [[0, bound)]: such an
    id would collide with another pair's key. *)

val norm : int -> int -> int
(** [norm a b] is the key of the unordered pair, [pack (min a b)
    (max a b)]. *)

val first : int -> int
val second : int -> int
(** The two ids of a key: [first (pack a b) = a], [second (pack a b) =
    b]. *)

val sorted_unique : int array -> len:int -> int array
(** [sorted_unique keys ~len] is a fresh array of the distinct keys of
    the ascending range [keys.(0 .. len - 1)]. *)

val of_pairs : (int * int) list -> int array
(** The ascending, duplicate-free {!pack} keys of ordered pairs. *)

val union : int array -> int array -> int array
(** The sorted merge of two ascending, duplicate-free key arrays,
    without duplicates.  Returns an argument itself when the other is
    empty. *)

val mem : int array -> int -> bool
(** [mem keys k]: is [k] in the ascending array [keys]?  A binary
    search; allocates nothing. *)

val to_pairs : int array -> len:int -> (int * int) list
(** The pairs of the ascending keys [keys.(0 .. len - 1)], duplicates
    dropped: a sorted, duplicate-free pair list, built with one tuple
    per distinct key. *)
