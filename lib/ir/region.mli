(** Translated, scheduled regions — the unit of atomic execution.

    A region is the output of the optimizer for one superblock: VLIW
    bundles (one instruction list per issue cycle) whose memory
    operations carry alias annotations, possibly interleaved with
    [Rotate] and [Amov] alias-queue management instructions.

    Regions also carry the bookkeeping the runtime needs to handle an
    alias exception: which pair of original memory operations each
    check corresponds to is recoverable from the hardware model, and
    [assumed_no_alias] holds the speculation assumptions that a
    conservative re-optimization must drop.

    {b Pair keys.}  [assumed_no_alias] is a set of ordered id pairs
    packed one int each: the pair [(a, b)], both ids in
    [[0, 2{^31})], is the key [a * 2{^31} + b] ([Analysis.Pair_key.pack
    a b]).  Key order is [(a, b)] tuple order. *)

type t = {
  entry : Instr.label;  (** guest label this region translates *)
  bundles : Instr.t list array;  (** index = issue cycle *)
  final_exit : Instr.label option;
  ar_window : int;  (** max alias-register offset used + 1 *)
  assumed_no_alias : int array;
      (** pairs of original instruction ids speculated disjoint, as
          ascending, duplicate-free pair keys: the dropped dependences
          [(first, second)] (program order) merged with the
          eliminations' [(protected, intervening)] pairs *)
  certified_no_alias : (int * int) list;
      (** pairs statically {e proven} disjoint by the alias certifier,
          normalized [(min, max)] and ascending; an alias fault on one
          of these is a hard soundness error, not a mis-speculation *)
  source : Superblock.t;  (** the superblock this region was built from *)
}

val make :
  entry:Instr.label ->
  bundles:Instr.t list array ->
  final_exit:Instr.label option ->
  ar_window:int ->
  assumed_no_alias:int array ->
  ?certified_no_alias:(int * int) list ->
  source:Superblock.t ->
  unit ->
  t

val schedule_length : t -> int
(** Number of issue cycles. *)

val instrs : t -> Instr.t list
(** All instructions in issue order (bundle by bundle). *)

val instr_count : t -> int
val memory_op_count : t -> int
val pp : Format.formatter -> t -> unit
