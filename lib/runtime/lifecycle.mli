(** The re-optimization lifecycle of one cached region: the recovery
    ladder of the paper's Figure 1 as one immutable value and two pure
    transitions.  {!Driver} keeps one value per translation-cache entry
    and acts on the transition each fault returns; it keeps no other
    lifecycle state.

    {b The transition table.}  A value is a rung plus
    [faults_since_commit] ([faults] below), the alias faults since the
    region last committed, counted at every rung.  A commit sets
    [faults] to 0 and keeps the rung.  A fault adds 1 to [faults], and
    the first row whose condition holds applies, with
    [W = watchdog ~max_reopts]:

    {v
    condition                 next rung                   transition
    ------------------------  --------------------------  --------------------
    faults > W                unchanged                   Degrade
    rung is unspeculated      unspeculated                Retried_unspeculated
    reopts + 1 > max_reopts   unspeculated                Gave_up
    pair already learned      pin both ops, reopts + 1    Pinned (newly pinned)
    otherwise                 learn the pair, reopts + 1  Learned
    v}

    Every fault except [Degrade] is followed by a re-optimization: a
    speculative rebuild with {!known_alias} on the two speculative
    transitions, a rebuild without speculation otherwise.  [Degrade]
    sends the region to the interpreter for the rest of the run: the
    driver drops its translation, and a later run that finds the label
    hot builds it afresh with {!fresh}.  A pair is learned in either
    orientation; pinning an op already pinned adds nothing, so
    [Pinned 0] is possible. *)

(** The ladder's rung. *)
type rung =
  | Speculative of {
      learned : int array;
          (** the faulting pairs so far, as ascending, duplicate-free
              {!Analysis.Pair_key.norm} keys *)
      pinned : int list;  (** op ids taken out of speculation *)
      reopts : int;  (** re-optimizations so far *)
    }
  | Unspeculated  (** rebuilt without speculation, for good *)

type t = {
  rung : rung;
  faults_since_commit : int;
      (** the livelock watchdog's forward-progress measure *)
}

type transition =
  | Learned
  | Pinned of int  (** the number of newly pinned ops: 0, 1 or 2 *)
  | Gave_up
  | Retried_unspeculated
  | Degrade

val fresh : t
(** A newly built region: speculative, nothing learned, no faults. *)

val watchdog : max_reopts:int -> int
(** [2 * max_reopts + 10]: strictly above the faults any legitimate
    recovery sequence takes, so only a violation stream that outlives
    the give-up rung (fault injection, a pathologically false-positive
    detector) reaches it. *)

val commit : t -> t
(** The region committed.  Returns its argument when there was no fault
    to forget. *)

val fault : max_reopts:int -> setter:int -> checker:int -> t -> t * transition
(** The region rolled back on an alias violation between [setter] and
    [checker]: the next value and what to do, per the table above. *)

val known_alias : t -> sb:Ir.Superblock.t -> (int * int) list
(** The optimizer's known-alias pairs for the region's superblock [sb]
    on a speculative rung: the learned pairs plus each pinned op paired
    with every other memory op of [sb], each pair once, in key order.
    [[]] on the unspeculated rung. *)
