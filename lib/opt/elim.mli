(** Speculative load and store elimination (Section 4's two "general
    speculative optimizations" beyond reordering).

    {b Store elimination}: a store X whose exact location is
    overwritten by a later store Z (same base, displacement and width,
    base not redefined between, no side exit between, no intervening
    must-alias load) is removed.  Intervening {e may}-alias loads are
    the speculation; they are reported so the dependence graph gains
    the EXTENDED-DEPENDENCE-2 edges that make Z check them at runtime.

    {b Load elimination}: a load Z whose exact location was last
    accessed by an earlier memory operation X (store → store-to-load
    forwarding, load → redundant-load elimination) is replaced by a
    register move through a fresh optimizer temporary captured at X.
    Intervening {e may}-alias stores are the speculation, reported for
    EXTENDED-DEPENDENCE-1.

    Interactions are prevented by locking: overwriters cannot
    themselves be eliminated, and loads protected by a store
    elimination stay loads. *)

type result = {
  body : Ir.Instr.t list;  (** transformed body, original order *)
  eliminations : (Analysis.Depgraph.elimination * Ir.Instr.t list) list;
      (** with the surviving instructions strictly between the pair *)
  assumed_no_alias : (int * int) list;
      (** speculation assumptions: (protected op, intervening op) *)
  loads_eliminated : int;
  stores_eliminated : int;
}

val run :
  policy:Sched.Policy.t ->
  alias:Analysis.May_alias.t ->
  ?arena:Analysis.Arena.t ->
  body:Ir.Instr.t list ->
  fresh_id:int ref ->
  unit ->
  result
(** [alias] must have been built over [body].  With a policy that
    forbids both eliminations this is the identity.

    The pass works on body positions: the instructions and one flag
    word per position (eliminated, locked, owing a check, edited) are
    leased from [arena] (a fresh one when absent), each slot an edit
    touches gets its own instruction list, and the scans allocate
    nothing.  When nothing is eliminated the result's [body] is [body]
    itself, and with a warm arena the pass allocates only its state and
    result records; otherwise the new body takes one cons per surviving
    instruction and each elimination one per intervening
    instruction. *)
