(** ALAT (Itanium-like) annotation post-pass.

    Marks as {e advanced} every load whose protection the table must
    provide: loads that actually issued before a may-alias store they
    originally followed (a dropped dependence realized by the
    schedule), and loads acting as forwarding sources of a speculative
    load elimination (extended dependences).  Stores snoop the table
    implicitly; they receive a plain [Alat] annotation for
    readability. *)

val annotate :
  body:Ir.Instr.t array ->
  deps:Analysis.Depgraph.t ->
  hazards:Hazards.t ->
  issue:int array ->
  ar_count:int ->
  (Ir.Annot.t array, string) result
(** [body] is the hazard graph's body; [issue] lists every body
    position in issue order.  The annotations are by body position,
    [Ir.Annot.No_annot] for an operation that is neither an advanced
    load nor a store.  [Error] when a protection window holds [ar_count]
    or more advanced loads.  The modeled ALAT evicts its oldest entry
    silently on overflow, so when that many advanced loads issue
    between a hoisted load and the store it must be checked against,
    the entry can be gone before the store snoops the table — the
    optimizer must fall back rather than emit such a region. *)
