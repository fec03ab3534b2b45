(** Efficeon-like bit-mask alias register allocation (Section 2.2).

    Under the mask scheme every protected operation takes a {e named}
    register and every checker carries an explicit bit-mask of the
    registers it must compare against.  Registers are assigned greedily
    in issue order and freed after their last checker issues; the
    narrow encoding (at most 15 registers) is the scheme's documented
    scaling limit. *)

val annotate :
  deps:Analysis.Depgraph.t ->
  hazards:Hazards.t ->
  issue_order:(int * Ir.Instr.t) list ->
  ar_count:int ->
  ((int * Ir.Annot.t) list, string) result
(** [Error] when no register is free (the encoding limit bites); the
    caller rebuilds the region with less speculation. *)
