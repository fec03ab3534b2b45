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
  issue:int array ->
  ar_count:int ->
  (Ir.Annot.t array, string) result
(** [issue] lists every body position of [hazards] in issue order.  The
    annotations are by body position, [Ir.Annot.No_annot] for an
    operation that neither sets nor checks a register.  The working
    tables are int arrays by body position, and the dependence graph is
    walked in place: no per-pair or per-instruction allocation beyond
    the annotations themselves.  [Error] when no register is free (the
    encoding limit bites); the caller rebuilds the region with less
    speculation. *)
