(** The straightforward order-based allocation of Section 2.4 of the
    paper, made executable: every memory operation takes one alias
    register in original program order, always sets it, and always
    checks (no P/C filtering, the source of the "unnecessary alias
    detection" energy cost of Section 2.5).

    Registers are released through greedy rotation: once the complete
    program-order prefix up to order [k] has issued, no later-executing
    operation may check a register at or below [k] (they all hold
    strictly larger orders), so BASE may rotate past it.  Even with
    that help the working set is far larger than SMARQ's — and the
    scheme cannot support load/store elimination at all, since
    detection between non-reordered operations needs constraints that
    program-order allocation cannot express (Section 2.4). *)

type result = {
  annots : (int * Ir.Annot.t) list;
  rotations : (int * int) list;  (** after instr id, rotate by n *)
  max_offset : int;
}

val annotate :
  body:Ir.Instr.t list ->
  issue_order:(int * Ir.Instr.t) list ->
  ar_count:int ->
  (result, string) Stdlib.result
(** [body] in original program order defines register orders;
    [issue_order] is the schedule.  [Error] when an offset would reach
    [ar_count]. *)
