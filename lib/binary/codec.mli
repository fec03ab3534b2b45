(** Assembler and disassembler for guest binary images.

    Each instruction occupies one 16-byte record:

    {v
    byte 0      opcode
    byte 1      destination / primary register
    byte 2      operand-a register (0xff = immediate, in bytes 6-7)
    byte 3      operand-b register (0xff = immediate, in bytes 8-15)
    byte 4      reserved
    byte 5      access width (memory operations)
    bytes 6-7   operand-a immediate (signed 16-bit)
    bytes 8-15  operand-b immediate / displacement / branch target
    v}

    Registers encode as [kind lsl 6 lor index] (kind 0 = integer, 1 =
    floating point); optimizer temporaries and region-only instructions
    (annotations, [Rotate], [Amov], [Exit]) have no encoding — guest
    binaries never contain them.

    Control flow: block terminators are encoded as [BR cond, target]
    (conditional, falls through to the next record) and [JMP target]
    and [HALT]; targets are instruction indices.  Branch-probability
    hints do {e not} survive assembly — a disassembled program carries
    0.5 everywhere, and the runtime must rediscover bias by edge
    profiling, exactly as a real binary translator does. *)

exception Unencodable of string

val assemble : Ir.Program.t -> bytes
(** Lay out blocks (entry first, the rest in label order), resolve
    labels to instruction indices, and emit the image.  Raises
    {!Unencodable} for region-only instructions, optimizer temporaries,
    or operand-a immediates outside 16 bits. *)

type error =
  | Bad_image of Image.error  (** the header or record framing *)
  | Empty_image  (** no instruction records *)
  | Unknown_opcode of { index : int; opcode : int }
  | Bad_register of { index : int; byte : int }
      (** a register byte with bit 7 set, other than the [0xff]
          immediate marker in an operand slot *)
  | Bad_width of { index : int; width : int }
      (** a memory access width other than 4 or 8 *)
  | Target_out_of_range of { index : int; target : int }
  | Branch_at_end of { index : int }
      (** a [BR] in the last record has no fall-through *)
(** Why an image does not decode; [index] is the record number. *)

val error_to_string : error -> string

val disassemble : bytes -> (Ir.Program.t, error) result
(** Rebuild a CFG from an image: leaders are the entry, every branch
    target, and every successor of a control record; blocks are named
    ["L<index>"].  Never raises: a malformed image is an [Error]. *)
