(** Guest binary images.

    The paper's system consumes x86 binaries; ours consumes images in a
    simple fixed-width format so the "binary" in dynamic binary
    translation is real: programs are assembled to bytes, shipped, and
    the frontend disassembles them back into a CFG with no side-channel
    metadata (in particular, no branch-probability hints — the runtime
    must profile edges itself).

    Layout: a 16-byte header (magic, version, entry instruction index,
    instruction count) followed by [count] 16-byte instruction records.
    Branch targets are instruction indices. *)

type t

val magic : int32
val header_bytes : int
val record_bytes : int

val create : entry_index:int -> count:int -> t
type error =
  | Truncated_header  (** fewer than {!header_bytes} bytes *)
  | Bad_magic
  | Truncated_records of { count : int }
      (** fewer than [count] records follow the header (or [count] is
          negative) *)
  | Entry_out_of_range of { entry : int; count : int }

val error_to_string : error -> string

val of_bytes : bytes -> (t, error) result
(** Parse an image.  Never raises: malformed input is an [Error]. *)

val to_bytes : t -> bytes
val entry_index : t -> int
val count : t -> int

val set_record : t -> int -> bytes -> unit
(** [set_record t i record] stores the 16-byte record for instruction
    [i].  Raises [Invalid_argument] on wrong size or index. *)

val get_record : t -> int -> bytes
val size_bytes : t -> int
