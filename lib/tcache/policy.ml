type t = Lru | Fifo | Flush_all | Unbounded

let to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Flush_all -> "flush-all"
  | Unbounded -> "unbounded"

let of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Ok Lru
  | "fifo" -> Ok Fifo
  | "flush" | "flush-all" | "flush_all" -> Ok Flush_all
  | "unbounded" | "none" -> Ok Unbounded
  | _ -> Error (Printf.sprintf "unknown tcache policy %S" s)

let all = [ Lru; Fifo; Flush_all; Unbounded ]
let pp ppf t = Format.pp_print_string ppf (to_string t)
