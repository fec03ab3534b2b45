type t = {
  entry_index : int;
  records : bytes array;
}

let magic = 0x534d5251l (* "SMRQ" *)
let header_bytes = 16
let record_bytes = 16

let create ~entry_index ~count =
  if count < 0 then invalid_arg "Image.create: negative count";
  if entry_index < 0 || (count > 0 && entry_index >= count) then
    invalid_arg "Image.create: entry index out of range";
  { entry_index; records = Array.init count (fun _ -> Bytes.make record_bytes '\000') }

let entry_index t = t.entry_index
let count t = Array.length t.records
let size_bytes t = header_bytes + (count t * record_bytes)

let set_record t i record =
  if Bytes.length record <> record_bytes then
    invalid_arg "Image.set_record: record must be 16 bytes";
  if i < 0 || i >= count t then invalid_arg "Image.set_record: index";
  t.records.(i) <- Bytes.copy record

let get_record t i =
  if i < 0 || i >= count t then invalid_arg "Image.get_record: index";
  Bytes.copy t.records.(i)

let to_bytes t =
  let b = Bytes.make (size_bytes t) '\000' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 1l (* version *);
  Bytes.set_int32_le b 8 (Int32.of_int t.entry_index);
  Bytes.set_int32_le b 12 (Int32.of_int (count t));
  Array.iteri
    (fun i r -> Bytes.blit r 0 b (header_bytes + (i * record_bytes)) record_bytes)
    t.records;
  b

type error =
  | Truncated_header
  | Bad_magic
  | Truncated_records of { count : int }
  | Entry_out_of_range of { entry : int; count : int }

let error_to_string = function
  | Truncated_header -> "truncated header"
  | Bad_magic -> "bad magic"
  | Truncated_records { count } ->
    Printf.sprintf "truncated records (header claims %d)" count
  | Entry_out_of_range { entry; count } ->
    Printf.sprintf "entry index %d out of range (%d records)" entry count

let of_bytes b =
  if Bytes.length b < header_bytes then Error Truncated_header
  else if Bytes.get_int32_le b 0 <> magic then Error Bad_magic
  else
    let entry = Int32.to_int (Bytes.get_int32_le b 8) in
    let n = Int32.to_int (Bytes.get_int32_le b 12) in
    if n < 0 || Bytes.length b < header_bytes + (n * record_bytes) then
      Error (Truncated_records { count = n })
    else if entry < 0 || (n > 0 && entry >= n) then
      Error (Entry_out_of_range { entry; count = n })
    else
      Ok
        {
          entry_index = entry;
          records =
            Array.init n (fun i ->
                Bytes.sub b (header_bytes + (i * record_bytes)) record_bytes);
        }
