type t = { bits : Bytes.t }

let bytes_for n = (n + 7) lsr 3

let create n = { bits = Bytes.make (bytes_for n) '\000' }

let mem t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

let lease ~prev n =
  let need = bytes_for n in
  match prev with
  | Some p when Bytes.length p.bits >= need ->
    Bytes.fill p.bits 0 need '\000';
    { bits = p.bits }
  | Some _ | None -> create n

module Matrix = struct
  type m = {
    cols : int;
    stride : int;  (* bytes per row *)
    bits : Bytes.t;
  }

  let create ~rows ~cols =
    let stride = bytes_for cols in
    { cols; stride; bits = Bytes.make (max 1 (rows * stride)) '\000' }

  let mem m ~row i =
    Char.code (Bytes.unsafe_get m.bits ((row * m.stride) + (i lsr 3)))
    land (1 lsl (i land 7))
    <> 0

  let add m ~row i =
    let byte = (row * m.stride) + (i lsr 3) in
    Bytes.unsafe_set m.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get m.bits byte) lor (1 lsl (i land 7))))

  let union_rows m ~dst ~src =
    let d0 = dst * m.stride and s0 = src * m.stride in
    for b = 0 to m.stride - 1 do
      Bytes.unsafe_set m.bits (d0 + b)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m.bits (d0 + b))
           lor Char.code (Bytes.unsafe_get m.bits (s0 + b))))
    done

  let lease ~prev ~rows ~cols =
    let stride = bytes_for cols in
    let need = max 1 (rows * stride) in
    match prev with
    | Some p when Bytes.length p.bits >= need ->
      Bytes.fill p.bits 0 need '\000';
      { cols; stride; bits = p.bits }
    | Some _ | None -> create ~rows ~cols
end
