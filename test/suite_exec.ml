(* The parallel experiment runner and the paged-memory fast path.

   - The paged machine must be observationally equal to a reference
     byte-Hashtbl memory (the seed implementation) under arbitrary
     read/write/checkpoint/rollback/commit sequences, including
     negative addresses and accesses straddling page boundaries.
   - run_matrix must be deterministic: the same job list produces the
     same simulated results at every domain count.
   - Seed-cycle regression: fig15 cycle counts under the new memory and
     runner exactly match the pre-PR values for the default seeds. *)

open Helpers
module M = Vliw.Machine

(* ---- reference model: the seed's byte-granular Hashtbl machine ---- *)

module Model = struct
  type journal_entry =
    | Mem_byte of int * int option
    | Reg of Ir.Reg.t * int option

  type t = {
    regs : (Ir.Reg.t, int) Hashtbl.t;
    mem : (int, int) Hashtbl.t;
    mutable journal : journal_entry list option;
  }

  let create () =
    { regs = Hashtbl.create 64; mem = Hashtbl.create 1024; journal = None }

  let get_reg t r = Option.value (Hashtbl.find_opt t.regs r) ~default:0

  let set_reg t r v =
    (match t.journal with
    | Some entries ->
      t.journal <- Some (Reg (r, Hashtbl.find_opt t.regs r) :: entries)
    | None -> ());
    Hashtbl.replace t.regs r v

  let get_byte t addr = Option.value (Hashtbl.find_opt t.mem addr) ~default:0

  let set_byte t addr b =
    (match t.journal with
    | Some entries ->
      t.journal <- Some (Mem_byte (addr, Hashtbl.find_opt t.mem addr) :: entries)
    | None -> ());
    Hashtbl.replace t.mem addr (b land 0xff)

  let load t ~addr ~width =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) ((acc lsl 8) lor get_byte t (addr + i))
    in
    go (width - 1) 0

  let store t ~addr ~width v =
    for i = 0 to width - 1 do
      set_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

  let in_region t = Option.is_some t.journal
  let checkpoint t = t.journal <- Some []
  let commit t = t.journal <- None

  let rollback t =
    match t.journal with
    | None -> ()
    | Some entries ->
      t.journal <- None;
      List.iter
        (function
          | Mem_byte (addr, Some b) -> Hashtbl.replace t.mem addr b
          | Mem_byte (addr, None) -> Hashtbl.remove t.mem addr
          | Reg (r, Some v) -> Hashtbl.replace t.regs r v
          | Reg (r, None) -> Hashtbl.remove t.regs r)
        entries

  let dump_mem t =
    Hashtbl.fold (fun a b acc -> if b <> 0 then (a, b) :: acc else acc) t.mem []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let dump_regs t =
    Hashtbl.fold
      (fun r v acc ->
        if Ir.Reg.is_temp r || v = 0 then acc else (r, v) :: acc)
      t.regs []
    |> List.sort (fun (a, _) (b, _) -> Ir.Reg.compare a b)
end

(* ---- operation sequences ---- *)

type op =
  | Set_reg of Ir.Reg.t * int
  | Load of int * int  (* addr, width *)
  | Store of int * int * int  (* addr, width, value *)
  | Checkpoint
  | Commit
  | Rollback

let pp_op = function
  | Set_reg (r, v) -> Printf.sprintf "set %s %d" (Ir.Reg.to_string r) v
  | Load (a, w) -> Printf.sprintf "load [%d]/%d" a w
  | Store (a, w, v) -> Printf.sprintf "store [%d]/%d <- %d" a w v
  | Checkpoint -> "checkpoint"
  | Commit -> "commit"
  | Rollback -> "rollback"

let gen_op =
  let open QCheck.Gen in
  (* addresses hug page boundaries (page size 4096) and go negative, so
     straddling accesses and negative page indices are exercised *)
  let gen_addr =
    oneof
      [
        int_range (-8200) 8200;
        map (fun d -> 4096 + d) (int_range (-8) 8);
        map (fun d -> -4096 + d) (int_range (-8) 8);
      ]
  in
  let gen_reg =
    oneof
      [
        map (fun i -> Ir.Reg.R i) (int_range 0 31);
        map (fun i -> Ir.Reg.F i) (int_range 0 31);
        map (fun i -> Ir.Reg.T i) (int_range 0 200);
      ]
  in
  let gen_width = int_range 1 8 in
  frequency
    [
      (3, map2 (fun r v -> Set_reg (r, v)) gen_reg (int_range (-1000000) 1000000));
      (3, map2 (fun a w -> Load (a, w)) gen_addr gen_width);
      (6, map3 (fun a w v -> Store (a, w, v)) gen_addr gen_width
         (int_range (-1000000000) 1000000000));
      (1, return Checkpoint);
      (1, return Commit);
      (1, return Rollback);
    ]

(* The 63-bit edge: an 8-byte word does not fit an OCaml int, so the
   machine journals it as two 4-byte halves.  Store the extreme values
   and values with bit 31, 32 or 62 set, at addresses straddling a page,
   inside a region that then rolls back. *)
let gen_edge_store =
  let open QCheck.Gen in
  let gen_value =
    oneof
      [
        oneofl [ min_int; max_int; -1 ];
        map2 (fun v bit -> v lor (1 lsl bit)) int (oneofl [ 31; 32; 62 ]);
      ]
  in
  let gen_straddle =
    map2 (fun page d -> (page * 4096) + d) (oneofl [ -1; 1 ]) (int_range (-7) (-1))
  in
  map2 (fun a v -> [ Checkpoint; Store (a, 8, v); Load (a, 8); Rollback ])
    gen_straddle gen_value

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(
      map List.concat
        (list_size (int_range 1 200)
           (frequency [ (15, map (fun op -> [ op ]) gen_op); (1, gen_edge_store) ])))

let machine_against_model ops =
  let m = M.create () in
  let model = Model.create () in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Set_reg (r, v) ->
        M.set_reg m r v;
        Model.set_reg model r v
      | Load (addr, width) ->
        if M.load m ~addr ~width <> Model.load model ~addr ~width then
          ok := false
      | Store (addr, width, v) ->
        M.store m ~addr ~width v;
        Model.store model ~addr ~width v
      | Checkpoint ->
        if not (Model.in_region model) then begin
          M.checkpoint m;
          Model.checkpoint model
        end
      | Commit ->
        if Model.in_region model then begin
          M.commit m;
          Model.commit model
        end
      | Rollback ->
        if Model.in_region model then begin
          M.rollback m;
          Model.rollback model
        end)
    ops;
  !ok
  && M.dump_mem m = Model.dump_mem model
  && M.dump_regs m = Model.dump_regs model

(* a register set both before and inside a rolled-back region must come
   back to the pre-region value, not 0 (word-journal restore order) *)
let test_rollback_restore_order () =
  let m = M.create () in
  M.set_reg m (r 1) 7;
  M.store m ~addr:4090 ~width:8 0x1122334455667788;  (* straddles pages *)
  M.checkpoint m;
  M.set_reg m (r 1) 8;
  M.set_reg m (r 1) 9;
  M.store m ~addr:4090 ~width:8 1;
  M.store m ~addr:4094 ~width:4 2;
  M.rollback m;
  Alcotest.(check int) "reg restored" 7 (M.get_reg m (r 1));
  Alcotest.(check int) "straddling store undone" 0x1122334455667788
    (M.load m ~addr:4090 ~width:8)

(* a 63-bit edge value stored as 8 bytes across a page boundary and
   rolled back leaves memory exactly as the checkpoint found it *)
let test_rollback_63bit_store () =
  let m = M.create () in
  M.store m ~addr:4092 ~width:4 0x01020304;
  M.store m ~addr:4097 ~width:2 0x0506;
  (* the byte that holds bit 63 of the word: only a narrower store can
     set its top bit *)
  M.store m ~addr:4100 ~width:1 0xff;
  let before = M.dump_mem m in
  List.iter
    (fun v ->
      M.checkpoint m;
      M.store m ~addr:4093 ~width:8 v;
      M.rollback m;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "memory after rolling back %d" v)
        before (M.dump_mem m))
    [ min_int; max_int; -1; 1 lsl 31; 1 lsl 32; 1 lsl 62; (1 lsl 62) lor 0xff ]

let test_negative_addresses () =
  let m = M.create () in
  M.store m ~addr:(-4100) ~width:8 0xdeadbeef;
  Alcotest.(check int) "negative round trip" 0xdeadbeef
    (M.load m ~addr:(-4100) ~width:8);
  Alcotest.(check int) "adjacent negative unwritten" 0
    (M.load m ~addr:(-4120) ~width:4)

(* ---- run_matrix determinism across domain counts ---- *)

let small_matrix () =
  List.concat_map
    (fun name ->
      List.map
        (fun scheme ->
          Exec.Matrix.of_bench ~scale:1 ~scheme (Workload.Specfp.find name))
        [ Smarq.Scheme.None_; Smarq.Scheme.Smarq 64; Smarq.Scheme.Alat ])
    [ "wupwise"; "mesa"; "art" ]

(* zero out the host-timing fields — the only non-deterministic ones *)
let strip_wall (st : Runtime.Stats.t) =
  {
    st with
    Runtime.Stats.wall_seconds = 0.0;
    translate = Sched.Profile.create ();
  }

let test_run_matrix_determinism () =
  let seq = Exec.Matrix.run_matrix ~domains:1 (small_matrix ()) in
  let par = Exec.Matrix.run_matrix ~domains:8 (small_matrix ()) in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Exec.Matrix.outcome) (b : Exec.Matrix.outcome) ->
      Alcotest.(check string) "same label" a.Exec.Matrix.job.Exec.Matrix.label
        b.Exec.Matrix.job.Exec.Matrix.label;
      let sa = strip_wall a.Exec.Matrix.result.Runtime.Driver.stats in
      let sb = strip_wall b.Exec.Matrix.result.Runtime.Driver.stats in
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical stats" a.Exec.Matrix.job.Exec.Matrix.label)
        true (sa = sb);
      Alcotest.(check bool)
        (Printf.sprintf "%s: identical final state"
           a.Exec.Matrix.job.Exec.Matrix.label)
        true
        (Vliw.Machine.equal_guest_state
           a.Exec.Matrix.result.Runtime.Driver.machine
           b.Exec.Matrix.result.Runtime.Driver.machine))
    seq par

let test_pool_order_and_exceptions () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map succ xs)
    (Exec.Pool.map ~domains:7 succ xs);
  Alcotest.check_raises "job exception propagates" (Failure "job 13") (fun () ->
      ignore
        (Exec.Pool.map ~domains:4
           (fun i -> if i = 13 then failwith "job 13" else i)
           xs))

(* ---- seed-cycle regression: fig15 under the paged memory and the
   parallel runner must reproduce the pre-PR driver exactly.
   Reference total_cycles recorded from the seed tree (commit 0d72495,
   byte-Hashtbl machine, sequential harness) at scale 5. ---- *)

let fig15_seed_reference =
  [
    ("wupwise", Smarq.Scheme.None_, 892422);
    ("wupwise", Smarq.Scheme.Smarq 64, 695772);
    ("wupwise", Smarq.Scheme.Smarq 16, 695772);
    ("wupwise", Smarq.Scheme.Alat, 956134);
    ("swim", Smarq.Scheme.None_, 1201322);
    ("swim", Smarq.Scheme.Smarq 64, 977072);
    ("swim", Smarq.Scheme.Smarq 16, 977072);
    ("swim", Smarq.Scheme.Alat, 1616340);
    ("mgrid", Smarq.Scheme.None_, 951072);
    ("mgrid", Smarq.Scheme.Smarq 64, 840672);
    ("mgrid", Smarq.Scheme.Smarq 16, 840672);
    ("mgrid", Smarq.Scheme.Alat, 840672);
    ("applu", Smarq.Scheme.None_, 1677672);
    ("applu", Smarq.Scheme.Smarq 64, 1315422);
    ("applu", Smarq.Scheme.Smarq 16, 1353372);
    ("applu", Smarq.Scheme.Alat, 1710620);
    ("mesa", Smarq.Scheme.None_, 684072);
    ("mesa", Smarq.Scheme.Smarq 64, 380472);
    ("mesa", Smarq.Scheme.Smarq 16, 442572);
    ("mesa", Smarq.Scheme.Alat, 605578);
    ("art", Smarq.Scheme.None_, 740716);
    ("art", Smarq.Scheme.Smarq 64, 728348);
    ("art", Smarq.Scheme.Smarq 16, 728348);
    ("art", Smarq.Scheme.Alat, 728348);
    ("equake", Smarq.Scheme.None_, 725866);
    ("equake", Smarq.Scheme.Smarq 64, 711096);
    ("equake", Smarq.Scheme.Smarq 16, 711096);
    ("equake", Smarq.Scheme.Alat, 608566);
    ("ammp", Smarq.Scheme.None_, 1900122);
    ("ammp", Smarq.Scheme.Smarq 64, 1467498);
    ("ammp", Smarq.Scheme.Smarq 16, 1749732);
    ("ammp", Smarq.Scheme.Alat, 1372272);
    ("apsi", Smarq.Scheme.None_, 1167972);
    ("apsi", Smarq.Scheme.Smarq 64, 912672);
    ("apsi", Smarq.Scheme.Smarq 16, 1012722);
    ("apsi", Smarq.Scheme.Alat, 1259750);
    ("sixtrack", Smarq.Scheme.None_, 774072);
    ("sixtrack", Smarq.Scheme.Smarq 64, 715422);
    ("sixtrack", Smarq.Scheme.Smarq 16, 715422);
    ("sixtrack", Smarq.Scheme.Alat, 715422);
  ]

let test_fig15_seed_cycles () =
  let jobs =
    List.map
      (fun (bench, scheme, _) ->
        Exec.Matrix.of_bench ~scale:5 ~scheme (Workload.Specfp.find bench))
      fig15_seed_reference
  in
  let outcomes = Exec.Matrix.run_matrix jobs in
  List.iter2
    (fun (bench, scheme, cycles) (o : Exec.Matrix.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "%s/%s cycles" bench (Smarq.Scheme.name scheme))
        cycles
        o.Exec.Matrix.result.Runtime.Driver.stats.Runtime.Stats.total_cycles)
    fig15_seed_reference outcomes

let suite =
  ( "exec",
    [
      qcase ~count:300 "paged memory == Hashtbl reference model" arb_ops
        machine_against_model;
      case "rollback restore order across pages" test_rollback_restore_order;
      case "negative addresses" test_negative_addresses;
      case "run_matrix: -j 1 and -j 8 identical" test_run_matrix_determinism;
      case "pool: order and exceptions" test_pool_order_and_exceptions;
      case "fig15 seed-cycle regression (scale 5)" test_fig15_seed_cycles;
      case "rollback of a 63-bit 8-byte store" test_rollback_63bit_store;
    ] )
