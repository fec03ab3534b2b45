(* Hardware model tests: access ranges, the order-based alias register
   queue (Sections 2.4/3 of the paper), Efficeon bit-mask, ALAT, and
   the Table 1 capability comparison. *)

open Helpers
module I = Ir.Instr

let access = Hw.Access.make

let test_access_overlap () =
  let a = access ~addr:100 ~width:4 in
  Alcotest.(check bool) "self overlap" true (Hw.Access.overlap a a);
  Alcotest.(check bool) "adjacent disjoint" false
    (Hw.Access.overlap a (access ~addr:104 ~width:4));
  Alcotest.(check bool) "one byte shared" true
    (Hw.Access.overlap a (access ~addr:103 ~width:4));
  Alcotest.(check bool) "contained" true
    (Hw.Access.overlap (access ~addr:100 ~width:8) (access ~addr:102 ~width:2));
  Alcotest.check_raises "zero width rejected"
    (Invalid_argument "Access.make: width must be positive") (fun () ->
      ignore (access ~addr:0 ~width:0))

(* Build a memory op with a queue annotation for direct HW tests. *)
let qop ?(load = true) ~id ~offset ~p ~c () =
  let op =
    if load then
      I.Load
        {
          dst = f 0;
          addr = { I.base = r 0; disp = 0 };
          width = 4;
          annot = Ir.Annot.queue ~offset ~p ~c;
        }
    else
      I.Store
        {
          src = I.Imm 0;
          addr = { I.base = r 0; disp = 0 };
          width = 4;
          annot = Ir.Annot.queue ~offset ~p ~c;
        }
  in
  I.make ~id op

let ok_or_fail = function
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected %a" Hw.Detector.pp_violation v

let expect_violation ~setter ~checker = function
  | Ok () -> Alcotest.fail "expected a violation"
  | Error (v : Hw.Detector.violation) ->
    Alcotest.(check int) "setter" setter v.Hw.Detector.setter;
    Alcotest.(check int) "checker" checker v.Hw.Detector.checker

(* The Figure 2 scenario: a protected range checked by a later store at
   an equal-or-earlier register order is detected on overlap. *)
let test_queue_basic_detection () =
  let q = Hw.Queue.create ~size:8 in
  (* M1 (load, AR0, P) sets [0,3]; M2 (store, AR0, C) checks. *)
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  expect_violation ~setter:1 ~checker:2
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:2 ~width:4))

let test_queue_order_rule () =
  (* A checker at a LATER order must not see earlier registers: the
     ordered-detection rule's "not later" condition. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  (* checker at offset 1 > setter's order 0: no check *)
  ok_or_fail
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:1 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* checker at offset 0 does check *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:3 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_load_load_exemption () =
  (* Hardware marks registers set by loads; later loads skip them. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~load:true ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* but a store at the same range IS caught *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:3 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_pc_same_op () =
  (* P and C on the same operation: check happens before set, so the
     operation never detects itself. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:1 ~offset:0 ~p:true ~c:true ())
       (access ~addr:0 ~width:4));
  (* a second PC store at the same offset checks the first *)
  expect_violation ~setter:1 ~checker:2
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:true ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_rotation () =
  (* Rotation frees the register sliding off the front (Figure 7). *)
  let q = Hw.Queue.create ~size:2 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.rotate q 1;
  Alcotest.(check int) "base advanced" 1 (Hw.Queue.base q);
  Alcotest.(check int) "entry freed" 0 (List.length (Hw.Queue.live_entries q));
  (* offset 0 now refers to order 1; a fresh set works in the freed slot *)
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:2 ~offset:0 ~p:true ~c:false ())
       (access ~addr:8 ~width:4));
  let entries = Hw.Queue.live_entries q in
  Alcotest.(check int) "one live entry" 1 (List.length entries);
  (match entries with
  | [ (order, _, setter) ] ->
    Alcotest.(check int) "order is base+offset" 1 order;
    Alcotest.(check int) "setter id" 2 setter
  | _ -> Alcotest.fail "unexpected entries")

let test_queue_rotation_preserves_later () =
  (* An entry set at offset 1 survives a rotation by 1 and is then
     addressable at offset 0. *)
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:7 ~offset:1 ~p:true ~c:false ())
       (access ~addr:16 ~width:4));
  Hw.Queue.rotate q 1;
  expect_violation ~setter:7 ~checker:8
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:8 ~offset:0 ~p:false ~c:true ())
       (access ~addr:16 ~width:4))

let test_queue_rotation_frees_exactly_stale () =
  (* a full window: rotating frees exactly the orders below the new
     base, and a rotation past the whole window frees everything *)
  let q = Hw.Queue.create ~size:4 in
  Hw.Queue.rotate q 3;
  for k = 0 to 3 do
    ok_or_fail
      (Hw.Queue.on_mem q
         (qop ~id:(10 + k) ~offset:k ~p:true ~c:false ())
         (access ~addr:(8 * k) ~width:4))
  done;
  Hw.Queue.rotate q 2;
  Alcotest.(check (list int))
    "orders at or above the new base survive" [ 5; 6 ]
    (List.map (fun (order, _, _) -> order) (Hw.Queue.live_entries q));
  Hw.Queue.rotate q 100;
  Alcotest.(check int) "rotation past the window frees all" 0
    (List.length (Hw.Queue.live_entries q))

let test_queue_amov_move_and_clear () =
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:2 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  (* move 2 -> 0: original setter id travels with the range *)
  Hw.Queue.amov q ~src:2 ~dst:0;
  expect_violation ~setter:1 ~checker:9
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:9 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* pure clear: amov src=dst removes the range *)
  let q2 = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q2 (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.amov q2 ~src:0 ~dst:0;
  ok_or_fail
    (Hw.Queue.on_mem q2
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_overflow_guard () =
  let q = Hw.Queue.create ~size:2 in
  Alcotest.check_raises "offset beyond window"
    (Invalid_argument
       "Queue.on_mem: offset 2 outside alias register window of 2 (software \
        overflow bug)") (fun () ->
      ignore
        (Hw.Queue.on_mem q (qop ~id:1 ~offset:2 ~p:true ~c:false ())
           (access ~addr:0 ~width:4)))

let test_queue_reset () =
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.rotate q 2;
  Hw.Queue.reset q;
  Alcotest.(check int) "base reset" 0 (Hw.Queue.base q);
  Alcotest.(check int) "entries cleared" 0
    (List.length (Hw.Queue.live_entries q))

let mop ~id ~annot ~store =
  let op =
    if store then
      I.Store { src = I.Imm 0; addr = { I.base = r 0; disp = 0 }; width = 4; annot }
    else
      I.Load { dst = f 0; addr = { I.base = r 0; disp = 0 }; width = 4; annot }
  in
  I.make ~id op

let test_efficeon_mask () =
  let e = Hw.Efficeon.create () in
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:1 ~annot:(Ir.Annot.mask ~set_index:(Some 3) ~check_mask:0)
          ~store:false)
       (access ~addr:0 ~width:4));
  (* mask not covering register 3: no detection even on overlap *)
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:2 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:0b0111)
          ~store:true)
       (access ~addr:0 ~width:4));
  (* mask covering register 3: detected *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Efficeon.on_mem e
       (mop ~id:3 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:0b1000)
          ~store:true)
       (access ~addr:0 ~width:4))

let test_efficeon_store_store () =
  (* stores may be protected and checked: store-store detection works *)
  let e = Hw.Efficeon.create () in
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:1 ~annot:(Ir.Annot.mask ~set_index:(Some 0) ~check_mask:0)
          ~store:true)
       (access ~addr:0 ~width:4));
  expect_violation ~setter:1 ~checker:2
    (Hw.Efficeon.on_mem e
       (mop ~id:2 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:1)
          ~store:true)
       (access ~addr:2 ~width:4))

let test_efficeon_encoding_limit () =
  Alcotest.check_raises "16 registers rejected"
    (Invalid_argument "Efficeon.create: size must be in 1..15") (fun () ->
      ignore (Hw.Efficeon.create ~size:16 ()))

let test_alat_false_positive () =
  (* every store snoops every entry: a benign overlap still fires *)
  let a = Hw.Alat.create () in
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:1 ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
       (access ~addr:0 ~width:4));
  (match
     Hw.Alat.on_mem a
       (mop ~id:2 ~annot:Ir.Annot.No_annot ~store:true)
       (access ~addr:0 ~width:4)
   with
  | Ok () -> Alcotest.fail "expected ALAT hit"
  | Error v ->
    Alcotest.(check bool) "flagged FP-prone" true
      v.Hw.Detector.false_positive_prone)

let test_alat_no_load_load () =
  let a = Hw.Alat.create () in
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:1 ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
       (access ~addr:0 ~width:4));
  (* a later load never checks the table *)
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:2 ~annot:(Ir.Annot.alat ~advanced:false) ~store:false)
       (access ~addr:0 ~width:4))

let test_alat_capacity_eviction () =
  let a = Hw.Alat.create ~size:2 () in
  List.iter
    (fun id ->
      ok_or_fail
        (Hw.Alat.on_mem a
           (mop ~id ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
           (access ~addr:(id * 100) ~width:4)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "bounded" 2 (Hw.Alat.live_count a);
  (* entry 1 evicted: store to its range passes silently *)
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:4 ~annot:Ir.Annot.No_annot ~store:true)
       (access ~addr:100 ~width:4))

(* Table 1 of the paper as a machine-checked fact. *)
let test_table1_capabilities () =
  let queue = (Hw.Queue.detector (Hw.Queue.create ~size:64)).Hw.Detector.caps in
  let eff = (Hw.Efficeon.detector (Hw.Efficeon.create ())).Hw.Detector.caps in
  let alat = (Hw.Alat.detector (Hw.Alat.create ())).Hw.Detector.caps in
  Alcotest.(check bool) "efficeon not scalable" false eff.Hw.Detector.scalable;
  Alcotest.(check bool) "efficeon precise" false eff.Hw.Detector.false_positives;
  Alcotest.(check bool) "efficeon st-st" true eff.Hw.Detector.detects_store_store;
  Alcotest.(check bool) "alat scalable" true alat.Hw.Detector.scalable;
  Alcotest.(check bool) "alat has FPs" true alat.Hw.Detector.false_positives;
  Alcotest.(check bool) "alat no st-st" false alat.Hw.Detector.detects_store_store;
  Alcotest.(check bool) "queue scalable" true queue.Hw.Detector.scalable;
  Alcotest.(check bool) "queue precise" false queue.Hw.Detector.false_positives;
  Alcotest.(check bool) "queue st-st" true queue.Hw.Detector.detects_store_store

let test_checks_counter () =
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  ignore
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:1000 ~width:4));
  Alcotest.(check int) "one comparison" 1 (Hw.Queue.checks_performed q)

let suite =
  ( "hw",
    [
      case "access overlap" test_access_overlap;
      case "queue: basic detection (Fig 2)" test_queue_basic_detection;
      case "queue: ordered-detection rule" test_queue_order_rule;
      case "queue: load-load exemption" test_queue_load_load_exemption;
      case "queue: P+C checks before set" test_queue_pc_same_op;
      case "queue: rotation frees front" test_queue_rotation;
      case "queue: rotation preserves later entries"
        test_queue_rotation_preserves_later;
      case "queue: AMOV move and clear" test_queue_amov_move_and_clear;
      case "queue: window overflow is a software bug" test_queue_overflow_guard;
      case "queue: reset" test_queue_reset;
      case "efficeon: explicit mask checks" test_efficeon_mask;
      case "efficeon: store-store detection" test_efficeon_store_store;
      case "efficeon: encoding limit" test_efficeon_encoding_limit;
      case "alat: blanket snoop false positive" test_alat_false_positive;
      case "alat: loads never check" test_alat_no_load_load;
      case "alat: capacity eviction" test_alat_capacity_eviction;
      case "table 1 capabilities" test_table1_capabilities;
      case "energy proxy counter" test_checks_counter;
      case "queue: rotation frees exactly the stale orders"
        test_queue_rotation_frees_exactly_stale;
    ] )
