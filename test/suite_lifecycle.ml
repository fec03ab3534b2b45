(* The region lifecycle against a reference model.  The model below is
   written from the recovery ladder's rules as DESIGN.md §7 states
   them, on plain lists, and shares no code with [Runtime.Lifecycle]:
   - a fault on a new pair learns it (either orientation is the same
     pair);
   - a fault on a learned pair pins both ops;
   - the fault that takes the region past [max_reopts]
     re-optimizations gives speculation up, for good;
   - a region that faults more than [2 * max_reopts + 10] times with no
     commit in between is degraded, whatever its rung;
   - the optimizer's known pairs are the learned pairs plus every
     pinned op paired with each other memory op. *)

open Helpers
module L = Runtime.Lifecycle

type model = {
  learned : (int * int) list;
  pins : int list;
  reopts : int;
  gave_up : bool;
  streak : int;
}

let model_fresh =
  { learned = []; pins = []; reopts = 0; gave_up = false; streak = 0 }

(* the superblock's memory ops: ids 0..3 *)
let universe = [ 0; 1; 2; 3 ]

let model_fault ~max_reopts (a, b) m =
  let m = { m with streak = m.streak + 1 } in
  if m.streak > (2 * max_reopts) + 10 then (m, L.Degrade)
  else if m.gave_up then (m, L.Retried_unspeculated)
  else
    let m = { m with reopts = m.reopts + 1 } in
    if m.reopts > max_reopts then ({ m with gave_up = true }, L.Gave_up)
    else if List.mem (a, b) m.learned || List.mem (b, a) m.learned then
      let fresh =
        List.sort_uniq compare
          (List.filter (fun p -> not (List.mem p m.pins)) [ a; b ])
      in
      ({ m with pins = fresh @ m.pins }, L.Pinned (List.length fresh))
    else ({ m with learned = (a, b) :: m.learned }, L.Learned)

let normalize pairs =
  List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) pairs)

let model_known m =
  if m.gave_up then []
  else
    normalize
      (m.learned
      @ List.concat_map
          (fun p ->
            List.filter_map
              (fun o -> if o = p then None else Some (p, o))
              universe)
          m.pins)

type event =
  | Fault of int * int
  | Commit

let show_event = function
  | Fault (a, b) -> Printf.sprintf "fault(%d,%d)" a b
  | Commit -> "commit"

let show_transition = function
  | L.Learned -> "learned"
  | L.Pinned n -> Printf.sprintf "pinned %d" n
  | L.Gave_up -> "gave up"
  | L.Retried_unspeculated -> "retried unspeculated"
  | L.Degrade -> "degrade"

(* commits are rare in some sequences and common in others, so long
   fault streaks reach the watchdog and short ones do not *)
let scenario_arb =
  let op = QCheck.Gen.int_bound 3 in
  QCheck.make
    ~print:(fun (max_reopts, events) ->
      Printf.sprintf "max_reopts=%d: %s" max_reopts
        (String.concat " " (List.map show_event events)))
    QCheck.Gen.(
      pair (int_bound 4)
        (int_bound 4 >>= fun commit_weight ->
         list_size (int_bound 80)
           (frequency
              [
                (commit_weight, return Commit);
                (20, map2 (fun a b -> Fault (a, b)) op op);
              ])))

(* a superblock whose memory ops are the universe, and one other op *)
let sb =
  sb_of
    (Ir.Instr.make ~id:4 (Ir.Instr.Mov (r 1, Ir.Instr.Imm 0))
    :: List.map
         (fun id ->
           Ir.Instr.make ~id
             (Ir.Instr.Load
                {
                  dst = r 1;
                  addr = { Ir.Instr.base = r 2; disp = 8 * id };
                  width = 8;
                  annot = Ir.Annot.none;
                }))
         universe)

let prop_matches_model (max_reopts, events) =
  let check i event (life, m) =
    let life, m, got, want =
      match event with
      | Commit -> (L.commit life, { m with streak = 0 }, None, None)
      | Fault (a, b) ->
        let life, got = L.fault ~max_reopts ~setter:a ~checker:b life in
        let m, want = model_fault ~max_reopts (a, b) m in
        (life, m, Some got, Some want)
    in
    let known = normalize (L.known_alias life ~sb) in
    if got <> want || known <> model_known m
       || life.L.faults_since_commit <> m.streak
    then
      QCheck.Test.fail_reportf "event %d (%s): transition %s, model %s" i
        (show_event event)
        (Option.fold ~none:"-" ~some:show_transition got)
        (Option.fold ~none:"-" ~some:show_transition want);
    (life, m)
  in
  ignore
    (List.fold_left
       (fun (i, state) event -> (i + 1, check i event state))
       (0, (L.fresh, model_fresh))
       events);
  true

(* Fixed walk through every rung at [max_reopts = 2]: learn, pin,
   give up, retry, degrade; a commit resets the watchdog only. *)
let test_ladder_walk () =
  let max_reopts = 2 in
  let step life = L.fault ~max_reopts ~setter:1 ~checker:2 life in
  let life, t1 = step L.fresh in
  let life, t2 = step life in
  Alcotest.(check (list (pair int int))) "pins expand against the memory ops"
    [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ]
    (L.known_alias life ~sb);
  let life, t3 = step life in
  let life, t4 = step life in
  Alcotest.(check (list string)) "rungs in order"
    [ "learned"; "pinned 2"; "gave up"; "retried unspeculated" ]
    (List.map show_transition [ t1; t2; t3; t4 ]);
  Alcotest.(check (list (pair int int))) "no known pairs without speculation" []
    (L.known_alias life ~sb);
  let rec storm life n =
    match step life with
    | _, L.Degrade -> n + 1
    | life, _ -> storm life (n + 1)
  in
  Alcotest.(check int) "the watchdog fires on the fault after its bound"
    (L.watchdog ~max_reopts + 1)
    (storm L.fresh 0);
  Alcotest.(check bool) "a commit after a streak keeps the rung" true
    ((L.commit life).L.rung = life.L.rung
    && (L.commit life).L.faults_since_commit = 0)

let suite =
  ( "lifecycle",
    [
      case "a storm walks every rung" test_ladder_walk;
      qcase ~count:1000 "lifecycle equals the list model" scenario_arb
        prop_matches_model;
    ] )
