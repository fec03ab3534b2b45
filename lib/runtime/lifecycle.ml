module Pair_key = Analysis.Pair_key

type rung =
  | Speculative of { learned : int array; pinned : int list; reopts : int }
  | Unspeculated

type t = { rung : rung; faults_since_commit : int }

type transition =
  | Learned
  | Pinned of int
  | Gave_up
  | Retried_unspeculated
  | Degrade

let fresh =
  {
    rung = Speculative { learned = [||]; pinned = []; reopts = 0 };
    faults_since_commit = 0;
  }

let watchdog ~max_reopts = (2 * max_reopts) + 10

let commit t =
  if t.faults_since_commit = 0 then t else { t with faults_since_commit = 0 }

let pin id pinned = if List.mem id pinned then pinned else id :: pinned

let fault ~max_reopts ~setter ~checker t =
  let faults = t.faults_since_commit + 1 in
  let next rung transition =
    ({ rung; faults_since_commit = faults }, transition)
  in
  match t.rung with
  | _ when faults > watchdog ~max_reopts -> next t.rung Degrade
  | Unspeculated -> next Unspeculated Retried_unspeculated
  | Speculative { reopts; _ } when reopts + 1 > max_reopts ->
    next Unspeculated Gave_up
  | Speculative s ->
    let key = Pair_key.norm setter checker in
    let reopts = s.reopts + 1 in
    if Pair_key.mem s.learned key then
      let pinned = pin checker (pin setter s.pinned) in
      next
        (Speculative { s with pinned; reopts })
        (Pinned (List.length pinned - List.length s.pinned))
    else
      let learned = Pair_key.union s.learned [| key |] in
      next (Speculative { s with learned; reopts }) Learned

let known_alias t ~sb =
  match t.rung with
  | Unspeculated -> []
  | Speculative { learned; pinned = []; _ } ->
    Pair_key.to_pairs learned ~len:(Array.length learned)
  | Speculative { learned; pinned; _ } ->
    (* the learned keys, then every pin's pairs; [max_int] pads the
       slots a pin's own id leaves unused and sorts past them *)
    let mem_ops = Ir.Superblock.memory_ops sb in
    let n = Array.length learned in
    let keys =
      Array.make (n + (List.length pinned * List.length mem_ops)) max_int
    in
    Array.blit learned 0 keys 0 n;
    let len = ref n in
    List.iter
      (fun pin ->
        List.iter
          (fun (m : Ir.Instr.t) ->
            if m.id <> pin then begin
              keys.(!len) <- Pair_key.norm pin m.id;
              incr len
            end)
          mem_ops)
      pinned;
    Array.sort Int.compare keys;
    Pair_key.to_pairs keys ~len:!len
