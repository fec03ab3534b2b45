type rule =
  | Def_before_use
  | Branch_order
  | Exit_crossed
  | Sched_hazard
  | Sched_width
  | Sched_complete
  | Dropped_illegal
  | Hard_reordered
  | Nospec_reordered
  | Annot_scheme
  | Alloc_window
  | Queue_uncovered
  | Queue_spurious
  | Queue_base_sync
  | Queue_rotate
  | Amov_bounds
  | Alat_unmarked
  | Alat_capacity
  | Mask_uncovered
  | Mask_clobbered
  | Mask_bounds
  | Cert_endpoints
  | Cert_derivation
  | Cert_separation
  | Cert_edge_kept
  | Dep_missing
  | Cert_region_sync

let rule_name = function
  | Def_before_use -> "def_before_use"
  | Branch_order -> "branch_order"
  | Exit_crossed -> "exit_crossed"
  | Sched_hazard -> "sched_hazard"
  | Sched_width -> "sched_width"
  | Sched_complete -> "sched_complete"
  | Dropped_illegal -> "dropped_illegal"
  | Hard_reordered -> "hard_reordered"
  | Nospec_reordered -> "nospec_reordered"
  | Annot_scheme -> "annot_scheme"
  | Alloc_window -> "alloc_window"
  | Queue_uncovered -> "queue_uncovered"
  | Queue_spurious -> "queue_spurious"
  | Queue_base_sync -> "queue_base_sync"
  | Queue_rotate -> "queue_rotate"
  | Amov_bounds -> "amov_bounds"
  | Alat_unmarked -> "alat_unmarked"
  | Alat_capacity -> "alat_capacity"
  | Mask_uncovered -> "mask_uncovered"
  | Mask_clobbered -> "mask_clobbered"
  | Mask_bounds -> "mask_bounds"
  | Cert_endpoints -> "cert_endpoints"
  | Cert_derivation -> "cert_derivation"
  | Cert_separation -> "cert_separation"
  | Cert_edge_kept -> "cert_edge_kept"
  | Dep_missing -> "dep_missing"
  | Cert_region_sync -> "cert_region_sync"

type violation = {
  rule : rule;
  detail : string;
}

type verdict =
  | Pass
  | Reject of violation list

type mode =
  | Off
  | All

let mode_of_string = function
  | "off" -> Ok Off
  | "all" -> Ok All
  | s -> Error (Printf.sprintf "unknown verify mode %S (off|all)" s)

let mode_name = function Off -> "off" | All -> "all"

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" (rule_name v.rule) v.detail

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Reject vs ->
    Format.fprintf ppf "reject (%d):" (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "@ %a" pp_violation v) vs

let is_splice (i : Ir.Instr.t) =
  match i.op with Ir.Instr.Rotate _ | Ir.Instr.Amov _ -> true | _ -> false

let filler = Ir.Instr.make ~id:0 Ir.Instr.Nop

(* Lay a bundle into the flat arrays from index [k]; returns the next
   free index. *)
let rec lay_bundle flat cyc_at cycle k = function
  | [] -> k
  | (i : Ir.Instr.t) :: rest ->
    flat.(k) <- i;
    cyc_at.(k) <- cycle;
    lay_bundle flat cyc_at cycle (k + 1) rest

(* A bit matrix over memory positions, [m * m] bits. *)
let bits_create m = Bytes.make (((m * m) + 7) / 8) '\000'

let bits_set bits m x y =
  let b = (x * m) + y in
  Bytes.set bits (b lsr 3)
    (Char.chr (Char.code (Bytes.get bits (b lsr 3)) lor (1 lsl (b land 7))))

let bits_clear bits m x y =
  let b = (x * m) + y in
  Bytes.set bits (b lsr 3)
    (Char.chr (Char.code (Bytes.get bits (b lsr 3)) land lnot (1 lsl (b land 7))))

let bits_mem bits m x y =
  let b = (x * m) + y in
  Char.code (Bytes.get bits (b lsr 3)) land (1 lsl (b land 7)) <> 0

let verify ~issue_width ~mem_ports ~latency (o : Opt.Optimizer.t) =
  let region = o.Opt.Optimizer.region in
  let sb = region.Ir.Region.source in
  let policy = o.Opt.Optimizer.policy_used in
  let ar_count = policy.Sched.Policy.ar_count in
  let hazards = o.Opt.Optimizer.hazards in
  let deps = o.Opt.Optimizer.deps in
  let violations = ref [] in
  let flag rule fmt =
    Printf.ksprintf
      (fun detail -> violations := { rule; detail } :: !violations)
      fmt
  in
  (* Every rule works from two position-indexed views: the body in
     program order, and the region flattened bundle by bundle
     (execution order) with each instruction's issue cycle.  Both must
     name each instruction by a unique id; that is checked first. *)
  let body = Witness.index (Array.of_list sb.Ir.Superblock.body) in
  let arr = body.Witness.instrs in
  let n = Array.length arr in
  let bundles = region.Ir.Region.bundles in
  let n_flat = Array.fold_left (fun acc b -> acc + List.length b) 0 bundles in
  let flat_arr = Array.make n_flat filler and cyc_at = Array.make n_flat 0 in
  let k = ref 0 in
  Array.iteri (fun cycle bundle -> k := lay_bundle flat_arr cyc_at cycle !k bundle) bundles;
  let flat = Witness.index flat_arr in
  let pos_of id = Witness.pos flat id in
  let cyc_of id =
    let p = pos_of id in
    if p >= 0 then cyc_at.(p) else -1
  in
  let body_pos id = Witness.pos body id in
  let unique view (v : Witness.indexed) =
    Array.iteri
      (fun p (i : Ir.Instr.t) ->
        if Witness.pos v i.id <> p then
          flag Sched_complete "%s id %d names more than one instruction" view i.id)
      v.Witness.instrs
  in
  unique "body" body;
  unique "region" flat;

  (* ---- completeness: the region is the superblock body plus splices *)
  Array.iter
    (fun (i : Ir.Instr.t) ->
      if pos_of i.id < 0 then
        flag Sched_complete "body instruction %d missing from the region" i.id)
    arr;
  Array.iter
    (fun (i : Ir.Instr.t) ->
      if (not (is_splice i)) && body_pos i.id < 0 then
        flag Sched_complete "region instruction %d is not in the body" i.id)
    flat_arr;
  if region.Ir.Region.entry <> sb.Ir.Superblock.entry then
    flag Sched_complete "region entry %s differs from superblock entry %s"
      region.Ir.Region.entry sb.Ir.Superblock.entry;
  if region.Ir.Region.final_exit <> sb.Ir.Superblock.final_exit then
    flag Sched_complete "region and superblock final exits differ";
  let issue_pos = o.Opt.Optimizer.issue_pos and issue_cycle = o.Opt.Optimizer.issue_cycle in
  if Array.length issue_pos <> Array.length issue_cycle then
    flag Sched_complete "%d issue positions but %d issue cycles" (Array.length issue_pos)
      (Array.length issue_cycle);
  for k = 0 to min (Array.length issue_pos) (Array.length issue_cycle) - 1 do
    let p = issue_pos.(k) and c = issue_cycle.(k) in
    if p < 0 || p >= n then flag Sched_complete "issue position %d outside the body" p
    else
      let c' = cyc_of arr.(p).id in
      if c' >= 0 && c' <> c then
        flag Sched_complete "instruction %d issued at cycle %d but bundled at %d"
          arr.(p).id c c'
  done;

  (* The cycle-precedence rule the scheduler enforces on every hazard
     edge: successor issues no earlier than predecessor issue plus the
     predecessor's full latency.  Per body position: its issue cycle and
     its latency. *)
  let bcyc = Array.map (fun (i : Ir.Instr.t) -> cyc_of i.id) arr in
  let blat = Array.map latency arr in
  let require_at rule pa cb b what =
    let ca = bcyc.(pa) in
    if ca >= 0 && cb >= 0 then begin
      let l = blat.(pa) in
      if cb < ca + l then
        flag rule "%s %d -> %d: cycle %d < %d + latency %d" what arr.(pa).id b
          cb ca l
    end
  in
  let require rule pa pb what = require_at rule pa bcyc.(pb) arr.(pb).id what in

  (* ---- register dependences, re-derived from the body.  Per register
     (indexed by [Witness.reg_slot], one slot per register the body
     names): the last defining position and the chain of use positions
     since it, newest first.  Operands are read in place. *)
  let codes =
    Witness.reg_codes (fun note ->
        Array.iter
          (fun (i : Ir.Instr.t) ->
            Ir.Instr.iter_uses note i;
            Ir.Instr.iter_defs note i;
            if Ir.Instr.is_side_exit i then
              Ir.Reg.Set.iter note (Ir.Superblock.exit_live_out sb i.id))
          arr)
  in
  let slot r = Witness.reg_slot codes r in
  let n_uses = ref 0 in
  Array.iter (Ir.Instr.iter_uses (fun _ -> incr n_uses)) arr;
  let nr = Array.length codes in
  let last_def = Array.make nr (-1) and use_head = Array.make nr (-1) in
  let use_pos = Array.make !n_uses 0 and use_next = Array.make !n_uses (-1) in
  let def_code = Array.make n (-1) in
  let tok = ref 0 and cur = ref 0 in
  let on_use r =
    let s = slot r and p = !cur in
    if last_def.(s) >= 0 then require Def_before_use last_def.(s) p "raw";
    use_pos.(!tok) <- p;
    use_next.(!tok) <- use_head.(s);
    use_head.(s) <- !tok;
    incr tok
  in
  let on_def r =
    let s = slot r and p = !cur in
    def_code.(p) <- s;
    if last_def.(s) >= 0 then require Def_before_use last_def.(s) p "waw";
    let u = ref use_head.(s) in
    while !u >= 0 do
      let pu = use_pos.(!u) in
      if pu <> p then require Def_before_use pu p "war";
      u := use_next.(!u)
    done;
    last_def.(s) <- p;
    use_head.(s) <- -1
  in
  for p = 0 to n - 1 do
    cur := p;
    Ir.Instr.iter_uses on_use arr.(p);
    Ir.Instr.iter_defs on_def arr.(p)
  done;

  (* ---- side exits: ordered, and never crossed by blocked work *)
  let prev_exit = ref (-1) in
  for e = 0 to n - 1 do
    if Ir.Instr.is_side_exit arr.(e) then begin
      let pa = !prev_exit in
      if pa >= 0 then begin
        let ca = bcyc.(pa) and cb = bcyc.(e) in
        if ca >= 0 && cb >= 0 && cb <= ca then
          flag Branch_order "exits %d and %d issued at cycles %d >= %d"
            arr.(pa).id arr.(e).id ca cb
      end;
      prev_exit := e
    end
  done;
  (* [live_at.(code) = e] marks a register live out of the exit at [e] *)
  let live_at = Array.make nr (-1) in
  let exit_at = ref (-1) in
  let mark_live r = live_at.(slot r) <- !exit_at in
  let blocked p e =
    (not (Ir.Instr.is_side_exit arr.(p)))
    && (Ir.Instr.is_store arr.(p)
       || (def_code.(p) >= 0 && live_at.(def_code.(p)) = e))
  in
  for e = 0 to n - 1 do
    let x = arr.(e) in
    if Ir.Instr.is_side_exit x then begin
      exit_at := e;
      Ir.Reg.Set.iter mark_live (Ir.Superblock.exit_live_out sb x.id);
      for p = e - 1 downto 0 do
        if blocked p e then require Exit_crossed p e "pre-exit"
      done;
      for p = e + 1 to n - 1 do
        if blocked p e then require Exit_crossed e p "post-exit"
      done
    end
  done;

  (* ---- the recorded hazard graph itself, read from its CSR rows *)
  let hz_ids = hazards.Sched.Hazards.ids in
  for p = 0 to Array.length hz_ids - 1 do
    for x = hazards.Sched.Hazards.pred_start.(p)
        to hazards.Sched.Hazards.pred_start.(p + 1) - 1 do
      let a = hz_ids.(hazards.Sched.Hazards.pred.(x)) and b = hz_ids.(p) in
      let pa = body_pos a in
      if pa >= 0 then require_at Sched_hazard pa (cyc_of b) b "hazard"
    done
  done;

  (* ---- resource limits per bundle *)
  let n_ops = ref 0 and n_mem = ref 0 and n_br = ref 0 in
  let count_op (i : Ir.Instr.t) =
    if not (is_splice i) then begin
      incr n_ops;
      if Ir.Instr.is_memory i then incr n_mem;
      if Ir.Instr.is_branch i then incr n_br
    end
  in
  Array.iteri
    (fun cycle bundle ->
      n_ops := 0;
      n_mem := 0;
      n_br := 0;
      List.iter count_op bundle;
      if !n_ops > issue_width then
        flag Sched_width "cycle %d issues %d ops over width %d" cycle !n_ops
          issue_width;
      if !n_mem > mem_ports then
        flag Sched_width "cycle %d issues %d memory ops over %d ports" cycle
          !n_mem mem_ports;
      if !n_br > 1 then flag Sched_width "cycle %d issues %d branches" cycle !n_br)
    bundles;

  (* ---- the real dependences, over memory positions.  [mem_flat]
     maps a memory position to its execution-order position.  A
     reordered must-alias pair is an error outright; the others become
     directed bit matrices, (first, second), one per strength. *)
  let mems = Witness.memory_ops arr in
  let mem_index = Witness.index mems in
  let m = Array.length mems in
  let mem_flat = Array.map (fun (i : Ir.Instr.t) -> pos_of i.id) mems in
  let spec_bits = bits_create m and hard_bits = bits_create m in
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      if kind = Analysis.Depgraph.Real then begin
        let x = Witness.pos mem_index first
        and y = Witness.pos mem_index second in
        if x >= 0 && y >= 0 then
          if strength = Analysis.Depgraph.Speculative then bits_set spec_bits m x y
          else begin
            bits_set hard_bits m x y;
            if mem_flat.(x) >= 0 && mem_flat.(y) >= 0 && mem_flat.(y) < mem_flat.(x)
            then
              flag Hard_reordered "must-alias pair %d,%d executes in reverse"
                first second
          end
      end);

  (* ---- dropped pairs must be droppable speculative dependences: per
     dropped key (ascending, as the hazard graph records them), two
     binary searches and one bit test *)
  let dropped = hazards.Sched.Hazards.dropped in
  Array.iteri
    (fun k key ->
      let f = Witness.key_lo key and s = Witness.key_hi key in
      if k > 0 && key <= dropped.(k - 1) then
        flag Dropped_illegal "dropped pair %d,%d repeats or is out of key order"
          f s;
      let x = Witness.pos mem_index f and y = Witness.pos mem_index s in
      if x < 0 || y < 0 then
        flag Dropped_illegal "dropped pair %d,%d not in the body" f s
      else if not (bits_mem spec_bits m x y) then
        flag Dropped_illegal "dropped pair %d,%d is not a speculative dep" f s
      else if not (Sched.Policy.may_drop_edge policy ~first:mems.(x) ~second:mems.(y))
      then
        flag Dropped_illegal "policy %s may not drop pair %d,%d"
          policy.Sched.Policy.name f s)
    dropped;

  (* ---- speculation coverage.  A dependence edge other than a real
     must-alias one needs a runtime check exactly when its [second]
     endpoint executes before its [first] (for Real edges that is a
     reordering; for Extended edges it is the natural order, hence
     they are almost always live).  [iter_required] visits those in
     edge order, with the memory positions [x] of [first] and [y] of
     [second] — a walk of the dependence graph, so no per-edge record
     is kept. *)
  let iter_required f =
    Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
        if not (kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Hard)
        then begin
          let x = Witness.pos mem_index first and y = Witness.pos mem_index second in
          if x >= 0 && y >= 0 then begin
            let pf = mem_flat.(x) and ps = mem_flat.(y) in
            if pf >= 0 && ps >= 0 && ps < pf then f x y
          end
        end)
  in
  let annot_at x = Ir.Instr.annot flat_arr.(mem_flat.(x)) in
  let no_splices what =
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if is_splice i then flag Annot_scheme "queue instruction %d %s" i.id what)
      flat_arr
  in

  (* ---- scheme-specific checks *)
  (match policy.Sched.Policy.scheme with
  | Sched.Policy.Queue_scheme ->
    (* Section 3's detection rule, replayed over the region in
       execution order from the region alone.  The register of order
       [o] lives in ring slot [o mod ar_count] with the memory position
       of the op whose range it holds and whether a load set it; a slot
       is live while it holds the order being read, so registers that
       [ROTATE] slides below [BASE] are free, and [AMOV] moves or clears
       a range as the hardware does.  A C-bit op compares every live
       register at or above its own order, except that a load skips
       registers a load set: [compared] marks (setter, checker) over
       memory positions, the orientation of a dependence that executes
       in order. *)
    let slot_order = Array.make ar_count (-1) in
    let slot_setter = Array.make ar_count 0 in
    let slot_load = Array.make ar_count false in
    let compared = bits_create m in
    let qbase = ref 0 in
    let in_window k = k >= 0 && k < ar_count in
    let set o ~setter ~is_load =
      let s = o mod ar_count in
      slot_order.(s) <- o;
      slot_setter.(s) <- setter;
      slot_load.(s) <- is_load
    in
    Array.iter
      (fun (i : Ir.Instr.t) ->
        match i.op with
        | Ir.Instr.Rotate k ->
          if k <= 0 then flag Queue_rotate "rotate %d by %d" i.id k
          else qbase := !qbase + k
        | Ir.Instr.Amov { src_offset; dst_offset } ->
          if not (in_window src_offset && in_window dst_offset) then
            flag Amov_bounds "amov %d offsets %d,%d outside [0,%d)" i.id
              src_offset dst_offset ar_count
          else begin
            let so = !qbase + src_offset and d = !qbase + dst_offset in
            let s = so mod ar_count in
            if slot_order.(s) <> so then slot_order.(d mod ar_count) <- -1
            else begin
              slot_order.(s) <- -1;
              if d <> so then
                set d ~setter:slot_setter.(s) ~is_load:slot_load.(s)
            end
          end
        | _ when not (Ir.Instr.is_memory i) -> ()
        | _ -> (
          match Ir.Instr.annot i with
          | Ir.Annot.No_annot -> ()
          | Ir.Annot.Mask _ | Ir.Annot.Alat _ ->
            flag Annot_scheme "op %d carries a non-queue annotation" i.id
          | Ir.Annot.Queue { offset; p; c } ->
            let x = Witness.pos mem_index i.id in
            if not (in_window offset) then
              flag Alloc_window "op %d offset %d outside [0,%d)" i.id offset
                ar_count
            else if x >= 0 then begin
              let mine = !qbase + offset and is_load = Ir.Instr.is_load i in
              if c then
                for o = mine to !qbase + ar_count - 1 do
                  let s = o mod ar_count in
                  if slot_order.(s) = o && not (is_load && slot_load.(s)) then
                    bits_set compared m slot_setter.(s) x
                done;
              if p then set mine ~setter:x ~is_load
            end))
      flat_arr;
    (* Soundness: each reordered pair is compared.  A compared pair some
       edge requires is then accounted for, and what is still compared
       on a real dependence is a false positive, which the allocator's
       anti-constraints exist to prevent. *)
    iter_required (fun x y ->
        if bits_mem compared m y x then bits_clear compared m y x
        else
          flag Queue_uncovered "reordered pair %d,%d: %d does not compare %d"
            mems.(x).id mems.(y).id mems.(x).id mems.(y).id);
    Bytes.iteri
      (fun b c ->
        let real =
          Char.code (Bytes.get spec_bits b) lor Char.code (Bytes.get hard_bits b)
        in
        let hit = Char.code c land real in
        if hit <> 0 then
          for k = 0 to 7 do
            if hit land (1 lsl k) <> 0 then begin
              let y = ((8 * b) + k) / m and x = ((8 * b) + k) mod m in
              flag Queue_spurious "in-order pair %d,%d: %d compares %d"
                mems.(y).id mems.(x).id mems.(x).id mems.(y).id
            end
          done)
      compared
  | Sched.Policy.Naive_queue_scheme ->
    (* one register per memory op, program order, always set + check:
       an op's register is its memory position *)
    let qbase = ref 0 in
    Array.iter
      (fun (i : Ir.Instr.t) ->
        match i.op with
        | Ir.Instr.Rotate k ->
          if k <= 0 then flag Queue_rotate "rotate %d by %d" i.id k;
          qbase := !qbase + k
        | Ir.Instr.Amov _ ->
          flag Annot_scheme "AMOV %d under the naive order scheme" i.id
        | _ ->
          if Ir.Instr.is_memory i then (
            match Ir.Instr.annot i with
            | Ir.Annot.Queue { offset; p = true; c = true } ->
              if offset < 0 || offset >= ar_count then
                flag Alloc_window "op %d offset %d outside [0,%d)" i.id offset
                  ar_count;
              let o = Witness.pos mem_index i.id in
              if o >= 0 && !qbase + offset <> o then
                flag Queue_base_sync
                  "op %d at base %d + offset %d, but program order %d" i.id
                  !qbase offset o
            | _ ->
              flag Annot_scheme
                "op %d must set and check under the naive scheme" i.id))
      flat_arr
  | Sched.Policy.Alat_scheme ->
    no_splices "under the ALAT scheme";
    let check_mark = Ir.Annot.alat ~advanced:false in
    Array.iter
      (fun (i : Ir.Instr.t) ->
        match Ir.Instr.annot i with
        | Ir.Annot.No_annot -> ()
        | Ir.Annot.Alat { advanced } ->
          if Ir.Instr.is_store i && advanced then
            flag Annot_scheme "store %d marked as an advanced load" i.id;
          if Ir.Instr.is_load i && not advanced then
            flag Annot_scheme "load %d carries a non-advanced ALAT mark" i.id
        | Ir.Annot.Queue _ | Ir.Annot.Mask _ ->
          flag Annot_scheme "op %d carries a non-ALAT annotation" i.id)
      flat_arr;
    if not (Array.for_all (fun (i : Ir.Instr.t) ->
                (not (Ir.Instr.is_store i))
                || Ir.Instr.annot i = check_mark)
              flat_arr)
    then flag Annot_scheme "a store is missing its ALAT check annotation";
    let advanced = function
      | Ir.Annot.Alat { advanced } -> advanced
      | _ -> false
    in
    iter_required (fun x y ->
        let f = mems.(x).id and s = mems.(y).id in
        if Ir.Instr.is_store mems.(x) && Ir.Instr.is_load mems.(y) then begin
          if not (advanced (annot_at y)) then
            flag Alat_unmarked
              "reordered pair %d,%d: load %d is not marked advanced" f s s
        end
        else
          flag Annot_scheme
            "reordered pair %d,%d cannot be protected by the ALAT" f s;
        (* FIFO eviction: the entry survives only while fewer than
           [ar_count] advanced loads execute inside the window *)
        let inserted = ref 0 in
        for p = mem_flat.(y) + 1 to mem_flat.(x) - 1 do
          let j = flat_arr.(p) in
          if Ir.Instr.is_load j && advanced (Ir.Instr.annot j) then incr inserted
        done;
        if !inserted >= ar_count then
          flag Alat_capacity
            "pair %d,%d: %d advanced loads inside the window evict the entry"
            f s !inserted)
  | Sched.Policy.Mask_scheme ->
    no_splices "under the mask scheme";
    let full_mask = (1 lsl ar_count) - 1 in
    Array.iter
      (fun (i : Ir.Instr.t) ->
        match Ir.Instr.annot i with
        | Ir.Annot.No_annot -> ()
        | Ir.Annot.Mask { set_index; check_mask } ->
          (match set_index with
          | Some k when k < 0 || k >= ar_count ->
            flag Mask_bounds "op %d sets register %d of %d" i.id k ar_count
          | _ -> ());
          if check_mask < 0 || check_mask land lnot full_mask <> 0 then
            flag Mask_bounds "op %d check mask %#x exceeds %d registers" i.id
              check_mask ar_count
        | Ir.Annot.Queue _ | Ir.Annot.Alat _ ->
          flag Annot_scheme "op %d carries a non-mask annotation" i.id)
      flat_arr;
    let sets (i : Ir.Instr.t) k =
      match Ir.Instr.annot i with
      | Ir.Annot.Mask { set_index = Some k'; _ } -> k' = k
      | _ -> false
    in
    let check_mask_of = function
      | Ir.Annot.Mask { check_mask; _ } -> check_mask
      | _ -> 0
    in
    iter_required (fun x y ->
        let f = mems.(x).id and s = mems.(y).id in
        match annot_at y with
        | Ir.Annot.Mask { set_index = Some k; _ } ->
          if check_mask_of (annot_at x) land (1 lsl k) = 0 then
            flag Mask_uncovered
              "reordered pair %d,%d: %d does not check register %d" f s f k;
          for p = mem_flat.(y) + 1 to mem_flat.(x) - 1 do
            let j = flat_arr.(p) in
            if j.id <> s && sets j k then
              flag Mask_clobbered
                "pair %d,%d: op %d reuses register %d inside the window" f s
                j.id k
          done
        | _ ->
          flag Mask_uncovered
            "reordered pair %d,%d: %d sets no alias register" f s s)
  | Sched.Policy.No_scheme ->
    no_splices "without a scheme";
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if Ir.Instr.annot i <> Ir.Annot.No_annot then
          flag Annot_scheme "op %d annotated without a scheme" i.id)
      flat_arr;
    iter_required (fun x y ->
        flag Nospec_reordered
          "pair %d,%d executes in reverse without alias detection" mems.(x).id
          mems.(y).id));

  (* ---- alias-certification witnesses, replayed independently, and
     dependence completeness — on every region: without a certificate
     the replay checks an empty one, so a lost edge is still caught *)
  let cert =
    match o.Opt.Optimizer.cert with
    | Some cert -> cert
    | None -> Analysis.Disamb.empty
  in
  List.iter
    (fun (v : Witness.violation) ->
      match v with
      | Witness.Endpoints d -> flag Cert_endpoints "%s" d
      | Witness.Derivation d -> flag Cert_derivation "%s" d
      | Witness.Separation d -> flag Cert_separation "%s" d
      | Witness.Edge_kept d -> flag Cert_edge_kept "%s" d
      | Witness.Dep_missing d -> flag Dep_missing "%s" d
      | Witness.Region_sync d -> flag Cert_region_sync "%s" d)
    (Witness.check ~cert ~body
       ~region_certified:region.Ir.Region.certified_no_alias ~deps);

  match !violations with
  | [] -> Pass
  | vs -> Reject (List.rev vs)
