module C = Analysis.Constraints

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
  | Annot_alloc_sync
  | Alloc_constraint
  | Alloc_window
  | Alloc_cycle
  | Queue_uncovered
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
  | Annot_alloc_sync -> "annot_alloc_sync"
  | Alloc_constraint -> "alloc_constraint"
  | Alloc_window -> "alloc_window"
  | Alloc_cycle -> "alloc_cycle"
  | Queue_uncovered -> "queue_uncovered"
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

(* an id missing from a table, or an order the allocation lacks *)
let absent = min_int

let find_or_absent tbl id =
  match Hashtbl.find tbl id with v -> v | exception Not_found -> absent

(* A bit matrix over memory positions, [m * m] bits. *)
let bits_create m = Bytes.make (((m * m) + 7) / 8) '\000'

let bits_set bits m x y =
  let b = (x * m) + y in
  Bytes.set bits (b lsr 3)
    (Char.chr (Char.code (Bytes.get bits (b lsr 3)) lor (1 lsl (b land 7))))

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
  List.iter
    (fun (c, (i : Ir.Instr.t)) ->
      let c' = cyc_of i.id in
      if c' >= 0 && c' <> c then
        flag Sched_complete "instruction %d issued at cycle %d but bundled at %d"
          i.id c c')
    o.Opt.Optimizer.issue_seq;

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
     (indexed by its code): the last defining position and the chain
     of use positions since it, newest first.  Operands are read in
     place. *)
  let top = ref (-1) and n_uses = ref 0 in
  let note r = top := Int.max !top (Witness.reg_code r) in
  let note_use r =
    note r;
    incr n_uses
  in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      Ir.Instr.iter_uses note_use i;
      Ir.Instr.iter_defs note i;
      if Ir.Instr.is_side_exit i then
        Ir.Reg.Set.iter note (Ir.Superblock.exit_live_out sb i.id))
    arr;
  let nr = !top + 1 in
  let last_def = Array.make nr (-1) and use_head = Array.make nr (-1) in
  let use_pos = Array.make !n_uses 0 and use_next = Array.make !n_uses (-1) in
  let def_code = Array.make n (-1) in
  let tok = ref 0 and cur = ref 0 in
  let on_use r =
    let s = Witness.reg_code r and p = !cur in
    if last_def.(s) >= 0 then require Def_before_use last_def.(s) p "raw";
    use_pos.(!tok) <- p;
    use_next.(!tok) <- use_head.(s);
    use_head.(s) <- !tok;
    incr tok
  in
  let on_def r =
    let s = Witness.reg_code r and p = !cur in
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
  let mark_live r = live_at.(Witness.reg_code r) <- !exit_at in
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

  (* ---- dropped pairs must be droppable speculative dependences.  The
     real speculative dependences become a directed bit matrix over
     memory positions; each dropped key (ascending, as the hazard graph
     records them) is then two binary searches and one bit test. *)
  let mems = Witness.memory_ops arr in
  let mem_index = Witness.index mems in
  let m = Array.length mems in
  let spec_bits = bits_create m in
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      if kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Speculative
      then begin
        let x = Witness.pos mem_index first
        and y = Witness.pos mem_index second in
        if x >= 0 && y >= 0 then bits_set spec_bits m x y
      end);
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

  (* ---- speculation coverage.  A dependence edge needs a runtime
     check exactly when its [second] endpoint executes before its
     [first] (for Real edges that is a reordering; for Extended edges
     it is the natural order, hence they are almost always live).  A
     reordered must-alias pair is an error outright; the others are
     what the scheme must cover, visited in edge order by
     [iter_required] — a walk of the dependence graph, so no per-edge
     record is kept. *)
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      if kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Hard then begin
        let pf = pos_of first and ps = pos_of second in
        if pf >= 0 && ps >= 0 && ps < pf then
          flag Hard_reordered "must-alias pair %d,%d executes in reverse" first
            second
      end);
  let iter_required f =
    Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
        if not (kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Hard)
        then begin
          let pf = pos_of first and ps = pos_of second in
          if pf >= 0 && ps >= 0 && ps < pf then f first second pf ps
        end)
  in

  let annot_of id =
    let p = pos_of id in
    if p >= 0 then Ir.Instr.annot flat_arr.(p) else Ir.Annot.No_annot
  in
  let no_splices what =
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if is_splice i then flag Annot_scheme "queue instruction %d %s" i.id what)
      flat_arr
  in

  (* ---- scheme-specific checks *)
  (match policy.Sched.Policy.scheme with
  | Sched.Policy.Queue_scheme -> (
    match o.Opt.Optimizer.alloc_result with
    | None ->
      flag Annot_scheme "queue scheme artifact carries no allocation result"
    | Some res ->
      let a = res.Sched.Smarq_alloc.allocation in
      let order id = find_or_absent a.C.order id in
      let amov_ids = Hashtbl.create 16 in
      List.iter
        (fun (m : Sched.Smarq_alloc.amov_insertion) ->
          Hashtbl.replace amov_ids m.amov_id m)
        res.Sched.Smarq_alloc.amovs;
      let edges = res.Sched.Smarq_alloc.check_edges @ res.Sched.Smarq_alloc.anti_edges in
      (* constraint edges against the final orders and bases *)
      (match C.validate a ~edges ~ar_count with
      | Ok () -> ()
      | Error problems ->
        List.iter
          (function
            | C.Unsatisfied m -> flag Alloc_constraint "%s" m
            | C.Window m -> flag Alloc_window "%s" m)
          problems);
      (* annotation/allocation synchronization over the region *)
      Array.iter
        (fun (i : Ir.Instr.t) ->
          if Ir.Instr.is_memory i then begin
            let pa = Hashtbl.mem a.C.p_bit i.id
            and ca = Hashtbl.mem a.C.c_bit i.id in
            match Ir.Instr.annot i with
            | Ir.Annot.Queue { offset; p; c } ->
              if p <> pa || c <> ca then
                flag Annot_alloc_sync
                  "op %d annotated p=%b c=%b but allocated p=%b c=%b" i.id p c
                  pa ca;
              let o = order i.id and b = find_or_absent a.C.base i.id in
              if o <> absent && b <> absent then begin
                if offset <> o - b then
                  flag Annot_alloc_sync
                    "op %d annotated offset %d but allocated %d - %d" i.id
                    offset o b
              end
              else flag Annot_alloc_sync "annotated op %d has no allocation" i.id;
              if offset < 0 || offset >= ar_count then
                flag Alloc_window "op %d offset %d outside [0,%d)" i.id offset
                  ar_count
            | Ir.Annot.No_annot ->
              if pa || ca then
                flag Annot_alloc_sync
                  "op %d allocated p=%b c=%b but carries no annotation" i.id pa
                  ca
            | Ir.Annot.Mask _ | Ir.Annot.Alat _ ->
              flag Annot_scheme "op %d carries a non-queue annotation" i.id
          end)
        flat_arr;
      (* AMOV splices against the allocator's insertion records *)
      List.iter
        (fun (m : Sched.Smarq_alloc.amov_insertion) ->
          if
            m.src_offset < 0 || m.dst_offset < 0
            || m.src_offset >= ar_count
            || m.dst_offset >= ar_count
          then
            flag Amov_bounds "amov %d offsets %d,%d outside [0,%d)" m.amov_id
              m.src_offset m.dst_offset ar_count;
          if (not m.dst_is_fresh) && m.src_offset <> m.dst_offset then
            flag Annot_alloc_sync "clearing amov %d moves %d -> %d" m.amov_id
              m.src_offset m.dst_offset;
          let pa = pos_of m.amov_id and pb = pos_of m.before in
          if pa < 0 || pb < 0 then
            flag Annot_alloc_sync "amov %d missing from the region" m.amov_id
          else begin
            if pa >= pb then
              flag Annot_alloc_sync "amov %d does not precede its anchor %d"
                m.amov_id m.before;
            let ca = cyc_at.(pa) and cb = cyc_at.(pb) in
            if ca <> cb then
              flag Annot_alloc_sync "amov %d not bundled with its anchor %d"
                m.amov_id m.before;
            match flat_arr.(pa).op with
            | Ir.Instr.Amov { src_offset; dst_offset } ->
              if src_offset <> m.src_offset || dst_offset <> m.dst_offset then
                flag Annot_alloc_sync
                  "amov %d materialized as %d->%d, recorded %d->%d" m.amov_id
                  src_offset dst_offset m.src_offset m.dst_offset
            | _ ->
              flag Annot_alloc_sync "instruction %d is not an AMOV" m.amov_id
          end)
        res.Sched.Smarq_alloc.amovs;
      Array.iter
        (fun (i : Ir.Instr.t) ->
          match i.op with
          | Ir.Instr.Amov _ ->
            if not (Hashtbl.mem amov_ids i.id) then
              flag Annot_alloc_sync "AMOV %d has no insertion record" i.id
          | _ -> ())
        flat_arr;
      (* BASE replay: walking the region in execution order, the queue
         base implied by ROTATE instructions must place every
         annotation and AMOV at its allocated order *)
      let qbase = ref 0 in
      Array.iter
        (fun (i : Ir.Instr.t) ->
          match i.op with
          | Ir.Instr.Rotate n ->
            if n <= 0 then flag Queue_rotate "rotate %d by %d" i.id n;
            qbase := !qbase + n
          | Ir.Instr.Amov _ -> (
            match Hashtbl.find amov_ids i.id with
            | exception Not_found -> ()
            | m ->
              let os = order m.src_instr in
              if os <> absent && !qbase + m.src_offset <> os then
                flag Queue_base_sync
                  "amov %d src at base %d + %d, but order(%d) = %d" i.id !qbase
                  m.src_offset m.src_instr os;
              if m.dst_is_fresh then begin
                let od = order m.amov_id in
                if od = absent then
                  flag Queue_base_sync "fresh amov %d has no order" i.id
                else if !qbase + m.dst_offset <> od then
                  flag Queue_base_sync
                    "amov %d dst at base %d + %d, but its order is %d" i.id
                    !qbase m.dst_offset od
              end)
          | _ -> (
            match Ir.Instr.annot i with
            | Ir.Annot.Queue { offset; _ } ->
              let od = order i.id in
              if od <> absent && !qbase + offset <> od then
                flag Queue_base_sync
                  "op %d at base %d + offset %d, but order is %d" i.id !qbase
                  offset od
            | _ -> ()))
        flat_arr;
      (* coverage under the ordered-detection rule, tracking each
         protected range through the AMOVs that execute before the
         checker; [holder_at] is -1 when the range was cleared *)
      let moved_by = Hashtbl.create 16 in
      List.iter
        (fun (m : Sched.Smarq_alloc.amov_insertion) ->
          Hashtbl.replace moved_by m.src_instr m)
        res.Sched.Smarq_alloc.amovs;
      let rec holder_at id limit =
        match Hashtbl.find moved_by id with
        | exception Not_found -> id
        | (m : Sched.Smarq_alloc.amov_insertion) ->
          let pa = pos_of m.amov_id in
          if pa >= 0 && pa < limit then
            if m.dst_is_fresh then holder_at m.amov_id limit else -1
          else id
      in
      iter_required (fun f s pf _ ->
          if not (Hashtbl.mem a.C.p_bit s) then
            flag Queue_uncovered "reordered pair %d,%d: %d is not protected" f
              s s
          else if not (Hashtbl.mem a.C.c_bit f) then
            flag Queue_uncovered "reordered pair %d,%d: %d does not check" f s
              f
          else
            let h = holder_at s pf in
            if h < 0 then
              flag Queue_uncovered
                "reordered pair %d,%d: %d's range cleared before the check" f s
                s
            else
              let of_ = order f and oh = order h in
              if of_ = absent || oh = absent then
                flag Queue_uncovered "reordered pair %d,%d: missing orders" f s
              else if of_ > oh then
                flag Queue_uncovered
                  "reordered pair %d,%d: order(%d)=%d > order(holder %d)=%d"
                  f s f of_ h oh);
      (* on AMOV-free regions the standalone FAST ALGORITHM certifies
         the constraint graph acyclic *)
      if res.Sched.Smarq_alloc.amovs = [] then begin
        let issue_order =
          Array.fold_right
            (fun (i : Ir.Instr.t) acc -> if Ir.Instr.is_memory i then i.id :: acc else acc)
            flat_arr []
        in
        match
          Sched.Fast_alloc.allocate ~issue_order
            ~p_bit:(Hashtbl.mem a.C.p_bit)
            ~c_bit:(Hashtbl.mem a.C.c_bit)
            ~edges
        with
        | Ok _ -> ()
        | Error { Sched.Fast_alloc.cycle } ->
          flag Alloc_cycle "constraint cycle without an AMOV: %s"
            (String.concat ", "
               (List.map (Format.asprintf "%a" C.pp_edge) cycle))
      end)
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
    let advanced id =
      match annot_of id with
      | Ir.Annot.Alat { advanced } -> advanced
      | _ -> false
    in
    iter_required (fun f s pf ps ->
        let fi = body_pos f and si = body_pos s in
        if fi >= 0 && si >= 0 && Ir.Instr.is_store arr.(fi) && Ir.Instr.is_load arr.(si)
        then begin
          if not (advanced s) then
            flag Alat_unmarked
              "reordered pair %d,%d: load %d is not marked advanced" f s s
        end
        else
          flag Annot_scheme
            "reordered pair %d,%d cannot be protected by the ALAT" f s;
        (* FIFO eviction: the entry survives only while fewer than
           [ar_count] advanced loads execute inside the window *)
        let inserted = ref 0 in
        for p = ps + 1 to pf - 1 do
          let j = flat_arr.(p) in
          if Ir.Instr.is_load j && advanced j.id then incr inserted
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
    let sets id k =
      match annot_of id with
      | Ir.Annot.Mask { set_index = Some k'; _ } -> k' = k
      | _ -> false
    in
    let check_mask_of id =
      match annot_of id with
      | Ir.Annot.Mask { check_mask; _ } -> check_mask
      | _ -> 0
    in
    iter_required (fun f s pf ps ->
        match annot_of s with
        | Ir.Annot.Mask { set_index = Some k; _ } ->
          if check_mask_of f land (1 lsl k) = 0 then
            flag Mask_uncovered
              "reordered pair %d,%d: %d does not check register %d" f s f k;
          for p = ps + 1 to pf - 1 do
            let j = flat_arr.(p) in
            if j.id <> s && sets j.id k then
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
    iter_required (fun f s _ _ ->
        flag Nospec_reordered
          "pair %d,%d executes in reverse without alias detection" f s));

  (* ---- alias-certification witnesses, replayed independently, and
     dependence completeness — on every region: without a certificate
     the replay checks an empty one, so a lost edge is still caught *)
  let cert =
    match o.Opt.Optimizer.cert with
    | Some cert -> cert
    | None -> Analysis.Disamb.of_witnesses []
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
