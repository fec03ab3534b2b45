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

(* The view of the region every rule works from: execution position
   (flat, bundle by bundle) and issue cycle per instruction id. *)
type view = {
  flat : Ir.Instr.t array;  (** all region instructions, execution order *)
  pos : (int, int) Hashtbl.t;  (** id -> index in [flat] *)
  cyc : (int, int) Hashtbl.t;  (** id -> bundle (cycle) index *)
}

let make_view (region : Ir.Region.t) ~dup =
  let flat = Array.of_list (Ir.Region.instrs region) in
  let pos = Hashtbl.create (2 * (Array.length flat + 1)) in
  let cyc = Hashtbl.create (2 * (Array.length flat + 1)) in
  Array.iteri
    (fun idx (i : Ir.Instr.t) ->
      if Hashtbl.mem pos i.id then dup i.id
      else Hashtbl.replace pos i.id idx)
    flat;
  Array.iteri
    (fun cycle bundle ->
      List.iter
        (fun (i : Ir.Instr.t) ->
          if not (Hashtbl.mem cyc i.id) then Hashtbl.replace cyc i.id cycle)
        bundle)
    region.Ir.Region.bundles;
  { flat; pos; cyc }

let is_splice (i : Ir.Instr.t) =
  match i.op with Ir.Instr.Rotate _ | Ir.Instr.Amov _ -> true | _ -> false

let rec any_live live = function
  | [] -> false
  | r :: rest -> Ir.Reg.Set.mem r live || any_live live rest

(* [k] in the ascending array [keys] *)
let mem_sorted keys k =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let x = keys.(mid) in
    x = k || if x < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length keys)

(* A dependence edge the schedule reverses: [second] executes (at
   flat position [ps]) before [first] (at [pf]). *)
type reordered = {
  first : int;
  second : int;
  pf : int;
  ps : int;
}

let verify ~issue_width ~mem_ports ~latency (o : Opt.Optimizer.t) =
  let region = o.Opt.Optimizer.region in
  let sb = region.Ir.Region.source in
  let body = sb.Ir.Superblock.body in
  let policy = o.Opt.Optimizer.policy_used in
  let ar_count = policy.Sched.Policy.ar_count in
  let hazards = o.Opt.Optimizer.hazards in
  let violations = ref [] in
  let flag rule fmt =
    Printf.ksprintf
      (fun detail -> violations := { rule; detail } :: !violations)
      fmt
  in
  let view =
    make_view region ~dup:(fun id ->
        flag Sched_complete "instruction %d appears more than once" id)
  in
  (* -1 when absent: the rules read positions and cycles without
     allocating an option per query *)
  let pos_of id = try Hashtbl.find view.pos id with Not_found -> -1 in
  let cyc_of id = try Hashtbl.find view.cyc id with Not_found -> -1 in
  let by_id = Hashtbl.create (2 * (List.length body + 1)) in
  List.iter (fun (i : Ir.Instr.t) -> Hashtbl.replace by_id i.id i) body;

  (* ---- completeness: the region is the superblock body plus splices *)
  List.iter
    (fun (i : Ir.Instr.t) ->
      if not (Hashtbl.mem view.pos i.id) then
        flag Sched_complete "body instruction %d missing from the region" i.id)
    body;
  Array.iter
    (fun (i : Ir.Instr.t) ->
      if (not (is_splice i)) && not (Hashtbl.mem by_id i.id) then
        flag Sched_complete "region instruction %d is not in the body" i.id)
    view.flat;
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
     predecessor's full latency. *)
  let require rule a b what =
    let ca = cyc_of a and cb = cyc_of b in
    if ca >= 0 && cb >= 0 then
      match Hashtbl.find by_id a with
      | ia ->
        let l = latency ia in
        if cb < ca + l then
          flag rule "%s %d -> %d: cycle %d < %d + latency %d" what a b cb ca l
      | exception Not_found -> ()
  in

  (* ---- register dependences, re-derived from the body.  Per body
     position: the instruction and its uses and defs; per register (a
     dense slot): the last definition and the chain of uses since it,
     newest first. *)
  let arr = Array.of_list body in
  let n = Array.length arr in
  let uses_at = Array.map Ir.Instr.uses arr in
  let defs_at = Array.map Ir.Instr.defs arr in
  (* a register gets its slot when first mentioned, so there are at
     most as many slots as mentions *)
  let slots = Hashtbl.create 64 in
  let slot r =
    let c = Witness.reg_code r in
    match Hashtbl.find slots c with
    | s -> s
    | exception Not_found ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots c s;
      s
  in
  let mentions lists = Array.fold_left (fun acc l -> acc + List.length l) 0 lists in
  let n_uses = mentions uses_at in
  let last_def = Array.make (n_uses + mentions defs_at) (-1) in
  let use_head = Array.make (Array.length last_def) (-1) in
  let use_id = Array.make n_uses 0 and use_next = Array.make n_uses (-1) in
  let tok = ref 0 in
  for p = 0 to n - 1 do
    let id = arr.(p).Ir.Instr.id in
    List.iter
      (fun r ->
        let s = slot r in
        if last_def.(s) >= 0 then require Def_before_use last_def.(s) id "raw";
        use_id.(!tok) <- id;
        use_next.(!tok) <- use_head.(s);
        use_head.(s) <- !tok;
        incr tok)
      uses_at.(p);
    List.iter
      (fun r ->
        let s = slot r in
        if last_def.(s) >= 0 then require Def_before_use last_def.(s) id "waw";
        let u = ref use_head.(s) in
        while !u >= 0 do
          if use_id.(!u) <> id then require Def_before_use use_id.(!u) id "war";
          u := use_next.(!u)
        done;
        last_def.(s) <- id;
        use_head.(s) <- -1)
      defs_at.(p)
  done;

  (* ---- side exits: ordered, and never crossed by blocked work *)
  let exits = List.filter Ir.Instr.is_side_exit body in
  let rec check_exit_order = function
    | (a : Ir.Instr.t) :: (b : Ir.Instr.t) :: rest ->
      let ca = cyc_of a.id and cb = cyc_of b.id in
      if ca >= 0 && cb >= 0 && cb <= ca then
        flag Branch_order "exits %d and %d issued at cycles %d >= %d" a.id b.id
          ca cb;
      check_exit_order (b :: rest)
    | _ -> ()
  in
  check_exit_order exits;
  let blocked p live =
    (not (Ir.Instr.is_side_exit arr.(p)))
    && (Ir.Instr.is_store arr.(p) || any_live live defs_at.(p))
  in
  for e = 0 to n - 1 do
    let x = arr.(e) in
    if Ir.Instr.is_side_exit x then begin
      let live = Ir.Superblock.exit_live_out sb x.id in
      for p = e - 1 downto 0 do
        if blocked p live then require Exit_crossed arr.(p).id x.id "pre-exit"
      done;
      for p = e + 1 to n - 1 do
        if blocked p live then require Exit_crossed x.id arr.(p).id "post-exit"
      done
    end
  done;

  (* ---- the recorded hazard graph itself *)
  let hz_ids = hazards.Sched.Hazards.ids in
  for p = 0 to Array.length hz_ids - 1 do
    Sched.Hazards.iter_preds hazards p (fun pd ->
        require Sched_hazard hz_ids.(pd) hz_ids.(p) "hazard")
  done;

  (* ---- resource limits per bundle *)
  Array.iteri
    (fun cycle bundle ->
      let ops = List.filter (fun i -> not (is_splice i)) bundle in
      let mem = List.filter Ir.Instr.is_memory ops in
      let br = List.filter Ir.Instr.is_branch ops in
      if List.length ops > issue_width then
        flag Sched_width "cycle %d issues %d ops over width %d" cycle
          (List.length ops) issue_width;
      if List.length mem > mem_ports then
        flag Sched_width "cycle %d issues %d memory ops over %d ports" cycle
          (List.length mem) mem_ports;
      if List.length br > 1 then
        flag Sched_width "cycle %d issues %d branches" cycle (List.length br))
    region.Ir.Region.bundles;

  (* ---- dropped pairs must be droppable speculative dependences *)
  let deps = o.Opt.Optimizer.deps in
  let n_spec = ref 0 in
  Analysis.Depgraph.iter_edges deps (fun ~first:_ ~second:_ ~kind ~strength ->
      if kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Speculative
      then incr n_spec);
  let real_spec = Array.make !n_spec 0 in
  let k = ref 0 in
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      if kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Speculative
      then begin
        real_spec.(!k) <- Witness.ordered_key first second;
        incr k
      end);
  Array.sort Int.compare real_spec;
  List.iter
    (fun (f, s) ->
      if not (mem_sorted real_spec (Witness.ordered_key f s)) then
        flag Dropped_illegal "dropped pair %d,%d is not a speculative dep" f s
      else
        match (Hashtbl.find by_id f, Hashtbl.find by_id s) with
        | fi, si ->
          if not (Sched.Policy.may_drop_edge policy ~first:fi ~second:si) then
            flag Dropped_illegal "policy %s may not drop pair %d,%d"
              policy.Sched.Policy.name f s
        | exception Not_found ->
          flag Dropped_illegal "dropped pair %d,%d not in the body" f s)
    hazards.Sched.Hazards.dropped;

  (* ---- speculation coverage.  A dependence edge needs a runtime
     check exactly when its [second] endpoint executes before its
     [first] (for Real edges that is a reordering; for Extended edges
     it is the natural order, hence they are almost always live).  A
     reordered must-alias pair is an error outright; the others are
     what the scheme must cover. *)
  let required = ref [] in
  Analysis.Depgraph.iter_edges deps (fun ~first ~second ~kind ~strength ->
      let pf = pos_of first and ps = pos_of second in
      if pf >= 0 && ps >= 0 && ps < pf then
        if kind = Analysis.Depgraph.Real && strength = Analysis.Depgraph.Hard
        then
          flag Hard_reordered "must-alias pair %d,%d executes in reverse" first
            second
        else required := { first; second; pf; ps } :: !required);
  let required = List.rev !required in

  let annot_of id =
    let p = pos_of id in
    if p >= 0 then Ir.Instr.annot view.flat.(p) else Ir.Annot.No_annot
  in
  let splices =
    Array.to_list view.flat |> List.filter is_splice
  in

  (* ---- scheme-specific checks *)
  (match policy.Sched.Policy.scheme with
  | Sched.Policy.Queue_scheme -> (
    match o.Opt.Optimizer.alloc_result with
    | None ->
      flag Annot_scheme "queue scheme artifact carries no allocation result"
    | Some res ->
      let a = res.Sched.Smarq_alloc.allocation in
      let order id = Hashtbl.find_opt a.C.order id in
      let amov_ids = Hashtbl.create 16 in
      List.iter
        (fun (m : Sched.Smarq_alloc.amov_insertion) ->
          Hashtbl.replace amov_ids m.amov_id m)
        res.Sched.Smarq_alloc.amovs;
      (* constraint edges against the final orders and bases *)
      (match
         C.validate a
           ~edges:
             (res.Sched.Smarq_alloc.check_edges
             @ res.Sched.Smarq_alloc.anti_edges)
           ~ar_count
       with
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
              (match order i.id, Hashtbl.find_opt a.C.base i.id with
              | Some o, Some b ->
                if offset <> o - b then
                  flag Annot_alloc_sync
                    "op %d annotated offset %d but allocated %d - %d" i.id
                    offset o b
              | _ ->
                flag Annot_alloc_sync "annotated op %d has no allocation" i.id);
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
        view.flat;
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
            let ca = cyc_of m.amov_id and cb = cyc_of m.before in
            if ca >= 0 && cb >= 0 && ca <> cb then
              flag Annot_alloc_sync "amov %d not bundled with its anchor %d"
                m.amov_id m.before;
            match view.flat.(pa).op with
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
        view.flat;
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
            match Hashtbl.find_opt amov_ids i.id with
            | None -> ()
            | Some m ->
              (match order m.src_instr with
              | Some os when !qbase + m.src_offset <> os ->
                flag Queue_base_sync
                  "amov %d src at base %d + %d, but order(%d) = %d" i.id !qbase
                  m.src_offset m.src_instr os
              | _ -> ());
              if m.dst_is_fresh then (
                match order m.amov_id with
                | Some od when !qbase + m.dst_offset <> od ->
                  flag Queue_base_sync
                    "amov %d dst at base %d + %d, but its order is %d" i.id
                    !qbase m.dst_offset od
                | Some _ -> ()
                | None ->
                  flag Queue_base_sync "fresh amov %d has no order" i.id))
          | _ -> (
            match Ir.Instr.annot i with
            | Ir.Annot.Queue { offset; _ } -> (
              match order i.id with
              | Some od when !qbase + offset <> od ->
                flag Queue_base_sync
                  "op %d at base %d + offset %d, but order is %d" i.id !qbase
                  offset od
              | _ -> ())
            | _ -> ()))
        view.flat;
      (* coverage under the ordered-detection rule, tracking each
         protected range through the AMOVs that execute before the
         checker *)
      let moved_by = Hashtbl.create 16 in
      List.iter
        (fun (m : Sched.Smarq_alloc.amov_insertion) ->
          Hashtbl.replace moved_by m.src_instr m)
        res.Sched.Smarq_alloc.amovs;
      let rec holder_at id limit =
        match Hashtbl.find_opt moved_by id with
        | Some (m : Sched.Smarq_alloc.amov_insertion) -> (
          let pa = pos_of m.amov_id in
          if pa >= 0 && pa < limit then
            if m.dst_is_fresh then holder_at m.amov_id limit else None
          else Some id)
        | None -> Some id
      in
      List.iter
        (fun { first = f; second = s; pf; _ } ->
          if not (Hashtbl.mem a.C.p_bit s) then
            flag Queue_uncovered "reordered pair %d,%d: %d is not protected" f
              s s
          else if not (Hashtbl.mem a.C.c_bit f) then
            flag Queue_uncovered "reordered pair %d,%d: %d does not check" f s
              f
          else
            match holder_at s pf with
            | None ->
              flag Queue_uncovered
                "reordered pair %d,%d: %d's range cleared before the check" f s
                s
            | Some h -> (
              match order f, order h with
              | Some of_, Some oh ->
                if of_ > oh then
                  flag Queue_uncovered
                    "reordered pair %d,%d: order(%d)=%d > order(holder %d)=%d"
                    f s f of_ h oh
              | _ ->
                flag Queue_uncovered "reordered pair %d,%d: missing orders" f s
              ))
        required;
      (* on AMOV-free regions the standalone FAST ALGORITHM certifies
         the constraint graph acyclic *)
      if res.Sched.Smarq_alloc.amovs = [] then begin
        let issue_order =
          Array.to_list view.flat
          |> List.filter Ir.Instr.is_memory
          |> List.map (fun (i : Ir.Instr.t) -> i.id)
        in
        match
          Sched.Fast_alloc.allocate ~issue_order
            ~p_bit:(Hashtbl.mem a.C.p_bit)
            ~c_bit:(Hashtbl.mem a.C.c_bit)
            ~edges:
              (res.Sched.Smarq_alloc.check_edges
              @ res.Sched.Smarq_alloc.anti_edges)
        with
        | Ok _ -> ()
        | Error { Sched.Fast_alloc.cycle } ->
          flag Alloc_cycle "constraint cycle without an AMOV: %s"
            (String.concat ", "
               (List.map (Format.asprintf "%a" C.pp_edge) cycle))
      end)
  | Sched.Policy.Naive_queue_scheme ->
    (* one register per memory op, program order, always set + check *)
    let ordinal = Hashtbl.create 64 in
    let n = ref 0 in
    List.iter
      (fun (i : Ir.Instr.t) ->
        if Ir.Instr.is_memory i then begin
          Hashtbl.replace ordinal i.id !n;
          incr n
        end)
      body;
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
            | Ir.Annot.Queue { offset; p = true; c = true } -> (
              if offset < 0 || offset >= ar_count then
                flag Alloc_window "op %d offset %d outside [0,%d)" i.id offset
                  ar_count;
              match Hashtbl.find_opt ordinal i.id with
              | Some o when !qbase + offset <> o ->
                flag Queue_base_sync
                  "op %d at base %d + offset %d, but program order %d" i.id
                  !qbase offset o
              | _ -> ())
            | _ ->
              flag Annot_scheme
                "op %d must set and check under the naive scheme" i.id))
      view.flat
  | Sched.Policy.Alat_scheme ->
    List.iter
      (fun (i : Ir.Instr.t) ->
        flag Annot_scheme "queue instruction %d under the ALAT scheme" i.id)
      splices;
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
      view.flat;
    if not (Array.for_all (fun (i : Ir.Instr.t) ->
                (not (Ir.Instr.is_store i))
                || Ir.Instr.annot i = Ir.Annot.alat ~advanced:false)
              view.flat)
    then flag Annot_scheme "a store is missing its ALAT check annotation";
    let advanced id =
      match annot_of id with
      | Ir.Annot.Alat { advanced } -> advanced
      | _ -> false
    in
    List.iter
      (fun { first = f; second = s; pf; ps } ->
        let fi = Hashtbl.find_opt by_id f and si = Hashtbl.find_opt by_id s in
        (match fi, si with
        | Some fi, Some si
          when Ir.Instr.is_store fi && Ir.Instr.is_load si ->
          if not (advanced s) then
            flag Alat_unmarked
              "reordered pair %d,%d: load %d is not marked advanced" f s s
        | _ ->
          flag Annot_scheme
            "reordered pair %d,%d cannot be protected by the ALAT" f s);
        (* FIFO eviction: the entry survives only while fewer than
           [ar_count] advanced loads execute inside the window *)
        let inserted = ref 0 in
        for p = ps + 1 to pf - 1 do
          let j = view.flat.(p) in
          if Ir.Instr.is_load j && advanced j.id then incr inserted
        done;
        if !inserted >= ar_count then
          flag Alat_capacity
            "pair %d,%d: %d advanced loads inside the window evict the entry"
            f s !inserted)
      required
  | Sched.Policy.Mask_scheme ->
    List.iter
      (fun (i : Ir.Instr.t) ->
        flag Annot_scheme "queue instruction %d under the mask scheme" i.id)
      splices;
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
      view.flat;
    let set_index_of id =
      match annot_of id with
      | Ir.Annot.Mask { set_index; _ } -> set_index
      | _ -> None
    in
    let check_mask_of id =
      match annot_of id with
      | Ir.Annot.Mask { check_mask; _ } -> check_mask
      | _ -> 0
    in
    List.iter
      (fun { first = f; second = s; pf; ps } ->
        match set_index_of s with
        | None ->
          flag Mask_uncovered
            "reordered pair %d,%d: %d sets no alias register" f s s
        | Some k ->
          if check_mask_of f land (1 lsl k) = 0 then
            flag Mask_uncovered
              "reordered pair %d,%d: %d does not check register %d" f s f k;
          for p = ps + 1 to pf - 1 do
            let j = view.flat.(p) in
            if j.id <> s && set_index_of j.id = Some k then
              flag Mask_clobbered
                "pair %d,%d: op %d reuses register %d inside the window" f s
                j.id k
          done)
      required
  | Sched.Policy.No_scheme ->
    List.iter
      (fun (i : Ir.Instr.t) ->
        flag Annot_scheme "queue instruction %d without a scheme" i.id)
      splices;
    Array.iter
      (fun (i : Ir.Instr.t) ->
        if Ir.Instr.annot i <> Ir.Annot.No_annot then
          flag Annot_scheme "op %d annotated without a scheme" i.id)
      view.flat;
    List.iter
      (fun r ->
        flag Nospec_reordered
          "pair %d,%d executes in reverse without alias detection" r.first
          r.second)
      required);

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
       ~region_certified:region.Ir.Region.certified_no_alias
       ~deps:o.Opt.Optimizer.deps);

  match !violations with
  | [] -> Pass
  | vs -> Reject (List.rev vs)
