module I = Ir.Instr

type regs = {
  a : Ir.Reg.t;
  b : Ir.Reg.t;
  c : Ir.Reg.t;
  idx : Ir.Reg.t;
}

let freg n = Ir.Reg.F (n land 31)

let stream bld regs ?(disp0 = 0) ~width ~lanes ~depth () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  for lane = 0 to lanes - 1 do
    let fb = freg (lane * 3) and fc = freg ((lane * 3) + 1) in
    let facc = freg ((lane * 3) + 2) in
    let d = disp0 + (lane * width) in
    emit (I.Load { dst = fb; addr = Builder.addr regs.b d;
                   width; annot = Ir.Annot.none });
    emit (I.Load { dst = fc; addr = Builder.addr regs.c d;
                   width; annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fmul, facc, I.Reg fb, I.Reg fc));
    for _ = 2 to depth do
      emit (I.Fbinop (I.Fadd, facc, I.Reg facc, I.Reg fb))
    done;
    emit (I.Store { src = I.Reg facc; addr = Builder.addr regs.a d;
                    width; annot = Ir.Annot.none })
  done;
  List.rev !ops

let stencil bld regs ?(disp0 = 0) ~width ~taps () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  let acc = freg 20 in
  emit (I.Load { dst = acc; addr = Builder.addr regs.b disp0; width;
                 annot = Ir.Annot.none });
  for k = 1 to taps - 1 do
    let t = freg (20 + (k land 7)) in
    emit (I.Load { dst = t; addr = Builder.addr regs.b (disp0 + (k * width));
                   width; annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fadd, acc, I.Reg acc, I.Reg t))
  done;
  emit (I.Store { src = I.Reg acc; addr = Builder.addr regs.a disp0; width;
                  annot = Ir.Annot.none });
  List.rev !ops

let pointer_chase bld regs ~width ~hops =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  (* r28 walks a linked structure inside region C; each node holds the
     byte offset of the next node, kept in-bounds with a mask *)
  let cursor = Ir.Reg.R 28 and tmp = Ir.Reg.R 27 in
  emit (I.Mov (cursor, I.Reg regs.c));
  for h = 0 to hops - 1 do
    emit (I.Load { dst = tmp; addr = Builder.addr cursor 0; width;
                   annot = Ir.Annot.none });
    emit (I.Binop (I.And, tmp, I.Reg tmp, I.Imm 0xf8));
    emit (I.Binop (I.Add, cursor, I.Reg regs.c, I.Reg tmp));
    emit (I.Store { src = I.Reg tmp; addr = Builder.addr regs.a (h * width);
                    width; annot = Ir.Annot.none })
  done;
  List.rev !ops

let reduction bld regs ?(disp0 = 0) ~width ~terms ~acc () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  for k = 0 to terms - 1 do
    let fb = freg (8 + (k land 3)) and fc = freg (12 + (k land 3)) in
    emit (I.Load { dst = fb; addr = Builder.addr regs.b (disp0 + (k * width));
                   width; annot = Ir.Annot.none });
    emit (I.Load { dst = fc; addr = Builder.addr regs.c (disp0 + (k * width));
                   width; annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fmul, fb, I.Reg fb, I.Reg fc));
    emit (I.Fbinop (I.Fadd, acc, I.Reg acc, I.Reg fb))
  done;
  List.rev !ops

let store_burst bld regs ?(disp0 = 0) ?(lane = 0) ~width ~slow_chain ~stores
    () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  let slow = freg (16 + (lane land 3)) in
  emit (I.Load { dst = slow; addr = Builder.addr regs.b disp0; width;
                 annot = Ir.Annot.none });
  for _ = 1 to slow_chain do
    emit (I.Fbinop (I.Fmul, slow, I.Reg slow, I.Reg slow))
  done;
  (* the slow store comes first in program order... *)
  emit (I.Store { src = I.Reg slow; addr = Builder.addr regs.a disp0; width;
                  annot = Ir.Annot.none });
  (* ...and blocks these cheap stores unless stores may reorder *)
  for k = 0 to stores - 1 do
    let v = freg (20 + (k land 3)) in
    emit (I.Load { dst = v; addr = Builder.addr regs.c (disp0 + (k * width));
                   width; annot = Ir.Annot.none });
    emit (I.Store { src = I.Reg v;
                    addr = Builder.addr regs.b (disp0 + ((k + 1) * width));
                    width; annot = Ir.Annot.none })
  done;
  List.rev !ops

(* Read-modify-write into array A after cross-base stores: the load
   hoists above the store through [b] (advanced under ALAT), and the
   same-location store that follows is benign -- the compiler proves
   the pair ordered -- yet Itanium's blanket store snoop hits the
   advanced load's entry: the canonical false positive of the paper's
   Figure 3.  SMARQ's anti-constraints keep the pair check-free. *)
let rmw bld regs ?(disp0 = 0) ?(chain = 1) ~width ~updates () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  (* a store the RMW loads can speculatively hoist above *)
  emit (I.Store { src = I.Reg (freg 6); addr = Builder.addr regs.b disp0;
                  width; annot = Ir.Annot.none });
  for k = 0 to updates - 1 do
    let v = freg (24 + (k land 3)) in
    let d = disp0 + (k * width) in
    emit (I.Load { dst = v; addr = Builder.addr regs.a d; width;
                   annot = Ir.Annot.none });
    for _ = 1 to chain do
      emit (I.Fbinop (I.Fadd, v, I.Reg v, I.Reg (freg 6)))
    done;
    emit (I.Store { src = I.Reg v; addr = Builder.addr regs.a d; width;
                    annot = Ir.Annot.none })
  done;
  List.rev !ops

let alias_probe bld regs ?(slow = 3) ~width ~period_log2 ~store () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  let cur = Ir.Reg.R 25 and t = Ir.Reg.R 26 in
  (* a slow store to A[0]: its datum needs an FP chain, so a cheap
     access can overtake it under speculation *)
  let slow_reg = freg 28 in
  for _ = 1 to slow do
    emit (I.Fbinop (I.Fmul, slow_reg, I.Reg slow_reg, I.Reg slow_reg))
  done;
  emit (I.Store { src = I.Reg slow_reg; addr = Builder.addr regs.a 0; width;
                  annot = Ir.Annot.none });
  (* the probe access goes through [cur], precomputed by the previous
     iteration, so its address is ready immediately and the scheduler
     hoists it above the slow store.  [cur] equals this iteration's
     A[0] exactly when the masked counter hit stride/(8*width) last
     time, i.e. every 2^period_log2 iterations: a genuine, rare alias
     that only runtime detection can catch. *)
  if store then
    emit (I.Store { src = I.Reg t; addr = Builder.addr cur 0; width;
                    annot = Ir.Annot.none })
  else begin
    let d = freg 30 in
    emit (I.Load { dst = d; addr = Builder.addr cur 0; width;
                   annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fadd, freg 31, I.Reg (freg 31), I.Reg d))
  end;
  (* precompute the next iteration's probe base *)
  let mask = (1 lsl period_log2) - 1 in
  emit (I.Binop (I.And, t, I.Reg regs.idx, I.Imm mask));
  emit (I.Binop (I.Mul, t, I.Reg t, I.Imm (width * 8)));
  emit (I.Binop (I.Add, cur, I.Reg regs.a, I.Reg t));
  List.rev !ops

(* Redundant accesses with speculation windows: the same B element is
   loaded twice around a cross-base store (speculative load-load
   forwarding, EXTENDED-DEPENDENCE 1), and the same A element is
   stored twice around a cross-base load (speculative store
   elimination, EXTENDED-DEPENDENCE 2). *)
let reread bld regs ?(disp0 = 0) ~width ~pairs () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  for k = 0 to pairs - 1 do
    let d = disp0 + (k * width) in
    let v = freg (8 + (k land 3)) and u = freg (12 + (k land 3)) in
    emit (I.Load { dst = v; addr = Builder.addr regs.b d; width;
                   annot = Ir.Annot.none });
    emit (I.Store { src = I.Reg v; addr = Builder.addr regs.a d; width;
                    annot = Ir.Annot.none });
    (* the re-load forwards from the first load, guarded by a check on
       the intervening store through a different base *)
    emit (I.Load { dst = u; addr = Builder.addr regs.b d; width;
                   annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fadd, u, I.Reg u, I.Reg v));
    (* the first store of this pair is overwritten here, guarded by a
       check on the intervening load *)
    emit (I.Load { dst = v; addr = Builder.addr regs.c d; width;
                   annot = Ir.Annot.none });
    emit (I.Store { src = I.Reg u; addr = Builder.addr regs.a d; width;
                    annot = Ir.Annot.none })
  done;
  List.rev !ops

(* Direct (absolute) addressing: base registers materialized from
   immediates inside the block.  Compile-time constant propagation can
   fully disambiguate these accesses -- the one class of aliases a
   fast binary-level static analysis resolves (the paper's related
   work [13]). *)
let direct bld _regs ~region ~width ~pairs () =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  let pa = Ir.Reg.R 23 and pb = Ir.Reg.R 24 in
  for k = 0 to pairs - 1 do
    let off = k * width * 4 in
    emit (I.Mov (pa, I.Imm (region + off)));
    emit (I.Mov (pb, I.Imm (region + off + (width * 2))));
    let v = freg (24 + (k land 3)) in
    emit (I.Store { src = I.Reg v; addr = Builder.addr pa 0; width;
                    annot = Ir.Annot.none });
    emit (I.Load { dst = v; addr = Builder.addr pb 0; width;
                   annot = Ir.Annot.none });
    emit (I.Fbinop (I.Fadd, v, I.Reg v, I.Reg v))
  done;
  List.rev !ops

(* Independent integer work that any scheme can overlap with memory
   latency: models the address arithmetic and loop scalar work real FP
   code carries alongside its memory traffic. *)
let filler bld _regs ~chains ~depth =
  let ops = ref [] in
  let emit op = ops := Builder.instr bld op :: !ops in
  for c = 0 to chains - 1 do
    let reg = Ir.Reg.R (16 + (c land 7)) in
    emit (I.Binop (I.Xor, reg, I.Reg reg, I.Imm (c + 1)));
    for k = 1 to depth - 1 do
      emit (I.Binop (I.Add, reg, I.Reg reg, I.Imm k))
    done
  done;
  List.rev !ops

let bump_bases bld regs ~stride =
  Builder.instrs bld
    [
      I.Binop (I.Add, regs.a, I.Reg regs.a, I.Imm stride);
      I.Binop (I.Add, regs.b, I.Reg regs.b, I.Imm stride);
      I.Binop (I.Add, regs.c, I.Reg regs.c, I.Imm stride);
    ]

let direct_heavy ~iters =
  let bld = Builder.create () in
  let regs =
    { a = Ir.Reg.R 1; b = Ir.Reg.R 2; c = Ir.Reg.R 3; idx = Ir.Reg.R 4 }
  in
  Builder.straight bld "init"
    (Builder.instrs bld
       [
         I.Mov (regs.a, I.Imm 0x100000);
         I.Mov (regs.b, I.Imm 0x200000);
         I.Mov (regs.c, I.Imm 0x300000);
         I.Mov (regs.idx, I.Imm iters);
       ])
    ~next:"body0";
  Builder.straight bld "body0"
    (direct bld regs ~region:0x500000 ~width:8 ~pairs:4 ())
    ~next:"body1";
  Builder.loop_back bld "body1"
    (stream bld regs ~width:8 ~lanes:2 ~depth:3 ()
    @ direct bld regs ~region:0x600000 ~width:8 ~pairs:3 ()
    @ bump_bases bld regs ~stride:256)
    ~counter:regs.idx ~back_to:"body0" ~exit_to:"done" ~iters;
  Builder.add_block bld "done" [] Ir.Block.Halt;
  Builder.program bld ~entry:"init"
