(** Reusable code shapes for the synthetic benchmark suite.

    Each kernel emits the body of one basic block.  Address bases are
    guest integer registers the caller set up to point at distinct
    memory regions, so loads and stores through different bases are
    may-alias to the optimizer yet rarely (or never) collide at
    runtime — exactly the speculation opportunity the paper targets. *)

type regs = {
  a : Ir.Reg.t;  (** array A base *)
  b : Ir.Reg.t;  (** array B base *)
  c : Ir.Reg.t;  (** array C base *)
  idx : Ir.Reg.t;  (** loop counter (counts down) *)
}

val stream :
  Builder.t -> regs -> ?disp0:int -> width:int -> lanes:int -> depth:int ->
  unit -> Ir.Instr.t list
(** [lanes] independent A[i] = f(B[i], C[i]) chains of FP [depth];
    loads through [b]/[c], stores through [a].  [disp0] offsets the
    displacement window so different blocks touch distinct elements. *)

val stencil :
  Builder.t -> regs -> ?disp0:int -> width:int -> taps:int -> unit ->
  Ir.Instr.t list
(** A[i] = sum of [taps] neighbouring B elements — many loads per
    store, long reduction chain. *)

val pointer_chase :
  Builder.t -> regs -> width:int -> hops:int -> Ir.Instr.t list
(** Serially dependent loads (each feeds the next address) interleaved
    with stores through [a]; the chased base defeats compile-time
    disambiguation entirely. *)

val reduction :
  Builder.t -> regs -> ?disp0:int -> width:int -> terms:int -> acc:Ir.Reg.t ->
  unit -> Ir.Instr.t list
(** acc += B[i] * C[i] over [terms] elements. *)

val store_burst :
  Builder.t -> regs -> ?disp0:int -> ?lane:int -> width:int ->
  slow_chain:int -> stores:int -> unit -> Ir.Instr.t list
(** One store whose datum needs a [slow_chain]-deep FP chain, followed
    by [stores] cheap stores through a different base: profitable only
    when stores may reorder (the mesa pattern of Figure 16). *)

val rmw :
  Builder.t -> regs -> ?disp0:int -> ?chain:int -> width:int ->
  updates:int -> unit -> Ir.Instr.t list
(** A cross-base store followed by [updates] read-modify-write pairs
    on array A.  The loads hoist above the store; the same-location
    store that follows each load is provably ordered — benign — yet an
    ALAT store snoop hits the advanced load's entry: the canonical
    Itanium false positive (Figure 3 of the paper).  SMARQ's
    anti-constraints keep the benign pair check-free. *)

val alias_probe :
  Builder.t -> regs -> ?slow:int -> width:int -> period_log2:int ->
  store:bool -> unit -> Ir.Instr.t list
(** A slow store to A[0] followed by a cheap probe access through a
    base precomputed by the previous iteration; the probe overtakes the
    slow store under speculation and genuinely collides with it every
    [2^period_log2] iterations (when the loop stride matches the masked
    counter) — the source of real rollbacks.  [store] selects a
    store-store collision (detected only by schemes that reorder and
    check stores) or a load-store one. *)

val reread :
  Builder.t -> regs -> ?disp0:int -> width:int -> pairs:int -> unit ->
  Ir.Instr.t list
(** Redundant load and overwritten-store pairs around cross-base
    accesses: fodder for speculative load-load forwarding and store
    elimination, exercising both EXTENDED-DEPENDENCE rules at
    runtime. *)

val direct :
  Builder.t -> regs -> region:int -> width:int -> pairs:int -> unit ->
  Ir.Instr.t list
(** Absolute-address store/load pairs whose bases are materialized from
    immediates in the block: invisible to the base-register heuristic,
    fully disambiguated by constant propagation (related work [13]). *)

val filler : Builder.t -> regs -> chains:int -> depth:int -> Ir.Instr.t list
(** [chains] independent integer ALU chains of length [depth] — slot
    filler that narrows the gap between speculative and conservative
    schedules the way real scalar work does. *)

val bump_bases : Builder.t -> regs -> stride:int -> Ir.Instr.t list
(** Advance the three array bases by [stride] bytes. *)

val direct_heavy : iters:int -> Ir.Program.t
(** A whole program for the static-analysis ablation: a loop of
    [iters] iterations mixing {!direct} pairs (which constant addresses
    disambiguate) with a {!stream} kernel (which they cannot) — the one
    workload on which [none+static] differs from [none]. *)
