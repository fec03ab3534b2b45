(** Speculation policy: what each alias-detection scheme lets the
    optimizer do.

    - SMARQ (ordered queue): every reordering and both eliminations.
    - ALAT: loads may be hoisted above earlier stores (the store snoops
      the table), but a store may never be hoisted above a load or
      another store (stores cannot be protected), and store-to-load
      forwarding / store elimination are unsupported.  Load-load
      forwarding works because the forwarding source is an advanced
      load.
    - Efficeon: everything SMARQ does, within 15 registers, with mask
      annotations.
    - none: no speculation whatsoever. *)

type annot_scheme =
  | Queue_scheme
  | Naive_queue_scheme
      (** program-order allocation on the same queue hardware
          (Section 2.4's baseline): no P/C filtering, no eliminations *)
  | Mask_scheme
  | Alat_scheme
  | No_scheme

type t = {
  name : string;
  scheme : annot_scheme;
  ar_count : int;  (** alias registers available to the allocator *)
  hoist_load_above_store : bool;
  sink_load_below_store : bool;
  reorder_store_store : bool;
  allow_load_load_forward : bool;
  allow_store_load_forward : bool;
  allow_store_elim : bool;
  static_disambiguation : bool;
      (** run [Analysis.Absint] before alias analysis and hand its
          facts to [Analysis.May_alias], so two accesses whose addresses
          are provable constants are disambiguated statically — the
          related-work [13] capability *)
  certify : bool;
      (** run the abstract-interpretation alias certifier
          ([Analysis.Disamb]) and attach proof witnesses to the
          artifact; certified pairs carry no dependence edge and no
          alias-register protection *)
}

val smarq : ar_count:int -> t

(** The Section 2.4 straw man: full reordering under order-based
    detection with one register per memory operation in program order;
    eliminations are impossible under it. *)
val naive_order : ar_count:int -> t

(** The Figure 16 ablation: SMARQ with store reordering disabled. *)
val smarq_no_store_reorder : ar_count:int -> t

val alat : unit -> t
val efficeon : unit -> t
val none : unit -> t

val none_with_analysis : unit -> t
(** No hardware detection, but static constant-base disambiguation —
    quantifies how far a fast binary-level alias analysis gets without
    any hardware support (related work [13]). *)

val with_certify : t -> t
(** Enable static alias certification; keeps the policy name, since
    certification changes which dependences exist, not the annotation
    scheme. *)

val speculates : t -> bool
(** True iff any speculation is enabled. *)

val may_drop_edge :
  t -> first:Ir.Instr.t -> second:Ir.Instr.t -> bool
(** May the scheduler reorder this may-alias dependence pair
    ([first] originally precedes [second])? *)
