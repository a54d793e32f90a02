(** Per-core fast-path execution state.

    Bundles everything {!Core.step}'s fast path caches between
    instructions: the decoded-instruction cache (keyed by physical
    page, invalidated by frame write generations), the
    superblock / trace-tree cache layered on it, the 2-entry MRU
    iTLB/dTLB front caches, the memoized MMU translation context, and
    the cached watchpoint-armed flag. None of it is architectural
    state: it is consulted according to the core's {!engine}, and the
    three engines are checked against each other by
    {!Differential}. *)

type engine = Slow | Per_insn | Blocks  (** See {!Core.engine}. *)

type side_exit = {
  sx_hot_delta : int;
      (** byte delta from the folded branch's pc along the hot
          direction; the cold direction exits the block. *)
  sx_slot : int;  (** the branch's instruction slot in its dpage. *)
  mutable sx_hot : int;  (** hot continuations since the last decay. *)
  mutable sx_cold : int;  (** cold exits since the last decay. *)
  mutable sx_chain_va : int;
  mutable sx_chain : block option;
      (** memoized cold-direction chain target — side-exit targets are
          first-class chain candidates. *)
}

and block = {
  b_pa : int;  (** physical address of the first instruction. *)
  b_page : int;  (** page-aligned base of [b_pa]. *)
  b_dgen : int;  (** {!Lz_mem.Phys.page_gen} at build time. *)
  b_code : Lz_arm.Insn.t array;  (** >= 1 decoded insns. *)
  b_ipa : int array;
      (** per-instruction physical address (folded branches break the
          [b_pa + 4*i] progression). *)
  b_sx : side_exit option array;
      (** [Some] exactly at folded conditional branches. *)
  b_eff : int array;
      (** per-instruction effect bits (see {!eff_of}): bit 0 — may
          access memory, bit 1 — may write memory. The executor skips
          the matching boundary re-check after instructions with the
          bit clear. Bit 2 (4) — may change the translation context:
          the executor redoes the next fetch for real. *)
  b_folds : int;  (** folded conditionals in this block (tree depth). *)
  b_chainable : bool;
      (** the block ends in a plain branch or falls through — control
          flow that cannot disturb interrupt-delivery state, so the
          dispatcher may follow a chain link under the same interrupt
          horizon. Folded branches, side exits and the in-block system
          instructions preserve the same invariant: horizon inputs
          change only at Stop terminators. *)
  b_epoch : int;
  mutable b_dead : bool;
      (** retired by bias retraining; never re-entered via memos. *)
  b_prof : int array;  (** the owning dpage's bias array. *)
  b_term_slot : int;
      (** dpage slot of an unfolded conditional terminator, [-1]
          otherwise; outcomes recorded at [Bend] drive folding. *)
  b_fold_taken_ok : bool;
  b_fold_fall_ok : bool;
  mutable b_succ_va : int;
  mutable b_succ : block option;
  mutable b_succ2_va : int;
  mutable b_succ2 : block option;
  b_self : block option;
      (** [Some] of this very block, allocated once at build time;
          chain memos store it, so linking and following never box. *)
}

type dpage = {
  mutable dgen : int;  (** {!Lz_mem.Phys.page_gen} at decode time. *)
  code : Lz_arm.Insn.t option array;
  blk : block option array;  (** superblock starting at each slot. *)
  bias : int array;
      (** per-slot saturating taken/not-taken counters driving branch
          folding; reset with the decodes when the frame changes. *)
}

type t = {
  mutable engine : engine;
  itlb : Lz_mem.Tlb.front;
  dtlb : Lz_mem.Tlb.front;
  mutable ctx : Lz_mem.Mmu.ctx option;
  mutable ctx_gen : int;
  dindex : Lz_mem.Int_table.t;
      (** decode cache: physical page number -> index into [dpages]. *)
  mutable dpages : dpage array;  (** the first [n_dpages] are live. *)
  mutable n_dpages : int;
  mutable dlast_page : int;
  mutable dlast : int;  (** [dpages] index of page [dlast_page]. *)
  mutable epoch : int;
  mutable wp_gen : int;
  mutable wp_armed : bool;
  mutable st_hits : int;
  mutable st_builds : int;
  mutable st_entries : int;
  mutable st_insns : int;
  mutable st_chain_follows : int;
  mutable st_side_exits : int;
  mutable st_folds : int;
  mutable st_depth_max : int;
  mutable st_retrains : int;
  mutable st_polls : int;
}

val create : engine -> t

val fetch : t -> Lz_mem.Phys.t -> int -> Lz_arm.Insn.t
(** [fetch t phys pa] returns the decoded instruction at physical
    address [pa], consulting and filling the decode cache. Stale
    pages (frame generation moved) are re-decoded, so self-modifying
    code behaves exactly as with a fresh [Encoding.decode]. *)

val flush_decode : t -> unit
(** [IC IALLU]: bump the epoch so every cached superblock and chain
    link is refused from now on.  Decoded words stay cached — they are
    revalidated against frame write generations on every dispatch —
    and so does the branch-bias profile (unchanged bytes), letting
    patch-and-flush loops re-form their trace trees immediately. *)

val reset : t -> unit
(** Drop all cached execution state (blocks + chains via an epoch
    bump, front TLBs, memoized context, watchpoint flag). Safe at any
    point: everything is rebuilt on demand; decoded words persist
    under their generation checks. *)

(** {1 Superblocks}

    Used by [Core]'s block dispatcher; exposed for tests. *)

type ending = Straight | Chain | Cond of int | Stop

val ending_of : Lz_arm.Insn.t -> ending
(** Block-formation class of one instruction. [Cond off] (B.cond,
    CBZ, CBNZ — fold candidates) and [Chain] are pure PC writes.
    [Straight] covers ALU and memory operations plus ISB, MRS of
    register-file values, MSR TTBR0_EL1 and MSR PAN. None of them can
    change DAIF or GIC/timer/PMU state, which is what keeps the
    interrupt horizon valid across a block, its side exits and chain
    follows (horizon inputs change only at [Stop] terminators). Of
    them, only MSR TTBR0_EL1 and MSR PAN change the translation
    context, and they carry {!eff_of} bit 2. *)

val eff_of : Lz_arm.Insn.t -> int
(** Effect bits of one instruction: bit 0 — may access memory (a
    data-side miss can move the shared TLB generation mid-block),
    bit 1 — may write memory (a store can move the code frame's write
    generation mid-block), bit 2 (value 4) — may change the
    translation context (MSR TTBR0_EL1, MSR PAN). Pure instructions
    return [0]; anything unrecognized conservatively returns bits 0
    and 1. The block executor elides the per-boundary generation
    re-checks after instructions whose bits are clear — an exact
    equivalence, since only the just-executed instruction can move
    those generations between two in-block boundaries — and after
    bit 2 redoes the next instruction fetch for real. *)

val block_at : t -> Lz_mem.Phys.t -> int -> block
(** The superblock starting at physical address [pa], from cache or
    freshly built (decoding forward, folding hot branches, until an
    unfolded branch, a [Stop] instruction, the page boundary or 64
    instructions). Counts a cache hit or a build in {!stats}. *)

val note_side_exit : t -> Lz_mem.Phys.t -> block -> side_exit -> unit
(** Record one cold-direction exit through [side_exit]; retrains (kills
    the block, resets the branch bias) when cold exits catch up with
    hot continuations. *)

val note_term_outcome : t -> Lz_mem.Phys.t -> block -> taken:bool -> unit
(** Record an unfolded conditional terminator's outcome at [Bend];
    kills the block for re-formation once the bias crosses the fold
    threshold in a foldable direction. *)

val chain_lookup :
  t -> Lz_mem.Phys.t -> block -> va:int -> pa:int -> block option
(** A memoized successor of [block] for target [va], only if both the
    source and target blocks are alive, from the current epoch, with
    unchanged page generations, and the target starts at the freshly
    translated [pa] — cross-page links are revalidated against both
    pages. *)

val chain_store : block -> va:int -> block -> unit
(** Memoize [succ] as [block]'s successor for target [va] (keeps the
    two most recent targets: fall-through and taken). *)

val chain_to : t -> Lz_mem.Phys.t -> block -> va:int -> pa:int -> block
(** The dispatcher's chained entry after [block] ends: the memoized
    successor if {!chain_lookup} accepts it (counted as a chain follow
    and a cache hit), else {!block_at}, memoized for next time. *)

val sx_chain_to : t -> Lz_mem.Phys.t -> side_exit -> va:int -> pa:int -> block
(** {!chain_to} for the cold direction of a side exit: its memoized
    target is validated exactly like {!chain_lookup} targets. *)

(** {1 Statistics} *)

type stats = {
  blk_entries : int;  (** blocks dispatched (executions). *)
  blk_hits : int;  (** dispatches served from a cached block. *)
  blk_builds : int;  (** blocks built fresh. *)
  blk_insns : int;  (** instructions retired inside blocks. *)
  chain_follows : int;  (** dispatches that followed a chain memo. *)
  side_exits : int;  (** cold-direction exits through side-exit stubs. *)
  folds : int;  (** conditional branches folded at build time. *)
  depth_max : int;  (** most folded branches in a single block. *)
  retrains : int;  (** blocks retired after a bias flip. *)
  polls : int;
      (** full interrupt polls: dispatches through [Core.blocks_full],
          as opposed to chained entries. *)
}

val stats : t -> stats
val reset_stats : t -> unit

val hit_rate : stats -> float
(** [blk_hits / blk_entries] — the fraction of dispatched block
    executions served from cache; [nan] before any dispatch. *)

val avg_block_len : stats -> float
(** [blk_insns / blk_entries]; [nan] before any entry. *)

val chain_ratio : stats -> float
(** [chain_follows / blk_entries]; [nan] before any entry. *)
