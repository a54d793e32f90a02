open Lz_arm
open Lz_mem

(* ------------------------------------------------------------------ *)
(* Superblocks / trace trees: runs of decoded instructions, cached by
   (physical page, offset) on top of the per-page decode cache and
   executed by Core's block dispatcher.  A block is straight-line
   except that *hot* conditional branches (B.cond, CBZ, CBNZ) and
   unconditional in-page B are folded into it: the block continues
   along the observed hot direction and the other direction leaves
   through a recorded side exit that re-enters block dispatch.  A
   block ends at the first unfolded branch, at the first instruction
   [ending_of] classes [Stop] (exception-generating and most system
   instructions), at the page boundary, or at [max_block_insns].
   Validity is anchored to the frame's write generation captured at
   build time ([b_dgen]) and to the cache epoch ([b_epoch], bumped by
   flush/reset to sever chain links into dropped blocks); [b_dead]
   marks blocks retired individually (bias retraining) so chain memos
   into them are never followed. *)

type side_exit = {
  sx_hot_delta : int;
      (* byte delta from the branch pc along the folded hot direction;
         the cold direction is whatever [exec] left in [t.pc]. *)
  sx_slot : int;  (* branch's instruction slot in its dpage (bias) *)
  mutable sx_hot : int;  (* hot continuations since last decay *)
  mutable sx_cold : int;  (* cold exits since last decay *)
  (* Memoized chain target for the cold direction: side-exit targets
     are first-class chain candidates, validated exactly like block
     successors (epoch + both page generations + live translation). *)
  mutable sx_chain_va : int;
  mutable sx_chain : block option;
}

and block = {
  b_pa : int;  (* physical address of the first instruction *)
  b_page : int;  (* page-aligned base of [b_pa] *)
  b_dgen : int;  (* Phys.page_gen at build time *)
  b_code : Insn.t array;  (* >= 1 insns *)
  b_ipa : int array;
      (* physical address of each instruction; no longer an arithmetic
         progression once branches are folded. *)
  b_sx : side_exit option array;  (* Some at folded conditionals *)
  b_eff : int array;
      (* per-instruction effect bits (see [eff_of]); the executor skips
         boundary revalidation that only memory traffic can defeat. *)
  b_folds : int;  (* number of folded conditionals (tree depth) *)
  b_chainable : bool;  (* last insn is a plain branch / fall-through *)
  b_epoch : int;
  mutable b_dead : bool;
  (* Terminator-bias profiling: when the block ends at an unfolded
     conditional branch, [b_term_slot] is that branch's dpage slot and
     the dispatcher records taken/not-taken outcomes into [b_prof]
     (the owning dpage's bias array) at each [Bend].  The fold_ok
     flags capture, at build time, whether folding each direction
     would be legal (target in-page, room left in the block). *)
  b_prof : int array;
  b_term_slot : int;  (* -1 when the terminator is not conditional *)
  b_fold_taken_ok : bool;
  b_fold_fall_ok : bool;
  (* Memoized successors (fall-through and taken targets), validated
     on follow against epoch, generation and the live translation. *)
  mutable b_succ_va : int;
  mutable b_succ : block option;
  mutable b_succ2_va : int;
  mutable b_succ2 : block option;
  (* [Some] of this very block, allocated once at build time: chain
     memos store it and lookups hand it back, so linking and following
     never box. *)
  b_self : block option;
}

(* One decoded physical page: 1024 instruction slots, filled lazily,
   revalidated against the frame's write generation; [blk] caches the
   superblock starting at each slot and [bias] holds the per-slot
   saturating taken/not-taken counter driving branch folding. *)
type dpage = {
  mutable dgen : int;
  code : Insn.t option array;
  blk : block option array;
  bias : int array;
}

type engine = Slow | Per_insn | Blocks

type t = {
  mutable engine : engine;
  itlb : Tlb.front;
  dtlb : Tlb.front;
  (* Memoized MMU context (unpriv = false), rebuilt only when a
     TTBR/HCR/VTTBR write bumps the sysreg file's mmu generation or
     PSTATE.{EL,PAN} changed since it was built. *)
  mutable ctx : Mmu.ctx option;
  mutable ctx_gen : int;
  (* Decoded-instruction cache: physical page number -> index into
     [dpages] (the first [n_dpages] are live). *)
  dindex : Int_table.t;
  mutable dpages : dpage array;
  mutable n_dpages : int;
  (* 1-entry memo: [dpages.(dlast)] is the page numbered [dlast_page]
     (initially -1, matching no page). Ints, so the refill on every
     code-page change — twice per zone-gate transit — is two plain
     stores. *)
  mutable dlast_page : int;
  mutable dlast : int;
  (* Bumped whenever cached blocks are dropped wholesale: a chain link
     into a block from an older epoch is never followed. *)
  mutable epoch : int;
  (* Cached "any watchpoint armed" flag, revalidated against the
     sysreg file's debug generation. *)
  mutable wp_gen : int;
  mutable wp_armed : bool;
  (* Block-engine statistics (host-side observability only). *)
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

let insns_per_page = Phys.page_size / 4

let empty_dpage () =
  { dgen = -1;
    code = Array.make insns_per_page None;
    blk = Array.make insns_per_page None;
    bias = Array.make insns_per_page 0 }

(* Filler for the unused tail of [dpages]; never read. *)
let no_dpage = { dgen = -1; code = [||]; blk = [||]; bias = [||] }

let create engine =
  { engine;
    itlb = Tlb.front_create ();
    dtlb = Tlb.front_create ();
    ctx = None;
    ctx_gen = -1;
    dindex = Int_table.create 64;
    dpages = Array.make 64 no_dpage;
    n_dpages = 0;
    dlast_page = -1;
    dlast = 0;
    epoch = 0;
    wp_gen = -1;
    wp_armed = false;
    st_hits = 0;
    st_builds = 0;
    st_entries = 0;
    st_insns = 0;
    st_chain_follows = 0;
    st_side_exits = 0;
    st_folds = 0;
    st_depth_max = 0;
    st_retrains = 0;
    st_polls = 0 }

let flush_decode t =
  (* IC IALLU: every cached block and memoized chain link predates the
     flush — bump the epoch so none is ever re-entered, even if a
     stale reference survives in a caller.  Decoded words need no
     wholesale drop: they are revalidated against the frame's write
     generation on every dispatch, which is what keeps them coherent
     in the first place.  The branch-bias profile describes unchanged
     bytes and survives too — JIT-style code that patches and flushes
     in a loop would otherwise never accumulate enough bias to re-form
     its trace trees. *)
  t.epoch <- t.epoch + 1

let reset t =
  flush_decode t;
  Tlb.front_reset t.itlb;
  Tlb.front_reset t.dtlb;
  t.ctx <- None;
  t.ctx_gen <- -1;
  t.wp_gen <- -1;
  t.wp_armed <- false

let new_dpage t ppage =
  let i = t.n_dpages in
  if i = Array.length t.dpages then begin
    let a = Array.make (2 * i) no_dpage in
    Array.blit t.dpages 0 a 0 i;
    t.dpages <- a
  end;
  t.dpages.(i) <- empty_dpage ();
  t.n_dpages <- i + 1;
  Int_table.replace t.dindex ppage i;
  i

let dpage_of t phys ppage =
  let dp =
    if t.dlast_page = ppage then t.dpages.(t.dlast)
    else begin
      let i = Int_table.find t.dindex ppage in
      let i = if i >= 0 then i else new_dpage t ppage in
      t.dlast_page <- ppage;
      t.dlast <- i;
      t.dpages.(i)
    end
  in
  let g = Phys.page_gen phys (ppage * Phys.page_size) in
  if dp.dgen <> g then begin
    (* The frame was written since these decodes were cached (page
       generations cover simulated stores and OCaml-side loads
       alike): drop them, blocks and branch bias included. *)
    Array.fill dp.code 0 insns_per_page None;
    Array.fill dp.blk 0 insns_per_page None;
    Array.fill dp.bias 0 insns_per_page 0;
    dp.dgen <- g
  end;
  dp

let fetch t phys pa =
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let idx = (pa land (Phys.page_size - 1)) lsr 2 in
  match dp.code.(idx) with
  | Some i -> i
  | None ->
      let i = Encoding.decode (Phys.read32 phys pa) in
      dp.code.(idx) <- Some i;
      i

(* ------------------------------------------------------------------ *)
(* Block formation *)

let max_block_insns = 64

(* |bias| at which a conditional branch is folded into the block. *)
let fold_threshold = 4

(* Saturation bound for the per-slot bias counters. *)
let bias_sat = 16

(* Minimum cold exits through one side exit before its hot/cold ratio
   is examined for retraining. *)
let retrain_min = 16

(* How an instruction ends (or doesn't end) a block.  [Chain]: plain
   control flow that cannot touch interrupt-delivery state, so the
   dispatcher may follow a memoized chain link under the same
   interrupt horizon.  [Cond off]: a conditional branch with taken
   byte-offset [off] — fold candidate; when unfolded it behaves as
   [Chain].  Folded or not, these are pure PC writes, so side exits
   keep the interrupt horizon valid.  [Straight]: the block goes on
   past it — ALU and memory operations, and the system instructions
   that touch no interrupt-horizon input: ISB, MRS of a register-file
   value, and the two translation-context writes of the call gate,
   MSR TTBR0_EL1 and MSR PAN (effect bit 2 of [eff_of] makes the
   executor refetch after them).  [Stop]: everything else — the other
   MSRs, MRS of DAIF, CNTVCT_EL0 or a device the core services (PMU,
   timer, GIC: the first access attaches it, an IAR1 read
   acknowledges) or the debug unit, DSB, cache/TLB maintenance,
   ERET, WFI and the exception-generating instructions — which can
   change DAIF, GIC/timer/PMU state, HCR/VTTBR translation or flush
   this very cache: the dispatcher must return to a full poll.  So the
   interrupt-horizon inputs still change only at [Stop] terminators. *)
type ending = Straight | Chain | Cond of int | Stop

(* Registers whose MRS reads the register file, NZCV or SP_EL0 and
   nothing else; MRS of any other register ends a block. *)
let mrs_in_block = function
  | Sysreg.TTBR0_EL1 | Sysreg.TTBR1_EL1 | Sysreg.TCR_EL1 | Sysreg.SCTLR_EL1
  | Sysreg.MAIR_EL1 | Sysreg.VBAR_EL1 | Sysreg.ESR_EL1 | Sysreg.ELR_EL1
  | Sysreg.SPSR_EL1 | Sysreg.FAR_EL1 | Sysreg.SP_EL0 | Sysreg.SP_EL1
  | Sysreg.CONTEXTIDR_EL1 | Sysreg.CPACR_EL1 | Sysreg.CNTKCTL_EL1
  | Sysreg.TPIDR_EL0 | Sysreg.TPIDRRO_EL0 | Sysreg.CNTFRQ_EL0 | Sysreg.FPCR
  | Sysreg.FPSR | Sysreg.NZCV | Sysreg.HCR_EL2 | Sysreg.VTTBR_EL2
  | Sysreg.VTCR_EL2 | Sysreg.TTBR0_EL2 | Sysreg.TCR_EL2 | Sysreg.SCTLR_EL2
  | Sysreg.VBAR_EL2 | Sysreg.ESR_EL2 | Sysreg.ELR_EL2 | Sysreg.SPSR_EL2
  | Sysreg.FAR_EL2 | Sysreg.HPFAR_EL2 | Sysreg.CPTR_EL2 | Sysreg.MDCR_EL2
  | Sysreg.TPIDR_EL2 | Sysreg.CNTHCTL_EL2 | Sysreg.VPIDR_EL2
  | Sysreg.VMPIDR_EL2 ->
      true
  | _ -> false

let ending_of = function
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Nop | Insn.Ldr _ | Insn.Str _
  | Insn.Ldrb _ | Insn.Ldr32 _ | Insn.Str32 _ | Insn.Strb _ | Insn.Ldr_reg _
  | Insn.Str_reg _ | Insn.Ldtr _ | Insn.Sttr _ | Insn.Ldtrb _ | Insn.Sttrb _
  | Insn.Isb
  | Insn.Msr (Sysreg.TTBR0_EL1, _)
  | Insn.Msr_pstate (Insn.PAN, _) ->
      Straight
  | Insn.Mrs (_, r) when mrs_in_block r -> Straight
  | Insn.Bcond (_, off) | Insn.Cbz (_, off) | Insn.Cbnz (_, off) -> Cond off
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret _ -> Chain
  | _ -> Stop

(* Per-instruction effect class, consumed by the block executor to
   elide boundary revalidation that only memory traffic can defeat:
   bit 0 — the instruction may access memory (a data-side miss can
   move the shared TLB generation mid-block); bit 1 — it may write
   memory (a store can move the code frame's write generation
   mid-block).  After an instruction with a bit clear, the matching
   generation re-check at the next boundary is provably a no-op.
   Bit 2 (4) — it may change the translation context (TTBR0_EL1 or
   PSTATE.PAN): the next fetch is redone for real, refreshing the
   memoised MMU context, and the block leaves unless the fetch still
   maps to the next instruction's frame.  Anything unrecognized
   conservatively carries bits 0 and 1; only a [Straight] instruction
   needs bit 2, since a block ends after any other. *)
let eff_of = function
  | Insn.Ldr _ | Insn.Ldrb _ | Insn.Ldr32 _ | Insn.Ldr_reg _ | Insn.Ldtr _
  | Insn.Ldtrb _ ->
      1
  | Insn.Str _ | Insn.Strb _ | Insn.Str32 _ | Insn.Str_reg _ | Insn.Sttr _
  | Insn.Sttrb _ ->
      3
  | Insn.Msr (Sysreg.TTBR0_EL1, _) | Insn.Msr_pstate (Insn.PAN, _) -> 4
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Nop | Insn.Bcond _ | Insn.Cbz _
  | Insn.Cbnz _ | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret _
  | Insn.Isb | Insn.Mrs _ ->
      0
  | _ -> 3

let build_block t phys pa =
  let page = pa land lnot (Phys.page_size - 1) in
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let in_page p = p land lnot (Phys.page_size - 1) = page in
  let slot_of p = (p land (Phys.page_size - 1)) lsr 2 in
  let idx0 = slot_of pa in
  let code = ref [] and ipa = ref [] and sxs = ref [] and effs = ref [] in
  let n = ref 0 in
  let folds = ref 0 in
  let chainable = ref true in
  let term_slot = ref (-1) in
  let fold_taken_ok = ref false in
  let fold_fall_ok = ref false in
  let stop = ref false in
  let pos = ref pa in
  while not !stop do
    let p = !pos in
    let insn = fetch t phys p in
    let push sx =
      code := insn :: !code;
      ipa := p :: !ipa;
      sxs := sx :: !sxs;
      effs := eff_of insn :: !effs;
      incr n
    in
    (* Folding needs room for at least one instruction after the
       branch; otherwise the branch becomes a plain terminator. *)
    let room = !n + 1 < max_block_insns in
    match ending_of insn with
    | Straight ->
        push None;
        pos := p + 4;
        if !n >= max_block_insns || not (in_page !pos) then stop := true
    | Cond off ->
        let bias = dp.bias.(slot_of p) in
        if bias >= fold_threshold && room && in_page (p + off) then begin
          (* Hot taken: fold, side exit covers fall-through. *)
          push
            (Some
               { sx_hot_delta = off;
                 sx_slot = slot_of p;
                 sx_hot = 0;
                 sx_cold = 0;
                 sx_chain_va = min_int;
                 sx_chain = None });
          incr folds;
          pos := p + off
        end
        else if bias <= -fold_threshold && room && in_page (p + 4) then begin
          (* Hot fall-through: fold, side exit covers taken. *)
          push
            (Some
               { sx_hot_delta = 4;
                 sx_slot = slot_of p;
                 sx_hot = 0;
                 sx_cold = 0;
                 sx_chain_va = min_int;
                 sx_chain = None });
          incr folds;
          pos := p + 4
        end
        else begin
          (* Unfolded conditional terminator: record enough for the
             dispatcher to profile its outcomes and re-form the block
             once a foldable bias builds up. *)
          push None;
          term_slot := slot_of p;
          fold_taken_ok := room && in_page (p + off);
          fold_fall_ok := room && in_page (p + 4);
          stop := true
        end
    | Chain -> push None; stop := true
    | Stop ->
        push None;
        chainable := false;
        stop := true
  done;
  let rec b =
    { b_pa = pa;
      b_page = page;
      b_dgen = dp.dgen;
      b_code = Array.of_list (List.rev !code);
      b_ipa = Array.of_list (List.rev !ipa);
      b_sx = Array.of_list (List.rev !sxs);
      b_eff = Array.of_list (List.rev !effs);
      b_folds = !folds;
      b_chainable = !chainable;
      b_epoch = t.epoch;
      b_dead = false;
      b_prof = dp.bias;
      b_term_slot = !term_slot;
      b_fold_taken_ok = !fold_taken_ok;
      b_fold_fall_ok = !fold_fall_ok;
      b_succ_va = min_int;
      b_succ = None;
      b_succ2_va = min_int;
      b_succ2 = None;
      b_self = Some b }
  in
  t.st_folds <- t.st_folds + !folds;
  if !folds > t.st_depth_max then t.st_depth_max <- !folds;
  dp.blk.(idx0) <- b.b_self;
  b

(* The block starting at physical address [pa], from cache (counted as
   a hit) or freshly built (counted as a build).  [dpage_of] has
   already dropped stale blocks if the frame's generation moved, so a
   cached block here is valid by construction; the [b_dgen] check is
   defensive. *)
let block_at t phys pa =
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let idx = (pa land (Phys.page_size - 1)) lsr 2 in
  match dp.blk.(idx) with
  | Some b when b.b_dgen = dp.dgen && b.b_epoch = t.epoch && not b.b_dead ->
      t.st_hits <- t.st_hits + 1;
      b
  | _ ->
      t.st_builds <- t.st_builds + 1;
      build_block t phys pa

(* Retire one block (bias retraining, never correctness): mark it dead
   so chain memos refuse it and clear its cache slot so the next
   dispatch re-forms it from the live bias. *)
let kill_block t phys b =
  if not b.b_dead then begin
    b.b_dead <- true;
    let dp = dpage_of t phys (b.b_page / Phys.page_size) in
    let idx = (b.b_pa land (Phys.page_size - 1)) lsr 2 in
    match dp.blk.(idx) with
    | Some cur when cur == b -> dp.blk.(idx) <- None
    | _ -> ()
  end

(* Called by the dispatcher on the cold direction of a folded branch.
   The hot/cold window decides retraining: while cold exits stay rare
   relative to hot continuations the tree matches the observed bias
   and the window is periodically decayed; once cold catches up with
   hot the bias has flipped, so the block is killed, the branch's
   bias reset to neutral, and the next entry re-forms the tree (the
   block ends at the branch again until a fresh bias builds up). *)
let note_side_exit t phys b sx =
  t.st_side_exits <- t.st_side_exits + 1;
  sx.sx_cold <- sx.sx_cold + 1;
  if sx.sx_cold >= retrain_min then
    if sx.sx_cold >= sx.sx_hot then begin
      b.b_prof.(sx.sx_slot) <- 0;
      kill_block t phys b;
      t.st_retrains <- t.st_retrains + 1
    end
    else begin
      sx.sx_hot <- sx.sx_hot / 2;
      sx.sx_cold <- 0
    end

(* Called by the dispatcher at [Bend] when the terminator is an
   unfolded conditional branch: bump the saturating bias counter, and
   once it crosses the fold threshold in a direction that formation
   recorded as foldable, kill the block so the next entry re-forms it
   with the branch folded in (growing the trace tree). *)
let note_term_outcome t phys b ~taken =
  let v = b.b_prof.(b.b_term_slot) in
  let v' =
    if taken then if v < bias_sat then v + 1 else v
    else if v > -bias_sat then v - 1
    else v
  in
  b.b_prof.(b.b_term_slot) <- v';
  if
    (v' >= fold_threshold && b.b_fold_taken_ok)
    || (v' <= -fold_threshold && b.b_fold_fall_ok)
  then kill_block t phys b

(* ------------------------------------------------------------------ *)
(* Chaining: each block memoizes up to two successor blocks keyed by
   target VA (fall-through and taken); each side exit memoizes one
   cold-direction target.  A link is only followed if the target block
   is from the current epoch and alive, its frame generation still
   matches, and the dispatcher's live instruction-fetch translation
   resolved the VA to the block's physical address.  Links may cross
   pages: the source side is covered by [chain_lookup]'s source-page
   check (and, for side exits, by the per-instruction generation check
   the block just ran under), so a store or IC IALLU touching *either*
   page severs the link. *)

let target_ok t phys ~pa = function
  | Some sb as r
    when sb.b_epoch = t.epoch && (not sb.b_dead) && sb.b_pa = pa
         && Phys.page_gen phys sb.b_page = sb.b_dgen ->
      r
  | _ -> None

let chain_lookup t phys b ~va ~pa =
  if
    b.b_dead || b.b_epoch <> t.epoch
    || Phys.page_gen phys b.b_page <> b.b_dgen
  then None
  else if b.b_succ_va = va then target_ok t phys ~pa b.b_succ
  else if b.b_succ2_va = va then target_ok t phys ~pa b.b_succ2
  else None

let chain_store b ~va succ =
  if b.b_succ_va = va then b.b_succ <- succ.b_self
  else begin
    b.b_succ2_va <- b.b_succ_va;
    b.b_succ2 <- b.b_succ;
    b.b_succ_va <- va;
    b.b_succ <- succ.b_self
  end

let sx_chain_lookup t phys sx ~va ~pa =
  if sx.sx_chain_va = va then target_ok t phys ~pa sx.sx_chain else None

let sx_chain_store sx ~va succ =
  sx.sx_chain_va <- va;
  sx.sx_chain <- succ.b_self

(* The dispatcher's chained entries: follow the memo (a chain follow,
   served from cache) or fall back to [block_at] and memoize the
   result for next time. *)
let count_follow t =
  t.st_chain_follows <- t.st_chain_follows + 1;
  t.st_hits <- t.st_hits + 1

let chain_to t phys b ~va ~pa =
  match chain_lookup t phys b ~va ~pa with
  | Some sb ->
      count_follow t;
      sb
  | None ->
      let sb = block_at t phys pa in
      chain_store b ~va sb;
      sb

let sx_chain_to t phys sx ~va ~pa =
  match sx_chain_lookup t phys sx ~va ~pa with
  | Some sb ->
      count_follow t;
      sb
  | None ->
      let sb = block_at t phys pa in
      sx_chain_store sx ~va sb;
      sb

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  blk_entries : int;
  blk_hits : int;
  blk_builds : int;
  blk_insns : int;
  chain_follows : int;
  side_exits : int;
  folds : int;
  depth_max : int;
  retrains : int;
  polls : int;
}

let stats t =
  { blk_entries = t.st_entries;
    blk_hits = t.st_hits;
    blk_builds = t.st_builds;
    blk_insns = t.st_insns;
    chain_follows = t.st_chain_follows;
    side_exits = t.st_side_exits;
    folds = t.st_folds;
    depth_max = t.st_depth_max;
    retrains = t.st_retrains;
    polls = t.st_polls }

let reset_stats t =
  t.st_hits <- 0;
  t.st_builds <- 0;
  t.st_entries <- 0;
  t.st_insns <- 0;
  t.st_chain_follows <- 0;
  t.st_side_exits <- 0;
  t.st_folds <- 0;
  t.st_depth_max <- 0;
  t.st_retrains <- 0;
  t.st_polls <- 0

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

let hit_rate s = ratio s.blk_hits s.blk_entries
let avg_block_len s = ratio s.blk_insns s.blk_entries
let chain_ratio s = ratio s.chain_follows s.blk_entries
