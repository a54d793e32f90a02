(** The three-way differential oracle.

    Forks one warm 128-domain snapshot per case, applies the
    scenario, and runs the identical machine under the slow,
    per-instruction and superblock engines, restoring the per-case
    baseline in between. The engines must agree on outcome,
    architectural digest, cycle/instruction counts and the traced
    event stream event for event; anything else is a divergence.

    Determinism: no wall-clock reads; [Api.next_vmid] is pinned so
    every fork re-enters under the same VMID (event streams carrying
    VMIDs stay comparable). The warm image is built once: each case
    retires its fork ({!Lz_snap.Snapshot.retire_fork}), giving the
    fork's slots back, so the store holds the image plus one live
    fork. *)

type env = {
  cm : Lz_cpu.Cost_model.t;
  domains : int;
  z : Lightzone.Kmod.t;
  image : Lz_snap.Snapshot.t;
  image_pages : (int, Digest.t) Hashtbl.t;
      (** frame number -> MD5 of [image]'s contents of that frame,
          filled as {!digest} meets the frames; valid as long as the
          env. *)
  blank : Lz_mem.Phys.t Lazy.t;
      (** a store never written, made at the first smp-race case: each
          smp-race engine run builds its machine over a
          {!Lz_mem.Phys.cow_clone} of it, a fresh memory, and drops the
          clone after its digest. *)
}

val create : domains:int -> Lz_cpu.Cost_model.t -> env
(** Build the warm image (pinning the VMID allocator) and wrap it for
    per-case forking. The image is warmed by one slice of
    [max 64 (2 * domains)] switches. *)

val debug_cost_skew : (Fuzz_case.t -> int) option ref
(** Meta-test fault injection: extra cycles charged to the superblock
    engine's core before its run, keyed on the case. [None] (the
    production value) injects nothing; any [Some] makes the oracle
    diverge on purpose so the shrinking machinery can be exercised
    end to end. *)

type run = {
  engine : Lz_cpu.Core.engine;
  outcome : string;
  digest : string;
  cycles : int;
  insns : int;
  ev_json : (int * Lz_trace.Trace.event) list;
      (** the traced events as (core, event) pairs, compared
          structurally across engines; the core is 0 outside
          smp-race. *)
  span_rows : string list;
      (** span names of the run's trace ({!Lz_trace.Span.of_trace}),
          for the blocks run only: the coverage keys read no other
          run's, and the others must match it on outcome, cycles and
          events, which fix the rows. [[]] for the slow and per-insn
          runs. *)
  fp : Lz_cpu.Fastpath.stats;
}

type divergence =
  { field : string; a : Lz_cpu.Core.engine; b : Lz_cpu.Core.engine;
    detail : string }

type result = {
  runs : run list;
  divergence : divergence option;
  keys : string list;  (** sorted, distinct coverage keys. *)
}

val run_case : env -> Fuzz_case.t -> result

val digest : env -> Lightzone.Kmod.t -> string
(** The architectural digest each warm-kind engine run is compared on,
    for a fork of [env]'s image: {!Lz_eval.Switch_bench.zone_digest}'s
    header (registers, PC/SPs, PSTATE, retired instructions, TTBR0,
    pgt high water and count) followed by one MD5 per domain page. A
    page still bound to the slot the image pinned reuses its MD5 from
    [env.image_pages]; any other page is hashed from its bytes. *)

val core_state : Lz_cpu.Core.t -> string
(** One core's part of the smp-race digest: every field
    {!Lz_cpu.Differential.observe} records (x0-x30, pc, SP_EL0, SP_EL1,
    PSTATE, cycles, insns, TLB hits and misses), rendered by
    {!Lz_cpu.Differential.fields}. *)

val signature : string list -> string
(** Hex digest of a sorted key list — the corpus index key. *)

val pp_divergence : Format.formatter -> divergence -> unit
