(** The three-way differential oracle.

    Forks one warm 128-domain snapshot per case, applies the
    scenario, and runs the identical machine under the slow,
    per-instruction and superblock engines, restoring the per-case
    baseline in between. The engines must agree on outcome,
    architectural digest, cycle/instruction counts and the traced
    event stream byte-for-byte; anything else is a divergence.

    Determinism: no wall-clock reads; [Api.next_vmid] is pinned so
    every fork re-enters under the same VMID (event streams carrying
    VMIDs stay comparable); dropped fork views are reclaimed by
    rebuilding the warm image every [recycle_every] cases. *)

type env = {
  cm : Lz_cpu.Cost_model.t;
  domains : int;
  slice_n : int;
  recycle_every : int;
  mutable z : Lightzone.Kmod.t;
  mutable image : Lz_snap.Snapshot.t;
  mutable cases_since_build : int;
}

val create :
  ?recycle_every:int -> ?slice_n:int -> domains:int ->
  Lz_cpu.Cost_model.t -> env
(** Build the warm image (pinning the VMID allocator) and wrap it for
    per-case forking. [slice_n] defaults to [max 64 (2 * domains)]. *)

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
  ev_json : string list;  (** byte-compared across engines. *)
  raw_events : Lz_trace.Trace.event list;
  span_rows : string list;
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

val core_state : Lz_cpu.Core.t -> string
(** One core's part of the smp-race digest: every field
    {!Lz_cpu.Differential.observe} records (x0-x30, pc, SP_EL0, SP_EL1,
    PSTATE, cycles, insns, TLB hits and misses), rendered by
    {!Lz_cpu.Differential.fields}. *)

val keys_of : Fuzz_case.t -> run -> string list
val signature : string list -> string
(** Hex digest of a sorted key list — the corpus index key. *)

val scrub : string -> string
(** Collapse hex literals ("0x1a30" -> "0xN") for layout-stable keys. *)

val pp_divergence : Format.formatter -> divergence -> unit
