(** TLB model.

    Entries cache the *combined* stage-1 + stage-2 translation, tagged
    by (VMID, ASID, virtual page), as modern ARM64 cores do. Global
    stage-1 entries (nG = 0) match any ASID of the same VMID — this is
    why LightZone marks unprotected memory global: after a TTBR0/ASID
    switch the bulk of the working set still hits (paper Section 8.2).

    The TLB has a bounded capacity with FIFO replacement and counts
    hits and misses; the cycle model charges a page-walk cost per
    miss.

    Internally entries live in a fixed-capacity FIFO ring (slot ->
    packed key and preboxed [Some entry]) indexed by an open-addressed
    {!Int_table} (packed key -> slot). A packed key is the virtual
    page number in the low 36 bits (48-bit VA space) and a dense
    interned (VMID, ASID) context id above. Probes, hits, front-cache
    fills and inserts allocate nothing beyond the inserted entry's
    box and never go through polymorphic hashing or comparison;
    flushes compact the ring in FIFO order. *)

type t

type entry = {
  pa_page : int;          (** physical page base after both stages. *)
  attrs : Pte.s1_attrs;   (** stage-1 attributes. *)
  s2 : Stage2.perms option;  (** stage-2 permissions, if two-stage. *)
  page_bytes : int;
}

val create : ?capacity:int -> unit -> t
(** Default capacity 1024 combined entries; at least 1. *)

type front
(** A 2-entry MRU front cache (micro-TLB) holding the outcomes of the
    most recent lookups by exact (VMID, ASID, 4 KiB page) probe,
    revalidated against {!gen}. Two slots, not one, so copy loops that
    alternate between a source and a destination page still hit. A
    core keeps one front for instruction fetches and one for data
    accesses; hits bypass every index probe while charging the main
    TLB's hit/miss counters exactly as a full lookup would (the cached
    outcome is only reused while the table is untouched, so the
    accounting cannot diverge). A front remembers ring slot numbers,
    so filling and promoting it are int writes. *)

val front_create : unit -> front
val front_reset : front -> unit

val front_probe : t -> front -> vmid:int -> asid:int -> va:int -> entry option
(** Allocation-free shortcut: [Some e] (counted as a hit) when the
    front cache is valid for this exact probe, [None] (nothing
    counted) when the caller must fall back to {!lookup}. *)


val lookup : ?front:front -> t -> vmid:int -> asid:int -> va:int -> entry option
(** Increments the hit or miss counter. With [?front], consults and
    refills the given front cache. *)

val lookup_front : t -> front -> vmid:int -> asid:int -> va:int -> entry option
(** [lookup ~front] without the optional-argument [Some] boxing: the
    per-instruction fetch/load/store paths call this, keeping a
    front-cache miss allocation-free. *)

val gen : t -> int
(** Mutation generation: bumped by every insert, eviction and flush.
    Equal generations guarantee identical lookup outcomes. *)

val capacity : t -> int
(** The entry bound this TLB was created with (so a forked machine can
    build a TLB of matching geometry). *)

val account_front_hits : t -> int -> unit
(** Count [n] front-cache hits without re-running the probes. For the
    block execution engine, which proves — via {!gen}, or statically
    when no memory traffic intervened — that the probes it elides
    would have hit, and accounts them in one batch at block exit;
    keeps hit/miss statistics bit-identical to the per-instruction
    path (the counters are unobservable mid-block). *)

val insert :
  t -> vmid:int -> asid:int -> va:int -> global:bool -> entry -> unit

val flush_all : t -> unit
val flush_vmid : t -> int -> unit
val flush_asid : t -> vmid:int -> asid:int -> unit
(** Flushes non-global entries of the ASID only. *)

val flush_va : t -> vmid:int -> va:int -> unit
(** Flush any entry covering [va] in the VMID, all ASIDs (break-
    before-make). *)

val hits : t -> int
val misses : t -> int
val size : t -> int

val fifo_length : t -> int
(** Length of the internal FIFO replacement ring. Always equals
    {!size} — inserting an existing key must not grow the ring
    (regression guard for the capacity-drift bug). *)

val oldest : t -> (int * int * int) option
(** [(vmid, asid, vpage)] of the entry the next eviction removes —
    the oldest live entry; [asid] is [-1] for a global entry. *)

(** {1 Observability}

    Optional sinks; when unset (the default) the TLB behaves exactly
    as before with no extra allocation. Counting and tracing never
    affect lookup outcomes or hit/miss accounting. *)

val set_pmu : t -> Lz_arm.Pmu.t option -> unit
(** PMU receiving TLB_FLUSH occurrences from flushes (refill/walk
    events are recorded by the MMU, which performs the walk). *)

val pmu : t -> Lz_arm.Pmu.t option

val set_tracer : t -> Lz_trace.Trace.t option -> unit
(** Tracer receiving a [Tlb_flush] event per flush, timestamped via
    the tracer's clock (installed by the owning core). *)

(** {1 Snapshot} *)

type state
(** Captured TLB image: the FIFO ring and its index, hit/miss
    counters, context interning. *)

val capture : t -> state

val restore : ?retag:int * int -> t -> state -> unit
(** Restores contents and statistics. The mutation generation is
    bumped forward rather than rewound, so front caches from the
    abandoned timeline cannot revalidate; this is invisible to
    hit/miss accounting. PMU/tracer attachments are untouched.
    [?retag:(old_vmid, new_vmid)] rewrites context tags on the way
    in — machine forking: the fork adopts the warm image's TLB under
    its own VMID (entries of other VMIDs keep theirs). The image must
    come from a TLB of the same capacity. *)
