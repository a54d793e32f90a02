(** Software-based fault isolation cost models (paper Table 1 and
    Section 11).

    SFI instruments memory instructions at compile time, so its cost
    is a per-memory-access multiplier rather than a per-switch cycle
    count. The variants modelled match the paper's discussion:

    - [Classic_full]: every load and store sandboxed — secure, >20%
      overhead (McCamant & Morrisett; Zeng et al.).
    - [Store_only]: loads left unsandboxed to cut overhead to ~5–15% —
      insecure, an attacker can still read secrets (Sehr et al.).
    - [Lfi]: modern efficient full sandboxing, ~7% (LFI) — secure but
      requires source-code compilation, so no pre-compiled binaries.
    - [Tdi]: type-based data isolation, 5–10%, cannot separate objects
      of the same type. *)

type variant = Classic_full | Store_only | Lfi | Tdi

type properties = {
  overhead_factor : float;  (** multiplier on memory-op cycles. *)
  sandboxes_loads : bool;
  sandboxes_stores : bool;
  isolates_precompiled : bool;
  max_domains : [ `Bounded of int | `Unbounded | `Per_type ];
}

val properties : variant -> properties

val apply_overhead : variant -> base_cycles:int -> mem_fraction:float -> int
(** Workload cycles after instrumentation, given the fraction of
    cycles spent in memory instructions. *)

val leaks_reads : variant -> bool
(** True when the variant cannot stop an attacker from *reading*
    protected data (the security hole of store-only sandboxing). *)
