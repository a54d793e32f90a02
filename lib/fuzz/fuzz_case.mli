(** Fuzz cases: seed-pinned adversarial scenarios for the gate /
    sanitizer / trap surface.

    A case is plain data — scenario kind, raw payload instruction
    words, a few integer knobs — so it serializes to the corpus,
    shrinks structurally and replays bit-identically. The word
    generator draws from a pool of canonical Table 3 boundary
    encodings and flips bits biased into the system-instruction field
    positions (bits 5..21), so most mutants sit one bit from an
    accept/reject edge of the sanitizer. *)

type kind =
  | Stream  (** raw adversarial words executed as zone code. *)
  | Gate_stream  (** a legitimate gate switch, then raw words. *)
  | Smc_block
      (** hot loop folded into a superblock; SMC rides the cold side
          exit. *)
  | Selfmod
      (** W^X JIT: patch the running code page, re-execute through the
          break-before-make resanitize. *)
  | Pte_poke  (** write a stage-1-aliased last-level table page. *)
  | Irq_storm  (** timer + SGI ticks landed across gate phase markers. *)
  | Churn  (** lz_alloc / lz_map_gate_pgt / lz_free churn, then a switch. *)
  | Smp_race
      (** multi-CPU scheduler race: tasks context-switching and
          migrating across 2–3 CPUs while one task drives an
          mprotect-driven TLB shootdown storm; run under the
          sequential deterministic scheduler loop. *)
  | Zone_churn
      (** tenant-scale churn: interleaved lz_alloc/lz_free so pgt ids
          and ASIDs recycle within the case, a gate re-pointed at a
          recycled table, then a switch through it. *)

val all_kinds : kind array
val kind_name : kind -> string

type t = {
  kind : kind;
  words : int array;
  gate : int;  (** gate / domain selector, in [0, domains). *)
  param : int;  (** loop count / churn count / poke offset. *)
  slice : int;  (** IRQ-storm tick period in cycles. *)
  budget : int;  (** instruction budget per engine run. *)
}

val sys_word :
  ?l:int -> op0:int -> op1:int -> crn:int -> crm:int -> op2:int ->
  ?rt:int -> unit -> int
(** Assemble a system-space instruction word from its Table 3 fields —
    shared with the sanitizer boundary tests. *)

val default_budget : int

val budget_for : kind -> int
(** Per-kind instruction budget — selfmod cases pay a full page rescan
    per W^X roundtrip, so they run much shorter. *)

val generate : domains:int -> Random.State.t -> t
val mutate : domains:int -> Random.State.t -> t -> t

val to_lines : t -> string list
val of_lines : string list -> t option
val pp : Format.formatter -> t -> unit
