(** Measured isolation profiles.

    Bridges the microbenchmarks to the application models: every
    number in a profile comes from running the real mechanism on the
    simulator ({!Trap_bench} syscall paths, {!Switch_bench} domain
    switches). Profiles are memoized per (platform, environment,
    mechanism) because the measurements are not free. *)

type mech = Orig | Lz_pan | Lz_ttbr | Wp | Lwc

val all_mechs : mech list
val mech_name : mech -> string

val profile :
  Lz_cpu.Cost_model.t -> Switch_bench.env -> mech ->
  Lz_workloads.Iso_profile.t

(** {1 PMU-derived counters}

    Measured (not modelled) §5.2.1 context-retention and TLB
    maintenance totals: a zone runs a representative syscall mix with
    the PMU attached, and the counters are read back from the raw
    event totals. *)

type pmu_counters = {
  retention_hits : int;
      (** forwarded syscalls that kept the zone's HCR/VTTBR loaded. *)
  retention_misses : int;
      (** forwarded syscalls that forced the host-context switch. *)
  tlb_flushes : int;  (** TLB maintenance operations observed. *)
  blocks : Lz_cpu.Fastpath.stats;
      (** superblock-engine counters for the same run (all zero when
          the block layer is disabled). *)
}

val retention_rate : pmu_counters -> float
(** Hit fraction in [0,1]; [nan] when no forwarded syscalls ran
    (guest zones forward through the Lowvisor instead). *)

val pmu_counters :
  Lz_cpu.Cost_model.t -> Switch_bench.env -> pmu_counters
