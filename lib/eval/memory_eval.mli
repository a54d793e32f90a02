(** Section 9 memory-overhead accounting.

    For each application the paper reports baseline memory, data
    fragmentation from page-granularity protection, and page-table
    overhead for PAN-based vs scalable (TTBR) isolation. We rebuild
    scaled versions of the three protection layouts on the simulator,
    count real frames (data, fragmentation padding, LightZone stage-1
    + stage-2 tables via {!Lightzone.Kmod.table_memory_frames}), and
    report the same percentages. *)

type report = {
  app : string;
  baseline_mib : float;
  fragmentation_pct : float;
  pan_tables_pct : float;
  ttbr_tables_pct : float;
  paper_fragmentation_pct : float;
  paper_pan_pct : float;
  paper_ttbr_pct : float;
}

val all : Lz_cpu.Cost_model.t -> report list

(** {1 Copy-on-write frame-store accounting}

    The snapshot subsystem holds physical memory as a refcounted
    copy-on-write store ({!Lz_mem.Phys}). This measures what a forked
    fleet actually costs: one warm Table 5 zone is captured and
    [forks] instances stamped out of the image, a few of them run a
    switch slice (dirtying pages), and the store statistics are read
    back from the source machine's view. *)

type cow_report = {
  forks : int;
  churned : int;  (** forks that ran a slice (and so dirtied pages). *)
  logical_frames : int;  (** frames in the observed view's frame map. *)
  shared_frames : int;  (** view frames still backed by a shared slot. *)
  private_frames : int;  (** view frames with an exclusive slot. *)
  store_slots : int;  (** physical slots across {e all} views + pins. *)
  unshares : int;  (** CoW breaks since the store was created. *)
  dirty_mean : float;  (** mean pages diverged per churned fork. *)
  dedup_factor : float;
      (** (forks+1) x logical frames / store slots — how many logical
          frames each physical slot carries. *)
}

val cow : Lz_cpu.Cost_model.t -> cow_report
(** 16 forks off a warm 128-domain image, 4 churned with 300-switch
    slices (128 domains exceed the gate budget, so switch slices take
    the writing syscall path and actually dirty pages). The
    shared/private split is read from a churned fork's view. Host
    environment only (forking is host-side machinery). *)

val cow_saved_mib : cow_report -> float
(** MiB the fleet avoids holding versus [forks+1] independent
    machines. *)
