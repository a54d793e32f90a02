(** Table 5 — average cycles per domain switch (with secure call gate)
    for varying numbers of protected domains, plus the lwC and
    Watchpoint comparison switches the figures need.

    The measurement program is the paper's: create N 4 KiB domains,
    attach each to its own page table, then randomly switch between
    the page tables and access 8 bytes of the current domain,
    repeating [iterations] times. The program really runs on the
    simulated core — every switch passes through the emitted gate
    instructions (or PAN toggles / ioctls / lwSwitches), every access
    goes through the two-stage MMU and the TLB. *)

type env = Host | Guest

type mechanism = Lz_pan | Lz_ttbr | Wp_ioctl | Lwc_switch

type traced = {
  trace : Lz_trace.Trace.t;
  report : Lz_trace.Span.report;  (** Cycle attribution over the run. *)
  total_cycles : int;
  domains : int;
  switches : int;
  preemptions : int;  (** timer ticks fielded (0 when cooperative). *)
  digest : string;
      (** architectural-state digest of the finished run; see
          {!arch_digest}. *)
}

val traced_run :
  ?preempt:int ->
  Lz_cpu.Cost_model.t -> env:env -> domains:int -> n:int -> traced
(** One instrumented TTBR-mechanism run: [n] random domain switches
    across [domains] gate-attached domains with the tracer attached,
    returning the raw trace and its span report. Backs [lzctl trace]
    and the bench trace annotation. [preempt] runs the zone under
    the preemptive timer: the generic timer fires PPI 30 every
    [preempt] cycles, each tick stopping the zone at the EL2 module
    boundary (HCR_EL2.IMO) and reprogramming the next deadline.
    Preemption must not change architectural state — compare
    {!traced.digest} against a cooperative run's. *)


(** {1 Warm images (snapshot forking / fleet benchmark)} *)

type lz_run = {
  t : Lightzone.Kmod.t;
  kernel : Lz_kernel.Kernel.t;
  proc : Lz_kernel.Proc.t;
  cycles : int;
  preemptions : int;
}

type mech_or_base = Mech of mechanism | Base_access
(** [Base_access]: the same program with unprotected accesses and no
    switch instructions — the loop baseline {!measure} subtracts. *)

val run_lz_full :
  ?tracer:Lz_trace.Trace.t -> ?preempt:int ->
  Lz_cpu.Cost_model.t -> env:env -> mech:mech_or_base ->
  domains:int -> n:int -> lz_run
(** One complete Table 5 run under LightZone ([Mech Lz_pan],
    [Mech Lz_ttbr] or [Base_access]): [n] seeded random switches
    across [domains] domains, run to the exit [brk]. The machine is
    returned as it stopped, for inspection. [?tracer] attaches a
    tracer; [?preempt] is as for {!traced_run}. *)

val prepare :
  ?preempt:int ->
  Lz_cpu.Cost_model.t -> env:env -> domains:int -> n:int -> lz_run
(** Build the Table 5 TTBR-mechanism setup ([domains] gate-attached
    domains) and run one [n]-switch slice end-to-end — demand paging
    done, every domain sanitized and touched — then rewind PC and the
    exit latch to the entry. The machine is a {e warm image}: running
    it again (or a snapshot-fork of it) executes one more identical
    slice. *)

val run_slice : Lightzone.Kmod.t -> unit
(** Run one slice on a prepared (or forked) machine and rewind it
    again. Fails if the slice does not run to completion. *)

val add_zone_header : Buffer.t -> Lightzone.Kmod.t -> unit
(** The register and bookkeeping part of {!zone_digest}: GP registers,
    PC/SPs, PSTATE, retired instructions, TTBR0 and the page-table
    registry's high water and count. *)

val domain_pages : Lightzone.Kmod.t -> int array
(** The physical address of every domain data page, in domain order,
    each faulted in first as a user read would: the pages
    {!zone_digest} hashes. *)

val zone_digest : Lightzone.Kmod.t -> string
(** Architectural-state digest: GP registers, PC/SPs, PSTATE, retired
    instructions, TTBR0, zone bookkeeping and the domain data pages.
    Cycle counts and TLB statistics are excluded (interrupts and cold
    TLBs legitimately change them without changing architectural
    state). Equal digests across a cooperative run, a preempted run,
    a restored snapshot and a fork mean the mechanisms are
    transparent. *)

val measure :
  Lz_cpu.Cost_model.t -> env:env -> mechanism:mechanism -> domains:int ->
  ?iterations:int -> unit -> float
(** Average cycles per switch+access. [iterations] defaults to 2,000
    (the paper uses 10,000; the average is stable well before that —
    the full count is used by the bench executable). *)

val table5 :
  ?iterations:int -> Lz_cpu.Cost_model.t -> env ->
  (int * float option * float option) list
(** Rows for one platform+environment: domain count, Watchpoint
    cycles (None beyond its 16-domain limit), LightZone cycles (PAN
    for 1 domain, TTBR beyond — the paper's column layout). *)

val paper_table5 : (string * (int * float option * float option) list) list
(** Paper values keyed by "Carmel Host" / "Carmel Guest" / "Cortex". *)
