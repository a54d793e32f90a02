(** Simulated ARM64 core.

    The core executes simulated instructions at EL0/EL1; software that
    architecturally runs at EL2 (the VHE host kernel, KVM, LightZone
    Lowvisor) — and, for ordinary guest processes, the guest kernel at
    EL1 — is modelled in OCaml. Whenever an exception routes to a level
    handled in OCaml, {!run} stops and reports the exception; the OCaml
    handler manipulates the core (registers, system registers, page
    tables, cycle charges) and resumes it.

    Exceptions that target EL1 can instead be delivered architecturally
    into simulated code ([route_el1_to_harness = false]): LightZone
    processes run at EL1 with a small simulated vector stub that
    forwards traps to the kernel module via HVC, exactly as the paper's
    user-space API library does (Section 5.1.3).

    Each core runs one of three execution {!engine}s. They differ only
    in host speed: registers, memory, cycles, instruction counts and
    TLB statistics are identical under all three, which
    {!Differential} checks. *)

type exception_class =
  | Ec_svc of int
  | Ec_hvc of int
  | Ec_smc of int
  | Ec_brk of int
  | Ec_dabort of Lz_mem.Mmu.fault
  | Ec_iabort of Lz_mem.Mmu.fault
  | Ec_undef of int  (** raw instruction word. *)
  | Ec_sysreg_trap of Lz_arm.Insn.t  (** MSR/MRS/TLBI trapped by HCR. *)
  | Ec_wfi
  | Ec_watchpoint of int  (** faulting data address. *)
  | Ec_irq of int
      (** asynchronous interrupt routed to an OCaml handler; the
          argument is the GIC INTID pending at delivery. *)

type stop =
  | Trap_el2 of exception_class
  | Trap_el1 of exception_class
      (** only when [route_el1_to_harness] is true. *)
  | Limit  (** instruction budget exhausted. *)
  | Stall
      (** the core is paused waiting for DVM completion of an
          inner-shareable TLBI broadcast ({!t.stall}); only the SMP
          machine driver resumes it. Never reported with no
          {!t.on_shootdown} hook installed. *)

type shootdown =
  | Sd_vmalle1 of int  (** flush a whole VMID. *)
  | Sd_vae1 of { vmid : int; va : int }
  | Sd_aside1 of { vmid : int; asid : int }
      (** cross-core TLB-maintenance payloads of the [*IS] TLBI
          encodings, as handed to {!t.on_shootdown}. *)

type t = {
  regs : int array;  (** x0..x30. *)
  mutable pc : int;
  mutable sp_el0 : int;
  mutable sp_el1 : int;
  pstate : Lz_arm.Pstate.t;
  sys : Lz_arm.Sysreg.file;
  phys : Lz_mem.Phys.t;
  tlb : Lz_mem.Tlb.t;
  cost : Cost_model.t;
  mutable cycles : int;
  mutable insns : int;
  mutable route_el1_to_harness : bool;
  fp : Fastpath.t;  (** fast-path caches and the {!engine}. *)
  mutable tracer : Lz_trace.Trace.t option;  (** see {!set_tracer}. *)
  mutable pmu : Lz_arm.Pmu.t option;  (** see {!attach_pmu}. *)
  mutable irqc : Lz_irq.Irq.t option;  (** see {!attach_irq}. *)
  mutable on_shootdown : (shootdown -> unit) option;
      (** invoked by IS-TLBI executors after the local flush; the SMP
          driver stages remote flush requests here. [None] (the
          default) makes IS TLBI purely local — exact uniprocessor
          semantics. *)
  mutable stall : bool;
      (** DVM completion wait: while set, every boundary poll reports
          {!Stall} instead of running. Set by the SMP driver's
          [on_shootdown] hook, cleared when all remote acks are in. *)
}

val broadcast_shootdown : t -> shootdown -> unit
(** Hand a TLB-maintenance broadcast to the core's {!t.on_shootdown}
    hook, if any. Used by the IS-TLBI executors and by OCaml-modelled
    kernel paths (munmap/mprotect) that stand in for a core executing
    the instruction. *)

(** {1 Execution engines} *)

type engine = Fastpath.engine =
  | Slow
      (** the reference: every fetch decodes and every access
          translates through the full TLB lookup. *)
  | Per_insn
      (** decoded-instruction cache, micro-TLBs and a memoized MMU
          context. *)
  | Blocks
      (** [Per_insn] plus the superblock layer: trace-tree translation
          cache with hot-branch folding, side exits, chaining and an
          interrupt-horizon guard. Interrupts are taken at the same
          instruction boundaries, and traced runs stay block-aware. *)

val engines : engine list
(** [[Slow; Per_insn; Blocks]], reference first. *)

val engine_name : engine -> string
(** ["slow"], ["per-insn"] or ["blocks"]. *)

val engine_of_string : string -> engine option
(** Inverse of {!engine_name}; [None] for any other string. *)

val default_engine : engine ref
(** The engine of cores created without [?engine]. Initialised once
    from [LZ_ENGINE] ([slow], [per-insn] or [blocks]; unset means
    [blocks]); any other value fails at start-up. *)

val create :
  ?route_el1_to_harness:bool ->
  ?engine:engine ->
  Lz_mem.Phys.t -> Lz_mem.Tlb.t -> Cost_model.t -> Lz_arm.Pstate.el -> t
(** [?engine] defaults to [!default_engine]. *)

val engine : t -> engine

val set_engine : t -> engine -> unit
(** Switch engines, dropping every fast-path cache. *)

val set_fast : t -> bool -> unit
(** [set_engine t (if on then Blocks else Slow)]. Kept only because
    [hostbench/workloads.ml] calls it; use {!set_engine}. *)

val set_blocks : t -> bool -> unit
(** [Blocks] if [on], else [Per_insn]; no-op under [Slow]. Kept only
    because [hostbench/workloads.ml] calls it; use {!set_engine}. *)

val charge : t -> int -> unit
(** Add cycles (used by OCaml-modelled kernel/hypervisor work). *)

val charge_sysreg : t -> at:Lz_arm.Pstate.el -> Lz_arm.Sysreg.t -> unit
(** Charge one system-register access performed by OCaml-modelled
    software running at [at]. *)

val reg : t -> int -> int
(** Read x0..x30; register 31 reads as zero. *)

val set_reg : t -> int -> int -> unit
(** Write x0..x30; writes to 31 are discarded. *)

val set_sp : t -> int -> unit

val read_mem :
  t -> ?unpriv:bool -> width:int -> int -> (int, Lz_mem.Mmu.fault) result
(** Simulated data read at the current privilege (charges cycles). *)

val write_mem :
  t -> ?unpriv:bool -> width:int -> int -> int ->
  (unit, Lz_mem.Mmu.fault) result

val step : t -> stop option
(** Execute one instruction; [None] when execution simply continues. *)

val run : ?max_insns:int -> t -> stop
(** Run until an OCaml-handled trap or the instruction budget
    (default 10,000,000) runs out. *)

val eret_from_el2 : t -> unit
(** Return from an OCaml EL2 handler to the state saved in
    ELR_EL2/SPSR_EL2 (charges the ERET cost). *)

val eret_from_el1 : t -> unit
(** Return to the state saved in ELR_EL1/SPSR_EL1 — used by the OCaml
    guest-kernel model after a [Trap_el1]. *)

(** {1 Observability}

    Tracing and the PMU are architecturally invisible: they charge no
    cycles and mutate no architectural state, so enabling them leaves
    execution bit-identical. With neither attached the only added cost
    is one null check per {!step}. *)

val set_tracer : t -> Lz_trace.Trace.t option -> unit
(** Attach (or detach) an event tracer. Installs the tracer's clock as
    this core's cycle counter and propagates the tracer to the TLB so
    flushes are timestamped. Trap entry/exit, ERET, TTBR0_EL1 domain
    switches and PC markers then emit events. *)

val tracer : t -> Lz_trace.Trace.t option

val attach_pmu : t -> Lz_arm.Pmu.t
(** The core's PMU, created (and connected to the TLB for refill/flush
    events) on first use. Guest MSR/MRS of the PMU registers attach it
    implicitly, so calling this is only needed for host-side access. *)

val pmu : t -> Lz_arm.Pmu.t option

(** {1 Interrupts}

    The GIC + generic-timer fabric attaches like the PMU: lazily on the
    first guest ICC_*/CNTP_* system-register access, or eagerly via
    {!attach_irq}. Once attached, pending-interrupt checks run at every
    instruction boundary — identically in {!run} and {!step}, and
    independent of the fast path — and deliver when PSTATE.DAIF.I is
    clear: to EL2 (as a [Trap_el2 (Ec_irq _)] stop) when
    HCR_EL2.{IMO,TGE} claim physical IRQs, otherwise architecturally to
    the EL1 vector at VBAR_EL1 + 0x280 (current EL) / + 0x480 (from
    EL0). Exception entry masks DAIF; ERET restores it from the SPSR. *)

val attach_irq : ?dist:Lz_irq.Gic.dist -> t -> Lz_irq.Irq.t
(** The core's interrupt fabric, created on first use. [?dist] shares
    an existing distributor (SGI routing) between cores. *)

val irq : t -> Lz_irq.Irq.t option

val quiesce_irq : t -> int -> unit
(** Silence the source of an acknowledged INTID whose level line is
    still asserted (stop the timer, clear PMU overflow) — the
    fallback for OCaml-modelled handlers that did not reprogram the
    source themselves, preventing level-triggered re-delivery loops. *)

val service_irq : t -> (int -> unit) -> unit
(** [service_irq core hook]: field one physical interrupt for an
    OCaml-modelled handler — charge [gic_ack], acknowledge, run [hook]
    on the INTID, {!quiesce_irq}, EOI, charge [gic_eoi]. A spurious
    acknowledge stops after the first charge; no fabric, no-op. *)

val pp_stop : Format.formatter -> stop -> unit

(** {1 Task context}

    What a multi-core scheduler saves and restores when migrating a
    task between cores: registers, PC, stack pointers, PSTATE and the
    system-register file. Per-core structures (TLB, PMU, fast-path
    caches, interrupt fabric) stay with the core, as on hardware. *)

type context

val save_context : t -> context

val load_context : t -> context -> unit
(** Install a saved context on (any) core. The sysreg restore bumps
    the MMU/debug generations forward so memoized translation state
    revalidates; TLB entries tagged with other ASIDs are untouched
    (ASID-tagged TLBs need no flush on context switch). *)
