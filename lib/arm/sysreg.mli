(** ARM64 system registers: names, MSR/MRS encodings and the register
    file used by the simulated core.

    The sanitizer (paper Table 3) classifies system instructions by the
    raw (op0, op1, CRn, CRm, op2) encoding fields, so those encodings
    are bit-exact for every register the simulator knows about. *)

type t =
  (* EL1 translation / control *)
  | TTBR0_EL1
  | TTBR1_EL1
  | TCR_EL1
  | SCTLR_EL1
  | MAIR_EL1
  | VBAR_EL1
  | ESR_EL1
  | ELR_EL1
  | SPSR_EL1
  | FAR_EL1
  | SP_EL0
  | SP_EL1
  | CONTEXTIDR_EL1
  | CPACR_EL1
  | CNTKCTL_EL1
  (* EL0-accessible *)
  | TPIDR_EL0
  | TPIDRRO_EL0
  | CNTVCT_EL0
  | CNTFRQ_EL0
  | FPCR
  | FPSR
  | NZCV
  | DAIF
  (* Debug / watchpoints (used by the Watchpoint baseline) *)
  | DBGWVR0_EL1 | DBGWVR1_EL1 | DBGWVR2_EL1 | DBGWVR3_EL1
  | DBGWCR0_EL1 | DBGWCR1_EL1 | DBGWCR2_EL1 | DBGWCR3_EL1
  | MDSCR_EL1
  (* EL2 *)
  | HCR_EL2
  | VTTBR_EL2
  | VTCR_EL2
  | TTBR0_EL2
  | TCR_EL2
  | SCTLR_EL2
  | VBAR_EL2
  | ESR_EL2
  | ELR_EL2
  | SPSR_EL2
  | FAR_EL2
  | HPFAR_EL2
  | CPTR_EL2
  | MDCR_EL2
  | TPIDR_EL2
  | CNTHCTL_EL2
  | VPIDR_EL2
  | VMPIDR_EL2
  (* PMUv3. These are not backed by the register file: the core
     intercepts MSR/MRS accesses and services them from an attached
     {!Pmu.t}, so counter reads see live values. *)
  | PMCR_EL0
  | PMCNTENSET_EL0
  | PMCNTENCLR_EL0
  | PMCCNTR_EL0
  (* Constant constructors (rather than [PMEVCNTR_EL0 of int]) keep
     [t] an all-immediate enum, so the register file's per-instruction
     index computation never touches a boxed value. Recover the slot
     with {!pmev_slot}. *)
  | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0
  | PMEVCNTR3_EL0 | PMEVCNTR4_EL0 | PMEVCNTR5_EL0
  | PMEVTYPER0_EL0 | PMEVTYPER1_EL0 | PMEVTYPER2_EL0
  | PMEVTYPER3_EL0 | PMEVTYPER4_EL0 | PMEVTYPER5_EL0
  | PMOVSCLR_EL0  (** Overflow status; writes clear bits. *)
  | PMOVSSET_EL0  (** Overflow status; writes set bits. *)
  | PMINTENSET_EL1  (** Overflow interrupt enable; writes set bits. *)
  | PMINTENCLR_EL1  (** Overflow interrupt enable; writes clear bits. *)
  (* EL1 physical generic timer. Like the PMU registers these are not
     backed by the register file: the core services accesses from an
     attached {!Lz_irq} timer driven off the cycle counter. *)
  | CNTP_TVAL_EL0
  | CNTP_CTL_EL0
  | CNTP_CVAL_EL0
  (* GICv3 CPU interface. Serviced from an attached Lz_irq GIC;
     IAR1 reads acknowledge, EOIR1 writes retire. *)
  | ICC_PMR_EL1
  | ICC_IAR1_EL1
  | ICC_EOIR1_EL1
  | ICC_HPPIR1_EL1
  | ICC_BPR1_EL1
  | ICC_CTLR_EL1
  | ICC_SRE_EL1
  | ICC_IGRPEN1_EL1
  | ICC_RPR_EL1
  | ICC_SGI1R_EL1

val pmev_slot : t -> int
(** The counter slot of a PMEVCNTRn/PMEVTYPERn register; raises for any
    other register. *)

type enc = { op0 : int; op1 : int; crn : int; crm : int; op2 : int }
(** MSR/MRS encoding fields of a system register. *)

val encoding : t -> enc
(** The architectural encoding of a register. *)

val of_encoding : enc -> t option
(** Reverse lookup; [None] for encodings the simulator does not model. *)

val name : t -> string

val min_el : t -> Pstate.el
(** Lowest exception level allowed to access the register
    architecturally (ignoring HCR_EL2 trap configuration). *)

val all : t list
(** Every modelled register, in declaration order. *)

val index : t -> int
(** The register's slot in a register {!file}: its position in
    {!all}. *)

val el1_context : t list
(** The EL1 register set a hypervisor must context-switch between a VM
    and its host on a world switch (the "kernel-mode system registers"
    of paper Section 5.2.1). *)

(** {1 Register file} *)

type file
(** A bank of system-register values. Each simulated core has one; a
    VM's saved vCPU context is another. Backed by a dense [int array]
    (one slot per register), so reads and writes are allocation-free
    array accesses. *)

val create_file : unit -> file
val read : file -> t -> int
val write : file -> t -> int -> unit

val mmu_gen : file -> int
(** Generation counter bumped by every write to a register the MMU
    context derives from (TTBR0_EL1, TTBR1_EL1, HCR_EL2, VTTBR_EL2).
    The core memoizes its translation context against this value. *)

val dbg_gen : file -> int
(** Generation counter bumped by every write to a DBGWVR*/DBGWCR*
    watchpoint register; the core caches the "any watchpoint armed"
    flag against it. *)

val copy_file : file -> file
val transfer : src:file -> dst:file -> t list -> unit
(** [transfer ~src ~dst regs] copies each register in [regs]. *)

val restore_file : src:file -> dst:file -> unit
(** Overwrite [dst]'s register values with [src]'s (all of them, unlike
    {!transfer}). [dst]'s generation counters are bumped forward — not
    copied from [src] — so contexts memoized against them are forced to
    recompute rather than risk revalidating across a rewind. *)

(** {1 HCR_EL2 bits}

    Hypervisor configuration bits used by LightZone (paper Sections 2.1
    and 5.1.1). *)

module Hcr : sig
  (* Bit meanings: vm = stage-2 translation enable; fmo/imo = virtual
     FIQ/IRQ routing; tsc = trap SMC; twi = trap WFI; tvm/trvm = trap
     writes/reads of stage-1 translation registers; ttlb = trap TLB
     maintenance; tge = trap general exceptions (VHE host); e2h = VHE. *)
  val vm : int
  val swio : int
  val fmo : int
  val imo : int
  val amo : int
  val tsc : int
  val twi : int
  val tvm : int
  val ttlb : int
  val trvm : int
  val tge : int
  val e2h : int
end
