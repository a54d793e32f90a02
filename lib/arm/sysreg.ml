type t =
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
  | TPIDR_EL0
  | TPIDRRO_EL0
  | CNTVCT_EL0
  | CNTFRQ_EL0
  | FPCR
  | FPSR
  | NZCV
  | DAIF
  | DBGWVR0_EL1 | DBGWVR1_EL1 | DBGWVR2_EL1 | DBGWVR3_EL1
  | DBGWCR0_EL1 | DBGWCR1_EL1 | DBGWCR2_EL1 | DBGWCR3_EL1
  | MDSCR_EL1
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
  (* PMUv3 (backed by a Pmu.t attached to the core, not by the
     register file; the core intercepts accesses). *)
  | PMCR_EL0
  | PMCNTENSET_EL0
  | PMCNTENCLR_EL0
  | PMCCNTR_EL0
  (* One constant constructor per counter slot keeps [t] an
     all-immediate enum — [index] stays a table lookup and the
     per-instruction [read]s in the core never see a boxed tag. *)
  | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0
  | PMEVCNTR3_EL0 | PMEVCNTR4_EL0 | PMEVCNTR5_EL0
  | PMEVTYPER0_EL0 | PMEVTYPER1_EL0 | PMEVTYPER2_EL0
  | PMEVTYPER3_EL0 | PMEVTYPER4_EL0 | PMEVTYPER5_EL0
  | PMOVSCLR_EL0
  | PMOVSSET_EL0
  | PMINTENSET_EL1
  | PMINTENCLR_EL1
  (* EL1 physical generic timer (serviced from an attached Lz_irq
     timer, not the register file). *)
  | CNTP_TVAL_EL0
  | CNTP_CTL_EL0
  | CNTP_CVAL_EL0
  (* GICv3 CPU interface (serviced from an attached Lz_irq GIC). *)
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

type enc = { op0 : int; op1 : int; crn : int; crm : int; op2 : int }

let enc op0 op1 crn crm op2 = { op0; op1; crn; crm; op2 }

(* Every register with its name and its encoding from the ARMv8-A
   system register index, in declaration order: a register's position
   here is its [index], the slot it takes in a register file. *)
let table =
  [|
    (TTBR0_EL1, "TTBR0_EL1", enc 3 0 2 0 0);
    (TTBR1_EL1, "TTBR1_EL1", enc 3 0 2 0 1);
    (TCR_EL1, "TCR_EL1", enc 3 0 2 0 2);
    (SCTLR_EL1, "SCTLR_EL1", enc 3 0 1 0 0);
    (MAIR_EL1, "MAIR_EL1", enc 3 0 10 2 0);
    (VBAR_EL1, "VBAR_EL1", enc 3 0 12 0 0);
    (ESR_EL1, "ESR_EL1", enc 3 0 5 2 0);
    (ELR_EL1, "ELR_EL1", enc 3 0 4 0 1);
    (SPSR_EL1, "SPSR_EL1", enc 3 0 4 0 0);
    (FAR_EL1, "FAR_EL1", enc 3 0 6 0 0);
    (SP_EL0, "SP_EL0", enc 3 0 4 1 0);
    (SP_EL1, "SP_EL1", enc 3 4 4 1 0);
    (CONTEXTIDR_EL1, "CONTEXTIDR_EL1", enc 3 0 13 0 1);
    (CPACR_EL1, "CPACR_EL1", enc 3 0 1 0 2);
    (CNTKCTL_EL1, "CNTKCTL_EL1", enc 3 0 14 1 0);
    (TPIDR_EL0, "TPIDR_EL0", enc 3 3 13 0 2);
    (TPIDRRO_EL0, "TPIDRRO_EL0", enc 3 3 13 0 3);
    (CNTVCT_EL0, "CNTVCT_EL0", enc 3 3 14 0 2);
    (CNTFRQ_EL0, "CNTFRQ_EL0", enc 3 3 14 0 0);
    (FPCR, "FPCR", enc 3 3 4 4 0);
    (FPSR, "FPSR", enc 3 3 4 4 1);
    (NZCV, "NZCV", enc 3 3 4 2 0);
    (DAIF, "DAIF", enc 3 3 4 2 1);
    (DBGWVR0_EL1, "DBGWVR0_EL1", enc 2 0 0 0 6);
    (DBGWVR1_EL1, "DBGWVR1_EL1", enc 2 0 0 1 6);
    (DBGWVR2_EL1, "DBGWVR2_EL1", enc 2 0 0 2 6);
    (DBGWVR3_EL1, "DBGWVR3_EL1", enc 2 0 0 3 6);
    (DBGWCR0_EL1, "DBGWCR0_EL1", enc 2 0 0 0 7);
    (DBGWCR1_EL1, "DBGWCR1_EL1", enc 2 0 0 1 7);
    (DBGWCR2_EL1, "DBGWCR2_EL1", enc 2 0 0 2 7);
    (DBGWCR3_EL1, "DBGWCR3_EL1", enc 2 0 0 3 7);
    (MDSCR_EL1, "MDSCR_EL1", enc 2 0 0 2 2);
    (HCR_EL2, "HCR_EL2", enc 3 4 1 1 0);
    (VTTBR_EL2, "VTTBR_EL2", enc 3 4 2 1 0);
    (VTCR_EL2, "VTCR_EL2", enc 3 4 2 1 2);
    (TTBR0_EL2, "TTBR0_EL2", enc 3 4 2 0 0);
    (TCR_EL2, "TCR_EL2", enc 3 4 2 0 2);
    (SCTLR_EL2, "SCTLR_EL2", enc 3 4 1 0 0);
    (VBAR_EL2, "VBAR_EL2", enc 3 4 12 0 0);
    (ESR_EL2, "ESR_EL2", enc 3 4 5 2 0);
    (ELR_EL2, "ELR_EL2", enc 3 4 4 0 1);
    (SPSR_EL2, "SPSR_EL2", enc 3 4 4 0 0);
    (FAR_EL2, "FAR_EL2", enc 3 4 6 0 0);
    (HPFAR_EL2, "HPFAR_EL2", enc 3 4 6 0 4);
    (CPTR_EL2, "CPTR_EL2", enc 3 4 1 1 2);
    (MDCR_EL2, "MDCR_EL2", enc 3 4 1 1 1);
    (TPIDR_EL2, "TPIDR_EL2", enc 3 4 13 0 2);
    (CNTHCTL_EL2, "CNTHCTL_EL2", enc 3 4 14 1 0);
    (VPIDR_EL2, "VPIDR_EL2", enc 3 4 0 0 0);
    (VMPIDR_EL2, "VMPIDR_EL2", enc 3 4 0 0 5);
    (PMCR_EL0, "PMCR_EL0", enc 3 3 9 12 0);
    (PMCNTENSET_EL0, "PMCNTENSET_EL0", enc 3 3 9 12 1);
    (PMCNTENCLR_EL0, "PMCNTENCLR_EL0", enc 3 3 9 12 2);
    (PMCCNTR_EL0, "PMCCNTR_EL0", enc 3 3 9 13 0);
    (PMEVCNTR0_EL0, "PMEVCNTR0_EL0", enc 3 3 14 8 0);
    (PMEVCNTR1_EL0, "PMEVCNTR1_EL0", enc 3 3 14 8 1);
    (PMEVCNTR2_EL0, "PMEVCNTR2_EL0", enc 3 3 14 8 2);
    (PMEVCNTR3_EL0, "PMEVCNTR3_EL0", enc 3 3 14 8 3);
    (PMEVCNTR4_EL0, "PMEVCNTR4_EL0", enc 3 3 14 8 4);
    (PMEVCNTR5_EL0, "PMEVCNTR5_EL0", enc 3 3 14 8 5);
    (PMEVTYPER0_EL0, "PMEVTYPER0_EL0", enc 3 3 14 12 0);
    (PMEVTYPER1_EL0, "PMEVTYPER1_EL0", enc 3 3 14 12 1);
    (PMEVTYPER2_EL0, "PMEVTYPER2_EL0", enc 3 3 14 12 2);
    (PMEVTYPER3_EL0, "PMEVTYPER3_EL0", enc 3 3 14 12 3);
    (PMEVTYPER4_EL0, "PMEVTYPER4_EL0", enc 3 3 14 12 4);
    (PMEVTYPER5_EL0, "PMEVTYPER5_EL0", enc 3 3 14 12 5);
    (PMOVSCLR_EL0, "PMOVSCLR_EL0", enc 3 3 9 12 3);
    (PMOVSSET_EL0, "PMOVSSET_EL0", enc 3 3 9 14 3);
    (PMINTENSET_EL1, "PMINTENSET_EL1", enc 3 0 9 14 1);
    (PMINTENCLR_EL1, "PMINTENCLR_EL1", enc 3 0 9 14 2);
    (CNTP_TVAL_EL0, "CNTP_TVAL_EL0", enc 3 3 14 2 0);
    (CNTP_CTL_EL0, "CNTP_CTL_EL0", enc 3 3 14 2 1);
    (CNTP_CVAL_EL0, "CNTP_CVAL_EL0", enc 3 3 14 2 2);
    (ICC_PMR_EL1, "ICC_PMR_EL1", enc 3 0 4 6 0);
    (ICC_IAR1_EL1, "ICC_IAR1_EL1", enc 3 0 12 12 0);
    (ICC_EOIR1_EL1, "ICC_EOIR1_EL1", enc 3 0 12 12 1);
    (ICC_HPPIR1_EL1, "ICC_HPPIR1_EL1", enc 3 0 12 12 2);
    (ICC_BPR1_EL1, "ICC_BPR1_EL1", enc 3 0 12 12 3);
    (ICC_CTLR_EL1, "ICC_CTLR_EL1", enc 3 0 12 12 4);
    (ICC_SRE_EL1, "ICC_SRE_EL1", enc 3 0 12 12 5);
    (ICC_IGRPEN1_EL1, "ICC_IGRPEN1_EL1", enc 3 0 12 12 7);
    (ICC_RPR_EL1, "ICC_RPR_EL1", enc 3 0 12 11 3);
    (ICC_SGI1R_EL1, "ICC_SGI1R_EL1", enc 3 0 12 11 5);
  |]

(* A register's position in [table]. Kept as a [match]: the
   per-instruction register-file accesses compile it without reading
   the table. *)
let index = function
  | TTBR0_EL1 -> 0
  | TTBR1_EL1 -> 1
  | TCR_EL1 -> 2
  | SCTLR_EL1 -> 3
  | MAIR_EL1 -> 4
  | VBAR_EL1 -> 5
  | ESR_EL1 -> 6
  | ELR_EL1 -> 7
  | SPSR_EL1 -> 8
  | FAR_EL1 -> 9
  | SP_EL0 -> 10
  | SP_EL1 -> 11
  | CONTEXTIDR_EL1 -> 12
  | CPACR_EL1 -> 13
  | CNTKCTL_EL1 -> 14
  | TPIDR_EL0 -> 15
  | TPIDRRO_EL0 -> 16
  | CNTVCT_EL0 -> 17
  | CNTFRQ_EL0 -> 18
  | FPCR -> 19
  | FPSR -> 20
  | NZCV -> 21
  | DAIF -> 22
  | DBGWVR0_EL1 -> 23
  | DBGWVR1_EL1 -> 24
  | DBGWVR2_EL1 -> 25
  | DBGWVR3_EL1 -> 26
  | DBGWCR0_EL1 -> 27
  | DBGWCR1_EL1 -> 28
  | DBGWCR2_EL1 -> 29
  | DBGWCR3_EL1 -> 30
  | MDSCR_EL1 -> 31
  | HCR_EL2 -> 32
  | VTTBR_EL2 -> 33
  | VTCR_EL2 -> 34
  | TTBR0_EL2 -> 35
  | TCR_EL2 -> 36
  | SCTLR_EL2 -> 37
  | VBAR_EL2 -> 38
  | ESR_EL2 -> 39
  | ELR_EL2 -> 40
  | SPSR_EL2 -> 41
  | FAR_EL2 -> 42
  | HPFAR_EL2 -> 43
  | CPTR_EL2 -> 44
  | MDCR_EL2 -> 45
  | TPIDR_EL2 -> 46
  | CNTHCTL_EL2 -> 47
  | VPIDR_EL2 -> 48
  | VMPIDR_EL2 -> 49
  | PMCR_EL0 -> 50
  | PMCNTENSET_EL0 -> 51
  | PMCNTENCLR_EL0 -> 52
  | PMCCNTR_EL0 -> 53
  | PMEVCNTR0_EL0 -> 54
  | PMEVCNTR1_EL0 -> 55
  | PMEVCNTR2_EL0 -> 56
  | PMEVCNTR3_EL0 -> 57
  | PMEVCNTR4_EL0 -> 58
  | PMEVCNTR5_EL0 -> 59
  | PMEVTYPER0_EL0 -> 60
  | PMEVTYPER1_EL0 -> 61
  | PMEVTYPER2_EL0 -> 62
  | PMEVTYPER3_EL0 -> 63
  | PMEVTYPER4_EL0 -> 64
  | PMEVTYPER5_EL0 -> 65
  | PMOVSCLR_EL0 -> 66
  | PMOVSSET_EL0 -> 67
  | PMINTENSET_EL1 -> 68
  | PMINTENCLR_EL1 -> 69
  | CNTP_TVAL_EL0 -> 70
  | CNTP_CTL_EL0 -> 71
  | CNTP_CVAL_EL0 -> 72
  | ICC_PMR_EL1 -> 73
  | ICC_IAR1_EL1 -> 74
  | ICC_EOIR1_EL1 -> 75
  | ICC_HPPIR1_EL1 -> 76
  | ICC_BPR1_EL1 -> 77
  | ICC_CTLR_EL1 -> 78
  | ICC_SRE_EL1 -> 79
  | ICC_IGRPEN1_EL1 -> 80
  | ICC_RPR_EL1 -> 81
  | ICC_SGI1R_EL1 -> 82

let nregs = Array.length table

let encoding r =
  let _, _, e = table.(index r) in
  e

let name r =
  let _, n, _ = table.(index r) in
  n

let all = Array.to_list (Array.map (fun (r, _, _) -> r) table)

let of_encoding e =
  Array.find_map (fun (r, _, e') -> if e' = e then Some r else None) table

let pmev_slot = function
  | PMEVCNTR0_EL0 | PMEVTYPER0_EL0 -> 0
  | PMEVCNTR1_EL0 | PMEVTYPER1_EL0 -> 1
  | PMEVCNTR2_EL0 | PMEVTYPER2_EL0 -> 2
  | PMEVCNTR3_EL0 | PMEVTYPER3_EL0 -> 3
  | PMEVCNTR4_EL0 | PMEVTYPER4_EL0 -> 4
  | PMEVCNTR5_EL0 | PMEVTYPER5_EL0 -> 5
  | _ -> invalid_arg "Sysreg.pmev_slot: not a PMEVCNTRn/PMEVTYPERn register"

let[@inline] min_el r =
  match (encoding r).op1 with
  | 3 -> Pstate.EL0
  | 4 -> Pstate.EL2
  | _ -> Pstate.EL1

(* The EL1 state a hypervisor context-switches on a world switch; this
   is the set KVM saves/restores, which the Table 4 calibration counts. *)
let el1_context =
  [ TTBR0_EL1; TTBR1_EL1; TCR_EL1; SCTLR_EL1; MAIR_EL1; VBAR_EL1;
    ESR_EL1; ELR_EL1; SPSR_EL1; FAR_EL1; SP_EL0; SP_EL1; CONTEXTIDR_EL1;
    CPACR_EL1; CNTKCTL_EL1; TPIDR_EL0; TPIDRRO_EL0; MDSCR_EL1 ]

(* Generation counters let cached derivations (the core's memoized
   MMU context, the watchpoint-armed flag) detect staleness without
   re-reading every register on every instruction. They are bumped on
   *every* write through [write], including writes performed by
   OCaml-modelled kernel/hypervisor code. *)
type file = {
  v : int array;
  mutable mmu_gen : int;  (* TTBR0/1_EL1, HCR_EL2, VTTBR_EL2 writes *)
  mutable dbg_gen : int;  (* DBGWVR*/DBGWCR* writes *)
}

let create_file () : file =
  { v = Array.make nregs 0; mmu_gen = 0; dbg_gen = 0 }

let[@inline] read (f : file) r = f.v.(index r)

let write (f : file) r x =
  f.v.(index r) <- x;
  match r with
  | TTBR0_EL1 | TTBR1_EL1 | HCR_EL2 | VTTBR_EL2 ->
      f.mmu_gen <- f.mmu_gen + 1
  | DBGWVR0_EL1 | DBGWVR1_EL1 | DBGWVR2_EL1 | DBGWVR3_EL1
  | DBGWCR0_EL1 | DBGWCR1_EL1 | DBGWCR2_EL1 | DBGWCR3_EL1 ->
      f.dbg_gen <- f.dbg_gen + 1
  | _ -> ()

let mmu_gen (f : file) = f.mmu_gen
let dbg_gen (f : file) = f.dbg_gen

let copy_file (f : file) =
  { v = Array.copy f.v; mmu_gen = f.mmu_gen; dbg_gen = f.dbg_gen }

(* Overwrite [dst]'s contents with [src]'s. The generation counters
   are bumped forward, never copied: a rewind that restored an old
   generation value could let a context memoized in the abandoned
   timeline revalidate against a same-numbered generation in the new
   one. Bumping forces every cached derivation to recompute once. *)
let restore_file ~src ~dst =
  Array.blit src.v 0 dst.v 0 nregs;
  dst.mmu_gen <- dst.mmu_gen + 1;
  dst.dbg_gen <- dst.dbg_gen + 1

let transfer ~src ~dst regs =
  List.iter (fun r -> write dst r (read src r)) regs

module Hcr = struct
  let vm = 1 lsl 0
  let swio = 1 lsl 1
  let fmo = 1 lsl 3
  let imo = 1 lsl 4
  let amo = 1 lsl 5
  let twi = 1 lsl 13
  let tsc = 1 lsl 19
  let ttlb = 1 lsl 25
  let tvm = 1 lsl 26
  let tge = 1 lsl 27
  let trvm = 1 lsl 30
  let e2h = 1 lsl 34
end
