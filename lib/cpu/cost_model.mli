(** Per-platform cycle cost parameters.

    The paper evaluates on two SoCs with wildly different system-
    register performance: NVIDIA Carmel (Jetson AGX Xavier), where a
    single HCR_EL2 write costs ~1,600 cycles, and the Amlogic Cortex
    A55 (Banana Pi BPI-M5), where it costs ~88 (paper Table 4). These
    parameters are calibrated so that the *primitive* operations the
    paper measured directly (exception entry/exit, HCR_EL2/VTTBR_EL2
    updates) reproduce the paper's numbers; every *derived* result
    (LightZone trap costs, domain-switch costs, application overheads)
    then emerges from executing the real code paths in the simulator.

    A key Carmel behaviour the paper reports is that accessing an EL1
    register *from EL2* (via VHE aliasing, as KVM's world switch does)
    is much slower than the guest kernel accessing the same register
    natively; the cost table therefore distinguishes the accessing
    exception level. *)

type platform = Carmel | Cortex_a55

type t = {
  platform : platform;
  insn_base : int;        (** simple ALU / branch instruction. *)
  mem_access : int;       (** L1-hit load/store. *)
  pte_read : int;         (** one descriptor fetch during a table walk. *)
  pan_toggle : int;       (** MSR PAN, #imm. *)
  isb : int;
  dsb : int;
  tlbi : int;
  exc_entry_el1 : int;    (** hardware exception entry targeting EL1. *)
  exc_entry_el2_from_el0 : int;
  exc_entry_el2_from_el1 : int;
  eret_el1 : int;
  eret_el2 : int;
  gp_save : int;          (** save 31 GP registers to pt_regs. *)
  gp_restore : int;
  dispatch : int;         (** syscall-table dispatch + C prologue. *)
  lz_forward : int;       (** kernel-module exception-type check and
                              forward logic on a LightZone trap. *)
  trap_pollution : int;   (** indirect i-cache/BTB pollution per trap. *)
  sysreg_el1_at_el1 : int;  (** EL1 register accessed natively. *)
  sysreg_el1_at_el2 : int;  (** EL1 register accessed from EL2 (VHE). *)
  sysreg_el2 : int;         (** EL2 register (other than the specials). *)
  sysreg_el0 : int;         (** EL0-class registers, NZCV, FPCR... *)
  hcr_write : int;
  vttbr_write : int;
  wp_reg_write : int;     (** debug watchpoint register update. *)
  vm_extra_switch : int;  (** vGIC/timer/FP state switch on a full KVM
                              world switch. *)
  nested_extra : int;     (** fixed Lowvisor overhead per forwarded
                              nested trap (shared-page bookkeeping). *)
  nested_repoint : int;   (** re-locating the shared pt_regs pointer
                              after a scheduling event — the source of
                              the Table 4 row-4 fluctuation. *)
  lwc_switch_extra : int; (** lwC context-switch work beyond the bare
                              syscall (address-space + credential
                              switch in the lwSwitch path). *)
  gic_ack : int;          (** ICC_IAR1_EL1 read (interrupt
                              acknowledge at the GIC CPU interface). *)
  gic_eoi : int;          (** ICC_EOIR1_EL1 write (end of
                              interrupt). *)
}

val carmel : t
val cortex_a55 : t
val all : t list

val name : t -> string

val sysreg_access :
  t -> at:Lz_arm.Pstate.el -> Lz_arm.Sysreg.t -> int
(** Cost of one MSR/MRS to the given register performed at EL [at]. *)
