open Lz_arm

type platform = Carmel | Cortex_a55

type t = {
  platform : platform;
  insn_base : int;
  mem_access : int;
  pte_read : int;
  pan_toggle : int;
  isb : int;
  dsb : int;
  tlbi : int;
  exc_entry_el1 : int;
  exc_entry_el2_from_el0 : int;
  exc_entry_el2_from_el1 : int;
  eret_el1 : int;
  eret_el2 : int;
  gp_save : int;
  gp_restore : int;
  dispatch : int;
  lz_forward : int;
  trap_pollution : int;
  sysreg_el1_at_el1 : int;
  sysreg_el1_at_el2 : int;
  sysreg_el2 : int;
  sysreg_el0 : int;
  hcr_write : int;
  vttbr_write : int;
  wp_reg_write : int;
  vm_extra_switch : int;
  nested_extra : int;
  nested_repoint : int;
  lwc_switch_extra : int;
  gic_ack : int;
  gic_eoi : int;
}

(* Carmel: traps and system-register updates are expensive (paper
   Table 4: host EL0->EL2 roundtrip 3,848 cycles; HCR_EL2 write
   1,550-1,655; VTTBR_EL2 write 1,115). *)
let carmel =
  { platform = Carmel;
    insn_base = 1;
    mem_access = 3;
    pte_read = 20;
    pan_toggle = 9;
    isb = 100;
    dsb = 50;
    tlbi = 400;
    exc_entry_el1 = 400;
    exc_entry_el2_from_el0 = 1750;
    exc_entry_el2_from_el1 = 1200;
    eret_el1 = 350;
    eret_el2 = 1050;
    gp_save = 70;
    gp_restore = 70;
    dispatch = 160;
    lz_forward = 120;
    trap_pollution = 250;
    sysreg_el1_at_el1 = 130;
    sysreg_el1_at_el2 = 550;
    sysreg_el2 = 450;
    sysreg_el0 = 15;
    hcr_write = 1600;
    vttbr_write = 1115;
    wp_reg_write = 330;
    vm_extra_switch = 4300;
    nested_extra = 150;
    nested_repoint = 3500;
    lwc_switch_extra = 9000;
    gic_ack = 110;
    gic_eoi = 90 }

(* Cortex A55: in line with prior profiling (KVM/ARM papers). *)
let cortex_a55 =
  { platform = Cortex_a55;
    insn_base = 1;
    mem_access = 2;
    pte_read = 12;
    pan_toggle = 4;
    isb = 12;
    dsb = 15;
    tlbi = 90;
    exc_entry_el1 = 62;
    exc_entry_el2_from_el0 = 66;
    exc_entry_el2_from_el1 = 60;
    eret_el1 = 55;
    eret_el2 = 58;
    gp_save = 35;
    gp_restore = 35;
    dispatch = 70;
    lz_forward = 240;
    trap_pollution = 22;
    sysreg_el1_at_el1 = 7;
    sysreg_el1_at_el2 = 16;
    sysreg_el2 = 14;
    sysreg_el0 = 3;
    hcr_write = 88;
    vttbr_write = 37;
    wp_reg_write = 60;
    vm_extra_switch = 300;
    nested_extra = 420;
    nested_repoint = 350;
    lwc_switch_extra = 1500;
    gic_ack = 9;
    gic_eoi = 7 }

let all = [ carmel; cortex_a55 ]

let name t =
  match t.platform with Carmel -> "Carmel" | Cortex_a55 -> "Cortex A55"

let sysreg_access t ~at reg =
  match reg with
  | Sysreg.HCR_EL2 -> t.hcr_write
  | Sysreg.VTTBR_EL2 -> t.vttbr_write
  | Sysreg.ICC_IAR1_EL1 -> t.gic_ack
  | Sysreg.ICC_EOIR1_EL1 -> t.gic_eoi
  | Sysreg.DBGWVR0_EL1 | Sysreg.DBGWVR1_EL1 | Sysreg.DBGWVR2_EL1
  | Sysreg.DBGWVR3_EL1 | Sysreg.DBGWCR0_EL1 | Sysreg.DBGWCR1_EL1
  | Sysreg.DBGWCR2_EL1 | Sysreg.DBGWCR3_EL1 ->
      (* Like other EL1 registers, debug registers are cheaper when
         the accessor runs at EL1 (guest kernel) than through the EL2
         alias path. *)
      if at = Pstate.EL2 then t.wp_reg_write else t.wp_reg_write * 2 / 5
  | reg -> (
      match Sysreg.min_el reg with
      | Pstate.EL0 -> t.sysreg_el0
      | Pstate.EL1 ->
          if at = Pstate.EL2 then t.sysreg_el1_at_el2 else t.sysreg_el1_at_el1
      | Pstate.EL2 -> t.sysreg_el2)
