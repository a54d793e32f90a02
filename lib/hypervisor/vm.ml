type t = {
  vmid : int;
  s2_root : int;
  machine : Lz_kernel.Machine.t;
  saved_el1 : Lz_arm.Sysreg.file;
  mutable s2_faults : int;
  mutable pages_mapped : int;
}

let create machine ~vmid =
  { vmid;
    s2_root = Lz_mem.Stage2.create_root machine.Lz_kernel.Machine.phys;
    machine;
    saved_el1 = Lz_arm.Sysreg.create_file ();
    s2_faults = 0;
    pages_mapped = 0 }

let vttbr t = Lz_mem.Mmu.ttbr_value ~root:t.s2_root ~asid:t.vmid
