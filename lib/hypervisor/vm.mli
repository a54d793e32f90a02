(** A virtual machine: VMID, stage-2 translation root, and the saved
    vCPU EL1 context used by world switches. *)

type t = {
  vmid : int;
  s2_root : int;
  machine : Lz_kernel.Machine.t;
  saved_el1 : Lz_arm.Sysreg.file;
      (** EL1 system-register context while the VM is descheduled. *)
  mutable s2_faults : int;
  mutable pages_mapped : int;
}

val create : Lz_kernel.Machine.t -> vmid:int -> t

val vttbr : t -> int
(** VTTBR_EL2 value for this VM (stage-2 root + VMID tag). *)
