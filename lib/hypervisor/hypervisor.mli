(** KVM-style hypervisor model (VHE host).

    Runs at EL2 as OCaml; manages VM creation, stage-2 demand paging
    (identity IPA→PA for ordinary guest VMs — a simulation
    simplification documented in DESIGN.md; LightZone's own stage-2
    trees are separate and fully enforced), and the full KVM world
    switch whose cycle cost Table 4 reports as the "KVM Virtualization
    Host Extensions hypercall" row. *)

type t = {
  machine : Lz_kernel.Machine.t;
  mutable vms : Vm.t list;
  mutable next_vmid : int;
  mutable world_switches : int;
}

val create : Lz_kernel.Machine.t -> t

val create_vm : t -> Vm.t

val make_guest_kernel : t -> Vm.t -> Lz_kernel.Kernel.t
(** A guest kernel wired to this VM: its frame allocations are
    stage-2-mapped, and its processes run under the VM's VMID. *)

val handle_s2_fault : t -> Vm.t -> Lz_mem.Mmu.fault -> [ `Handled | `Fatal ]
(** Demand-map the faulting IPA (identity). *)

(** {1 World switch} *)

val vcpu_load : t -> Vm.t -> Lz_cpu.Core.t -> unit
(** Restore the VM's EL1 context onto the core, set guest HCR/VTTBR
    (charging every register write as KVM's switch code would). *)

val vcpu_put : t -> Vm.t -> Lz_cpu.Core.t -> unit
(** Save the VM's EL1 context and restore host configuration. *)

val hypercall_roundtrip : t -> Vm.t -> Lz_cpu.Core.t -> unit
(** Service one hypercall exit with a full world switch: vcpu_put,
    host-side dispatch, vcpu_load — the conventional (unoptimized) KVM
    path that LightZone's Section 5.2 optimizations avoid. *)

(** {1 Guest process driving} *)

val run_guest_process :
  t -> Vm.t -> Lz_kernel.Kernel.t -> Lz_kernel.Proc.t -> Lz_cpu.Core.t ->
  Lz_kernel.Kernel.outcome
(** Like {!Lz_kernel.Kernel.run} but for a process inside a VM:
    stage-2 faults and hypercalls are serviced by the hypervisor,
    everything else — interrupts included — by the guest kernel at
    EL1. *)
