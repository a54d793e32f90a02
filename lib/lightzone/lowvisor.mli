(** LightZone Lowvisor: the EL2 patch that lets *guest* kernels host
    kernel-mode processes (paper Sections 4.1.1 and 5.2.2).

    When a guest LightZone process traps, the processor arrives at EL2
    and the Lowvisor forwards the trap into the guest kernel. The
    naive path would be a full nested-VM switch; the Lowvisor instead
    applies three optimizations the paper describes:

    - NEVE-style deferral: guest-kernel accesses to the LightZone
      process's system registers go through a shared per-core page
      instead of trapping (modelled as memory accesses, not
      system-register costs);
    - a shared [pt_regs] page between Lowvisor and guest kernel, so
      the process context is saved once, not twice (one GP save for
      the roundtrip instead of two);
    - shared system resources (FP state, timers, counters, interrupt
      state) are not switched at all — only a small partial set of
      EL1 registers moves, plus VTTBR_EL2. Concretely, the core's
      interrupt fabric ({!Lz_cpu.Core.t.irqc}: GIC redistributor
      latches, priorities, active stack, and the CNTP timer
      programming) stays live and untouched across every forward, so
      a timer armed by the zone still fires while the guest kernel
      runs and vice versa.

    After a scheduling event the pointer to the current thread's
    shared context must be re-located, which makes the forwarding cost
    fluctuate (Table 4 reports 29,020–32,881 cycles on Carmel).

    The forwarding charges are pre-computed per cost model at
    {!create} time into a single cycle total per direction, so a
    forward does one [Core.charge] instead of a charge per register —
    arithmetically identical to the per-register loop. *)

type costs = {
  full_in : int;   (** forward into the guest kernel. *)
  full_out : int;  (** return to the LightZone process. *)
}

type t = {
  hyp : Lz_hyp.Hypervisor.t;
  vm : Lz_hyp.Vm.t;  (** the guest VM whose kernel hosts the process. *)
  mutable repoint_pending : bool;
  mutable forwards : int;
  mutable repoints : int;
  costs : costs;
}

val create : Lz_hyp.Hypervisor.t -> Lz_hyp.Vm.t -> t

val notify_schedule : t -> unit
(** A scheduling event occurred in the guest: the next forwarded trap
    pays the pt_regs re-location cost. *)

val charge_forward_in : t -> Lz_cpu.Core.t -> unit
(** Cycle charges from the EL2 arrival (already charged by the core)
    up to the guest kernel starting its handler: partial context
    switch to the kernel, VTTBR update, shared-page context save, and
    the ERET into the guest kernel. *)

val charge_forward_out : t -> Lz_cpu.Core.t -> unit
(** Charges for the way back: the guest kernel's HVC return to EL2 and
    the partial switch back to the LightZone process (the final ERET
    is charged by the caller's [Core.eret_from_el2]). *)
