(** Preemptive round-robin scheduler across one or many CPUs.

    Every core handed to {!add} becomes a CPU slot. Tasks are ordinary
    EL0 processes carrying their architectural state in a saved
    {!Lz_cpu.Core.context} (registers, SPs, PSTATE, full sysreg file —
    TTBR0/ASID included), so any CPU can run any task: a CPU loads the
    context, runs a timeslice, and saves it back on preemption; the
    ASID-tagged TLBs need no flush on migration.

    Cross-CPU coordination goes through the interrupt fabric:
    rescheduling is IPI-driven (enqueuing a task sends the resched SGI
    through ICC_SGI1R_EL1 to every idle CPU, which only picks up work
    after acknowledging it), and inner-shareable TLB maintenance —
    IS TLBIs executed by tasks, and the kernel's munmap/mprotect page
    invalidations — is applied synchronously to every other CPU's TLB
    via the cores' [on_shootdown] hooks. The scheduler loop itself is
    sequential, so multi-CPU runs are deterministic; the staged,
    stall-based shootdown protocol with parallel host execution lives
    in [Lz_smp].

    Before resuming a task the scheduler programs the CPU's generic
    timer with the timeslice; the timer PPI (INTID 30) preempts the
    task at an arbitrary instruction boundary and rotates it to the
    back of the shared run queue. All other traps (syscalls, faults)
    are serviced by the kernel exactly as under the cooperative
    {!Kernel.run} loop, so a preempted run is architecturally
    identical to an unpreempted one apart from the interrupt entries
    themselves. *)

type task = {
  tid : int;
  proc : Proc.t;
  mutable ctx : Lz_cpu.Core.context;
      (** architectural state while descheduled. *)
  mutable outcome : Kernel.outcome option;
  mutable slices : int;  (** times this task was scheduled. *)
  mutable migrations : int;  (** times it resumed on a different CPU. *)
  mutable last_cpu : int;  (** CPU that last ran it; -1 = never ran. *)
}

type cpu = {
  cid : int;  (** GIC attach-order id; SGI target-list bit position. *)
  core : Lz_cpu.Core.t;
  iv : Lz_irq.Irq.t;
  mutable current : task option;
}

type t = {
  kernel : Kernel.t;
  slice : int;  (** timeslice in cycles. *)
  mutable cpus : cpu list;
  mutable ready : task list;  (** shared run queue, head runs next. *)
  mutable tasks : task list;  (** every task added, in tid order. *)
  mutable next_tid : int;
  mutable preemptions : int;
  mutable ticks : int;  (** timer interrupts fielded. *)
  mutable resched_ipis : int;  (** resched SGIs sent. *)
  mutable shootdowns : int;
      (** cross-CPU TLB invalidations applied. *)
  mutable migrations : int;
}

val create : ?slice:int -> Kernel.t -> t
(** [slice] defaults to 20k cycles. *)

val add : t -> Proc.t -> Lz_cpu.Core.t -> task
(** Enqueue a task configured on [core]; the core (if new) becomes a
    CPU slot with an attached, initialized IRQ fabric — the first
    core's fabric creates the GIC distributor, later ones share it, so
    IPIs reach each other. The task's initial context is captured from
    the core, after which the task may run anywhere. *)

val run : ?max_insns:int -> t -> (int * Kernel.outcome) list
(** Schedule all tasks to completion (or [max_insns] total retired
    instructions across CPUs); returns per-tid outcomes, tid-sorted.
    Tasks still running at the budget report [Limit_reached]. A
    {!Lz_trace.Trace.Preempt} event is emitted at every rotation on
    the preempting CPU's tracer. *)
