(** The OS kernel model.

    One instance serves either as the VHE *host* kernel (running at
    EL2, taking EL0 exceptions directly thanks to HCR_EL2.TGE) or as a
    *guest* kernel (running at EL1 inside a VM whose stage 2 the
    hypervisor manages). Both variants execute as OCaml; simulated
    cores trap out of EL0/EL1 into them, and every handler charges the
    cycle costs of the work it models (register saves, system-register
    reads, dispatch), which is what the Table 4 measurements run on.

    Extension hooks let the LightZone kernel module and the Watchpoint
    baseline intercept traps before normal handling. *)

type mode = Host_vhe | Guest

type outcome =
  | Exited of int
  | Segv of string      (** unhandled fault — process terminated. *)
  | Limit_reached

type t = {
  machine : Machine.t;
  mode : mode;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  mutable next_asid : int;
  mutable s2_ctx : (int * int) option;
      (** (vmid, stage-2 root) when this is a guest kernel. *)
  mutable alloc_frame : unit -> int;
      (** frame allocator; the hypervisor overrides it for guests so
          new frames get stage-2 mappings. *)
  mutable custom_trap :
    (t -> Proc.t -> Lz_cpu.Core.t -> Lz_cpu.Core.exception_class -> bool)
    option;
      (** returns true when the extension handled the trap. *)
  mutable syscall_count : int;
  mutable on_tick : (Lz_cpu.Core.t -> int -> unit) option;
      (** IRQ hook, called with the acknowledged INTID between the GIC
          ack and EOI of every interrupt this kernel services — the
          preemptive scheduler's tick. Sources the hook leaves
          asserted are quiesced before EOI. *)
}

val create : Machine.t -> mode -> t

val create_process : t -> Proc.t

val new_user_core : t -> Proc.t -> entry:int -> sp:int -> Lz_cpu.Core.t
(** An EL0 core configured for this kernel's mode (TGE for the host,
    stage-2 for guests), with TTBR0 pointing at the process table. *)

(** {1 Memory management} *)

val map_anon : t -> Proc.t -> ?at:int -> len:int -> Vma.prot -> int
(** Create an anonymous VMA; returns its start address. *)

val fault_in_page : t -> Proc.t -> va:int -> unit
(** Populate one page immediately (demand paging short-circuit). *)

val populate : t -> Proc.t -> start:int -> len:int -> unit

val munmap : ?core:Lz_cpu.Core.t -> t -> Proc.t -> start:int -> len:int -> unit
(** Tear down the range: VMAs, page-table entries, frames and TLB
    entries. With [~core] the TLB invalidation models [tlbi vae1is]
    executed on that core — its own TLB is flushed and the shootdown
    is broadcast through its [Core.on_shootdown] hook so an SMP driver
    can invalidate the remaining cores; without it the machine TLB is
    flushed directly (single-core setup paths). *)

val mprotect :
  ?core:Lz_cpu.Core.t -> t -> Proc.t -> start:int -> len:int -> Vma.prot -> unit
(** Change protections in place; [~core] as for {!munmap}. *)

val write_user : t -> Proc.t -> va:int -> Bytes.t -> unit
(** Write into process memory through the kernel's own mapping,
    faulting pages in as needed. *)

val read_user : t -> Proc.t -> va:int -> len:int -> Bytes.t

val load_program : t -> Proc.t -> va:int -> Lz_arm.Insn.t list -> unit
(** Map an executable VMA at [va] holding the encoded instructions. *)

val handle_fault :
  ?core:Lz_cpu.Core.t -> t -> Proc.t -> Lz_mem.Mmu.fault ->
  [ `Handled | `Segv ]
(** Demand-paging fault handler: a translation fault inside a VMA
    that allows the access installs the one faulting page (or nothing,
    when the page is already resident). With [~core] the fault
    dispatch cost is charged to that core; without it no cycles are
    charged — callers running a core should pass it. *)

(** {1 Syscalls} *)

val do_syscall : t -> Proc.t -> Lz_cpu.Core.t -> unit
(** Dispatch the syscall in x8 with args in x0..x5; result into x0.
    Unknown syscalls return -ENOSYS (-38). *)

(** {1 Running} *)

val service_trap :
  t -> Proc.t -> Lz_cpu.Core.t -> Lz_cpu.Core.exception_class ->
  at:Lz_arm.Pstate.el -> [ `Continue | `Stop of outcome ]
(** Service one trap (entry/exit cycle charges included). [at] is the
    exception level this kernel runs at — EL2 for the VHE host, EL1
    for a guest kernel. Exposed so the hypervisor's guest-process run
    loop and the LightZone kernel module can delegate to the normal
    kernel paths. *)

val run : ?max_insns:int -> t -> Proc.t -> Lz_cpu.Core.t -> outcome
(** Drive an ordinary EL0 process: resume the core, service its traps
    (charging trap-path cycles per the platform model), repeat until
    exit, unhandled fault, or budget exhaustion. *)

(** {1 Syscall numbers (arm64)} *)

module Nr : sig
  val getpid : int
  val gettid : int
  val write : int
  val exit : int
  val exit_group : int
  val mmap : int
  val munmap : int
  val mprotect : int
  val clock_gettime : int
end
