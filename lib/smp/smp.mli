(** Multi-core machine: N cores over one physical memory and one GIC
    distributor, driven in bounded sync quanta with an SGI-based TLB
    shootdown protocol (DESIGN.md §15).

    Each core executes up to [quantum] cycles against thread-safe
    shared structures, then every core rendezvous at a barrier where
    cross-core effects — staged guest SGIs, shootdown requests and
    acks — are published in deterministic slot order. Because cores
    only observe each other through barrier-published state, driving
    the machine sequentially ({!run} [~parallel:false], the oracle) or
    on one OCaml domain per core ([~parallel:true]) yields
    bit-identical per-core architectural digests and traces for
    workloads that do not race on shared guest memory. Every core runs
    the one execution engine given to {!create}; the digests are also
    identical across engines.

    Shootdown protocol: an inner-shareable TLBI (or a kernel page
    invalidation executed with [?core]) flushes locally, stages a
    request and stalls the initiating core (the DVM completion wait).
    The barrier publishes the request to every sibling's inbox and
    latches the shootdown SGI; running siblings take the IPI during
    their next quantum, apply the flushes and stage an ack; siblings
    that cannot take the IPI are drained by the fabric at the barrier.
    The initiator resumes when all acks are in — at most two barriers
    later. *)

type slot = {
  id : int;
  core : Lz_cpu.Core.t;
  view : Lz_mem.Phys.t;  (** this core's alias of the shared memory. *)
  iv : Lz_irq.Irq.t;
  tracer : Lz_trace.Trace.t;
  mutable kernel : Lz_kernel.Kernel.t option;
  mutable proc : Lz_kernel.Proc.t option;
  mutable outcome : Lz_kernel.Kernel.outcome option;
  mutable qtarget : int;
  mutable sd_out : Lz_cpu.Core.shootdown list;
  mutable inbox : (int * Lz_cpu.Core.shootdown) list;
  mutable acks_out : int list;
  mutable awaiting : int;
  mutable pool_next : int;
  mutable pool_end : int;
  mutable sd_sent : int;  (** shootdowns initiated by this core. *)
  mutable sd_received : int;  (** remote invalidations applied. *)
  mutable stall_barriers : int;
      (** barriers spent stalled on DVM completion. *)
}

type t = {
  phys : Lz_mem.Phys.t;  (** setup view; slots hold aliases. *)
  cost : Lz_cpu.Cost_model.t;
  dist : Lz_irq.Gic.dist;
  quantum : int;  (** sync quantum in cycles. *)
  slots : slot array;
  mutable barriers : int;
  mutable finished : bool;
}

val create :
  ?engine:Lz_cpu.Core.engine ->
  ?quantum:int ->
  cores:int ->
  unit ->
  t
(** Build the machine: shared memory and distributor, per-core alias
    views, private 120-entry TLBs, tracers and timers under the Cortex
    A55 cost model (the {!Lz_kernel.Machine.create} defaults); SGIs
    0–15 enabled on every redistributor. With [cores = 1] no shootdown
    hook is installed — IS TLBIs keep exact uniprocessor semantics.
    [?engine] defaults to {!Lz_cpu.Core.default_engine}; [quantum]
    defaults to 10k cycles. *)

val slot : t -> int -> slot

val slot_machine : t -> int -> Lz_kernel.Machine.t
(** The slot's view of the machine (its alias + private TLB under the
    shared cost model) — the board to build this core's kernel on. *)

val assign :
  ?pool:int ->
  t ->
  int ->
  Lz_kernel.Kernel.t ->
  Lz_kernel.Proc.t ->
  entry:int ->
  sp:int ->
  unit
(** Put a process on a core: program TTBR0/HCR/pc/sp, chain the
    shootdown-IPI drain into the kernel's tick hook, and carve a
    private [pool]-frame region (default 2048) that the kernel's
    demand paging draws from so fault-time frame assignment is
    independent of host scheduling. [pool:0] keeps the kernel's
    allocator untouched (for slots sharing a kernel thread-style).

    Parallel determinism contract: workloads run with [~parallel:true]
    must not demand-allocate intermediate page-table frames during the
    run — pre-populate their address space at setup. *)

val run :
  ?parallel:bool -> ?max_insns:int -> t -> (int * Lz_kernel.Kernel.outcome) list
(** Drive every assigned core to completion (or a total of [max_insns]
    retired instructions, default 200M). [parallel:false] (default) is
    the sequential oracle; [parallel:true] spawns one host domain per
    extra core. Returns per-slot outcomes; a slot still running at the
    budget reports [Lz_kernel.Kernel.Limit_reached]. *)

val digests : t -> string array

val merged_trace : t -> (int * Lz_trace.Trace.event) list
(** All cores' trace events merged by (cycles, core, seq); each event
    tagged with its core id. *)

(** {1 Whole-machine snapshot/restore} *)

type image
(** Every core's architectural state (regs, sysregs, TLB, PMU, banked
    redistributor + distributor, timer), the shared physical memory
    (CoW, O(dirty) restore), per-slot scheduler soft state, and each
    assigned process's bookkeeping ({!Lz_kernel.Proc.capture}: VMAs,
    exit and kill status, fault count, mmap hint and output). *)

val capture : t -> image
(** Raises [Invalid_argument] unless the machine is quiescent (no
    core stalled, no shootdown in flight) — capture at a barrier or
    after {!run} returns. *)

val restore : t -> image -> unit
(** Rewind to the image, each process's output included; the image
    stays live for further restores. Clears [finished] so the machine
    can be re-run. *)

val release : t -> image -> unit
(** Drop the image's memory pins. The image must not be used again. *)
