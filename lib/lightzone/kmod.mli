(** The LightZone kernel module: kernel-mode process management
    (paper Section 5) and in-process isolation enforcement (Section 6).

    A LightZone process runs at EL1 of its own VM. The module owns:

    - the process's stage-2 tree (identity for PAN-only processes,
      fake-physical for scalable ones) — the backstop that keeps a
      kernel-mode process inside its VM whatever it does to TTBR0;
    - the TTBR1 region: exception-vector stub, 256 pre-emitted call
      gates, GateTab and TTBRTab (read-only to the process);
    - one {!Lz_table} per lz_alloc'd page table, plus pgt 0 (the
      default table every unprotected page demand-faults into);
    - the protection registry ([lz_prot] state) and the W⊕X /
      sanitizer state per physical frame.

    Traps reach the module in two ways, both via EL2: direct HVCs
    (syscall forwarding, vector-stub exception forwarding) and
    stage-2 aborts. The [Host] backend charges the host-kernel trap
    costs with the Section 5.2.1 register-retention optimization; the
    [Guest] backend charges the Lowvisor nested-forwarding path. *)

type backend = Host | Guest of Lowvisor.t

type outcome =
  | Exited of int
  | Terminated of string  (** isolation violation detected. *)
  | Limit_reached

type shadow_state
(** One process's shadow registry (protection registry, domain
    membership, sanitized-frame set, signal state) as an immutable
    value: holding one costs a pointer, and nothing the live registry
    does later can reach it. *)

type t = {
  kernel : Lz_kernel.Kernel.t;
  proc : Lz_kernel.Proc.t;
  core : Lz_cpu.Core.t;
  machine : Lz_kernel.Machine.t;
  backend : backend;
  scalable : bool;
  san_mode : Sanitizer.mode;
  vmid : int;
  s2_root : int;
  fake : Fake_phys.t;
  ttbr1 : Lz_table.t;
  gatetab_pa : int;
  ttbrtab_pa : int;
  pgts : Lz_table.t Zone_tab.t;
  asids : Asid_alloc.t;
  asid_pgt : int array ref;
      (** asid -> pgt id + 1 (0 = none): O(1) TTBR0-to-zone
          resolution on the fault path. Covers at least every live
          ASID: {!enter} sizes it to the ASID space, {!rebuild_asid_index}
          to the largest live ASID, and a registration past its end
          grows it. *)
  shadow : shadow_state ref;
      (** The live registry. Every mutation replaces the value, so a
          machine snapshot captures it by reading the cell and
          restores it by writing the cell, in O(1); a fork's record
          gets its own cell. Thread records ({!new_thread}) share
          this one. *)
  mutable terminated : string option;
  mutable traps : int;
  mutable syscall_traps : int;
  mutable fault_traps : int;
  mutable irq_traps : int;
      (** asynchronous interrupts fielded at EL2 (HCR_EL2.IMO). *)
  mutable on_irq : (Lz_cpu.Core.t -> int -> unit) option;
      (** called with the acknowledged INTID between GIC ack and EOI
          of every interrupt the module fields — the preemption hook.
          Sources left asserted are quiesced before EOI; queued
          signals are delivered before the resuming ERET. *)
  mutable on_quiescent : (unit -> unit) option;
      (** called by {!run} after each trap (or fielded interrupt) has
          been fully serviced and the resuming ERET executed — the
          machine is at a clean, resumable architectural state.
          Periodic snapshot recorders hook here: mid-handler OCaml
          control flow is not machine state and cannot be captured. *)
}

val enter :
  ?backend:backend ->
  ?asid_bits:int ->
  allow_scalable:bool ->
  san_mode:Sanitizer.mode ->
  vmid:int ->
  entry:int ->
  sp:int ->
  Lz_kernel.Kernel.t -> Lz_kernel.Proc.t -> t
(** Put [proc] into LightZone: build the VM, the TTBR1 region and
    pgt 0, and return the module handle whose [core] is ready to run
    at EL1 from [entry]. The paper's [lz_enter]. [asid_bits]
    (default 14, the full TTBR field) narrows the per-VM ASID space —
    tests and benchmarks pass a small value to force generation
    rollover quickly. *)

(** {1 The Table 2 API, module side} *)

val lz_alloc : t -> int
(** Allocate a stage-1 page table; returns its identifier. *)

val lz_free : t -> int -> unit

val lz_prot : t -> addr:int -> len:int -> pgt:int -> perm:Perm.t -> unit
(** Attach a page-aligned region to a page table with a permission
    overlay. [pgt = Perm.pgt_all] with [Perm.user] set = PAN-protected
    domain attached to every table. *)

val lz_map_gate_pgt : t -> pgt:int -> gate:int -> unit

val register_gate_entry : t -> gate:int -> entry:int -> unit
(** Record the legitimate entry (the return address of a
    [lz_switch_to_ttbr_gate] site) in GateTab. With a tracer attached,
    also places a [Gate_exit] marker at the entry. *)

val set_tracer : t -> Lz_trace.Trace.t option -> unit
(** Attach an event tracer to the process's core and TLB, and place PC
    markers at every gate's entry and check-phase addresses so gate
    passes decompose into Fig. 2 phases ① and ②. Attach before
    registering gate entries so return sites get [Gate_exit] markers
    too. *)

(** {1 Running} *)

val run : ?max_insns:int -> t -> outcome

val set_current_pgt : t -> int -> unit
(** Point TTBR0 at a page table without passing through a gate —
    kernel-module-side helper for accounting and tests. *)

val prefault : t -> va:int -> access:Lz_mem.Mmu.access -> unit
(** Run the demand-fault handler for [va] in the current page table,
    as if the process had touched it (steady-state accounting). *)

val alias_leaf_table : t -> pgt:int -> va:int -> at:int -> unit
(** The PTE-poking set-up (the pentest and the fuzz oracle's
    pte-poke case): fault [va] into table [pgt] if it is not mapped
    there, then map the level-3 table page that translates it into
    pgt 0 at [at] as writable data, and leave TTBR0 on pgt 0. Stage 1
    then allows a store through [at]; the read-only stage-2 mapping of
    table frames must catch it. *)

(** {1 Signals (paper Section 6)}

    "PAN and TTBR0 are added in the signal contexts of the kernel for
    correct signal handling": when a signal interrupts a LightZone
    process, the kernel-managed signal frame captures the interrupted
    PC, PSTATE (including PAN) and TTBR0_EL1; the handler starts in
    the default page table with PAN set, and [hvc #2] (sigreturn)
    restores the interrupted context exactly — open domains stay open
    across signals, and a handler cannot inherit them. *)

val new_thread : t -> entry:int -> sp:int -> t
(** A new thread of the same LightZone process (paper Table 2:
    lz_enter covers "the calling thread and its forked new threads").
    The returned handle shares every piece of process state — page
    tables, stage 2, protection registry, gate tables, the Linux
    process — but owns its architectural context: its own core with
    its own TTBR0 (starting in pgt 0) and its own PSTATE.PAN. Run it
    with {!run} like the main handle; a violation on any thread
    terminates the (shared) process. *)

val queue_signal : t -> handler:int -> unit
(** Deliver a signal at the next trap boundary: the handler (a
    function in the process image ending in [hvc #2]) runs with
    TTBR0 = pgt 0 and PAN = 1. *)

val pending_signals : t -> int

val pgt_ttbr : t -> int -> int
(** TTBR value of a page table (what TTBRTab holds) — for tests. *)

val table_memory_frames : t -> int
(** Frames consumed by LightZone page tables (memory-overhead
    accounting, Section 9): {!Lz_table.frames} of every live table
    and of the TTBR1 table, a walk of each tree. *)

(** {1 Snapshot support} *)

val rebuild_asid_index : t -> unit
(** Recompute [asid_pgt] from [pgts], sized to the largest live ASID
    + 1 — call after snapshot restore or forking replaces the zone
    table wholesale. *)

val install_sync_hooks : t -> unit
(** (Re)bind [proc.on_unmap]/[on_protect] to this module handle.
    {!enter} does this; a forked machine calls it again so its copied
    process record synchronizes its own LightZone views. *)

val pp_outcome : Format.formatter -> outcome -> unit
