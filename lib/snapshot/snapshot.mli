(** Whole-machine snapshot/restore with copy-on-write memory, machine
    forking, and deterministic replay.

    A snapshot of a LightZone machine ({!Lightzone.Kmod.t}) captures
    every architecturally observable piece of state — general
    registers, PSTATE, the system-register file, cycle/instruction
    counters, the TLB image and statistics, PMU counters, GIC/timer
    latches, physical memory — plus the software state shadowing it
    (kernel bookkeeping, the process image, the module's page-table
    registry, fake-address assignments and protection shadow).

    Physical memory is held as a copy-on-write frame map: capturing
    pins frames by refcount, holding an image costs O(frame map), and
    {!restore} is O(dirty frames). Generation counters (CoW page
    generations, sysreg MMU/debug generations, the TLB mutation
    generation) are bumped {e forward} on restore, never rewound, so
    caches built in the abandoned timeline can never revalidate
    against stale content.

    Restore is architecturally exact: re-running from a restored
    image reproduces registers, memory, retired-instruction and cycle
    counts, and TLB statistics bit-identically (the snapshot property
    tests gate this). *)

(** {1 Core context} *)

type core_state
(** Architectural CPU context: the task context of
    {!Lz_cpu.Core.save_context} (registers, PC, SPs, PSTATE in its
    lossless SPSR form, sysregs), cycle/instruction counters, EL1
    routing and engine, TLB image, PMU and GIC/timer state. *)

val capture_core : Lz_cpu.Core.t -> core_state

val restore_core : Lz_cpu.Core.t -> core_state -> unit
(** Restore in place, TLB included, and reset the fast-path
    caches. *)

(** {1 Whole-machine snapshots} *)

type t

val capture : Lightzone.Kmod.t -> t
(** Capture the machine. No frame contents are copied; memory is
    pinned copy-on-write. The zone must be at a quiescent point (not
    mid-trap-handler) — hook {!Lightzone.Kmod.t.on_quiescent} to
    capture mid-run. *)

val restore : Lightzone.Kmod.t -> t -> int
(** Rewind the machine to the image, in place. Returns the number of
    dirty frames (the memory restore work was proportional to it).
    The snapshot stays live and can be restored again, or forked.
    The tracer attachment and its ring are left untouched
    (observability, not machine state). *)

val release : Lightzone.Kmod.t -> t -> unit
(** Drop the image's memory pins. The snapshot must not be used
    again. *)

val dirty_pages : Lightzone.Kmod.t -> t -> int
(** Frames diverged from the image, without restoring. *)

val same_frame : Lightzone.Kmod.t -> t -> int -> bool
(** [same_frame z s n]: frame number [n] of [z] (the machine the image
    was captured from, or a {!fork} of it) still holds the image's
    contents — {!Lz_mem.Phys.same_frame} on the machine's memory. *)

(** {1 Forking}

    One warm image, many instances: {!fork} stamps out an independent
    machine from a snapshot. The fork shares all frame contents
    copy-on-write with the image and the source; each side unshares
    per-frame as it writes. *)

val fork : Lightzone.Kmod.t -> t -> Lightzone.Kmod.t
(** [fork z s] builds an empty shell — its own copy-on-write physical
    view, TLB, core, and fresh process, kernel and zone containers —
    and runs the same restore {!restore} runs to make it equal image
    [s] of zone [z]. The one step only a fork takes is its VMID: a
    fresh one (same stage-2 tree, re-tagged VTTBR), with the image's
    TLB adopted under it (entries retagged — LightZone's
    lazily-mapped global pages make the TLB semi-architectural, so a
    cold fork would re-fault and diverge). Page-table records are
    plain values shared by the source, the image and every fork; each
    reads them through its own memory view and fake-address handle.
    The [on_irq]/[on_quiescent]/[custom_trap]/[on_tick] hooks are not
    carried over (they close over the source machine); reattach on
    the fork if needed. Raises [Invalid_argument] for Lowvisor-backed
    (guest) zones.

    VMIDs come from {!Lightzone.Api.alloc_fork_vmid}: recycled from
    the release pool when available, else fresh from the counter. *)

val retire_fork : Lightzone.Kmod.t -> unit
(** Give a finished fork's memory back ({!Lz_mem.Phys.drop_view}:
    every slot only the fork held returns to the shared store) and
    its VMID to the pool (flushing its TLB context first). Call once,
    on handles {!fork} returned, after also {!release}-ing any
    snapshots taken of the fork — this is what keeps a
    fork-per-connection fleet from growing the store or exhausting
    the VMID space. The fork must not run again. *)

(** {1 Periodic snapshots and deterministic replay} *)

module Replay : sig
  type recorder

  val record : every:int -> Lightzone.Kmod.t -> recorder
  (** Install a periodic snapshot recorder: one snapshot now, then —
      via the zone's [on_quiescent] hook — another after each [every]
      fielded interrupts (preemption slices). *)

  val detach : recorder -> unit
  (** Stop recording (keeps the snapshots). *)

  val snapshots : recorder -> (int * t) list
  (** Captured snapshots, oldest first, keyed by the tracer sequence
      number (events emitted so far) at capture. *)

  val release_all : recorder -> unit

  val replay_to : recorder -> index:int -> Lz_trace.Trace.event list
  (** Time travel: restore the nearest snapshot at or before tracer
      sequence number [index], re-execute deterministically until the
      replay ring has emitted past [index], then restore the machine
      to its pre-call state. Returns the replayed events (sequence
      numbers continue from the snapshot's mark); a deterministic
      machine makes them byte-identical to the reference ring's
      events over the same sequence range. Raises [Invalid_argument]
      if no tracer is attached or no snapshot precedes [index]. *)
end
