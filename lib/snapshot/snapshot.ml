(* Whole-machine snapshot/restore with copy-on-write memory.

   A snapshot captures everything the simulated machine can observe:
   general registers, PSTATE, the system-register file, cycle and
   instruction counters, the TLB image and its statistics, PMU
   counters, GIC/timer latches, physical memory (as a CoW frame map —
   O(map) to hold, O(dirty) to restore), and the software state that
   shadows it: kernel bookkeeping, the process image (VMAs, output,
   fault counters), and the LightZone module's page-table registry,
   fake-address assignments and protection shadow.

   Two consumers:
   - [restore] rewinds the same machine in place (replay, debugging,
     the snapshot-transparency property tests);
   - [fork] stamps out an independent machine from the image under a
     fresh VMID (fleet serving: one warm image, N cheap instances): an
     empty shell, made equal to the image by the restore [restore]
     runs.

   Generation counters are never rewound by restore — the CoW layer,
   the sysreg file and the TLB all bump theirs forward — so decode,
   superblock and micro-TLB caches built in the abandoned timeline
   can never revalidate against stale content (the ABA hazard). *)

open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel
open Lightzone
module Trace = Lz_trace.Trace

(* ------------------------------------------------------------------ *)
(* Core (architectural CPU context) *)

type core_state = {
  cs_ctx : Core.context;  (* registers, PC, SPs, PSTATE, sysregs *)
  cs_cycles : int;
  cs_insns : int;
  cs_route : bool;
  cs_engine : Core.engine;
  cs_tlb : Tlb.state;
  cs_pmu : Pmu.state option;
  cs_gic : Lz_irq.Gic.state option;
  cs_timer : Lz_irq.Timer.state option;
}

let capture_core (core : Core.t) =
  let gic, timer =
    match Core.irq core with
    | Some iv ->
        ( Some (Lz_irq.Gic.capture iv.Lz_irq.Irq.gic),
          Some (Lz_irq.Timer.capture iv.Lz_irq.Irq.timer) )
    | None -> (None, None)
  in
  {
    cs_ctx = Core.save_context core;
    cs_cycles = core.Core.cycles;
    cs_insns = core.Core.insns;
    cs_route = core.Core.route_el1_to_harness;
    cs_engine = Core.engine core;
    cs_tlb = Tlb.capture core.Core.tlb;
    cs_pmu = Option.map Pmu.capture (Core.pmu core);
    cs_gic = gic;
    cs_timer = timer;
  }

(* [retag] is for forks: the warm image's TLB is adopted under the
   fork's own VMID. *)
let load_core ?retag (core : Core.t) cs =
  Core.load_context core cs.cs_ctx;
  core.Core.cycles <- cs.cs_cycles;
  core.Core.insns <- cs.cs_insns;
  core.Core.route_el1_to_harness <- cs.cs_route;
  Tlb.restore ?retag core.Core.tlb cs.cs_tlb;
  (match cs.cs_pmu with
  | Some st -> Pmu.restore (Core.attach_pmu core) st
  | None -> ());
  (match (cs.cs_gic, cs.cs_timer) with
  | Some gs, Some ts ->
      let iv = Core.attach_irq core in
      Lz_irq.Gic.restore iv.Lz_irq.Irq.gic gs;
      Lz_irq.Timer.restore iv.Lz_irq.Irq.timer ts
  | _ -> (
      (* The snapshot predates any interrupt fabric. We cannot detach
         one attached since; silence its timer so the abandoned
         timeline's deadline cannot fire into the restored one. *)
      match Core.irq core with
      | Some iv -> Lz_irq.Timer.stop iv.Lz_irq.Irq.timer
      | None -> ()));
  (* Reset the fast-path caches (decode cache, superblocks, micro-TLBs,
     memoized MMU context): set_engine rebuilds them from scratch. *)
  Core.set_engine core cs.cs_engine

let restore_core core cs = load_core core cs

(* ------------------------------------------------------------------ *)
(* Whole machine *)

type t = {
  s_phys : Phys.snapshot;
  s_core : core_state;
  (* kernel *)
  k_next_pid : int;
  k_next_asid : int;
  k_s2_ctx : (int * int) option;
  k_syscall_count : int;
  s_proc : Proc.state;
  (* module *)
  z_pgt_free : int list;  (* Zone_tab free list, verbatim (LIFO) *)
  z_pgt_next : int;       (* Zone_tab high-water mark *)
  z_asids : Asid_alloc.state;
  z_terminated : string option;
  z_traps : int;
  z_syscall_traps : int;
  z_fault_traps : int;
  z_irq_traps : int;
  z_pgts : (int * Lz_table.t) list;  (* plain values, shared *)
  z_fake : Fake_phys.state;
  z_shadow : Kmod.shadow_state;
  (* tracer position (ring contents are observability, not state) *)
  s_trace : int option;  (* the tracer's [total] *)
}

let capture (z : Kmod.t) =
  let kernel = z.Kmod.kernel in
  {
    s_phys = Phys.snapshot z.Kmod.machine.Machine.phys;
    s_core = capture_core z.Kmod.core;
    k_next_pid = kernel.Kernel.next_pid;
    k_next_asid = kernel.Kernel.next_asid;
    k_s2_ctx = kernel.Kernel.s2_ctx;
    k_syscall_count = kernel.Kernel.syscall_count;
    s_proc = Proc.capture z.Kmod.proc;
    z_pgt_free = Zone_tab.free_ids z.Kmod.pgts;
    z_pgt_next = Zone_tab.high_water z.Kmod.pgts;
    z_asids = Asid_alloc.capture z.Kmod.asids;
    z_terminated = z.Kmod.terminated;
    z_traps = z.Kmod.traps;
    z_syscall_traps = z.Kmod.syscall_traps;
    z_fault_traps = z.Kmod.fault_traps;
    z_irq_traps = z.Kmod.irq_traps;
    z_pgts = Zone_tab.fold (fun id tbl acc -> (id, tbl) :: acc) z.Kmod.pgts [];
    z_fake = Fake_phys.capture z.Kmod.fake;
    z_shadow = !(z.Kmod.shadow);
    s_trace =
      (match Core.tracer z.Kmod.core with
      | Some tr -> Some (Trace.total tr)
      | None -> None);
  }

(* Make [z] equal the image: the one path both [restore] and [fork]
   take. *)
let restore_into ?retag (z : Kmod.t) s =
  let dirty = Phys.restore z.Kmod.machine.Machine.phys s.s_phys in
  load_core ?retag z.Kmod.core s.s_core;
  let kernel = z.Kmod.kernel in
  kernel.Kernel.next_pid <- s.k_next_pid;
  kernel.Kernel.next_asid <- s.k_next_asid;
  kernel.Kernel.s2_ctx <- s.k_s2_ctx;
  kernel.Kernel.syscall_count <- s.k_syscall_count;
  Proc.restore z.Kmod.proc s.s_proc;
  z.Kmod.terminated <- s.z_terminated;
  z.Kmod.traps <- s.z_traps;
  z.Kmod.syscall_traps <- s.z_syscall_traps;
  z.Kmod.fault_traps <- s.z_fault_traps;
  z.Kmod.irq_traps <- s.z_irq_traps;
  (* Exact structural restore: the free list and allocator state come
     back verbatim so post-restore zone churn recycles the very same
     ids/ASIDs the captured timeline would have (snapshot
     transparency). *)
  Zone_tab.restore_exact z.Kmod.pgts ~slots:s.z_pgts ~free:s.z_pgt_free
    ~next:s.z_pgt_next;
  Asid_alloc.restore z.Kmod.asids s.z_asids;
  Kmod.rebuild_asid_index z;
  Fake_phys.restore z.Kmod.fake s.z_fake;
  z.Kmod.shadow := s.z_shadow;
  dirty

let restore z s = restore_into z s

let release (z : Kmod.t) s = Phys.release z.Kmod.machine.Machine.phys s.s_phys

let dirty_pages (z : Kmod.t) s =
  Phys.dirty_pages z.Kmod.machine.Machine.phys s.s_phys

let same_frame (z : Kmod.t) s n =
  Phys.same_frame z.Kmod.machine.Machine.phys s.s_phys n

(* ------------------------------------------------------------------ *)
(* Forking *)

(* A fork is an empty shell restored from the image. The shell owns
   everything a machine writes: a copy-on-write memory view, a TLB, a
   core, and fresh process, kernel and zone containers (the page-table
   records themselves are plain values the image shares). Only the
   VMID is the fork's own: the warm image's TLB is adopted retagged
   rather than rebuilt, because LightZone maps unprotected pages
   lazily per page table and relies on their global TLB entries
   surviving gate switches (paper Section 8.2), so a cold-TLB fork
   would re-fault and diverge from the image's timeline, cycles
   included. *)
let fork (z : Kmod.t) s =
  (match z.Kmod.backend with
  | Kmod.Host -> ()
  | Kmod.Guest _ ->
      invalid_arg "Snapshot.fork: guest (Lowvisor-backed) zones cannot fork");
  let vmid = Api.alloc_fork_vmid () in
  let phys = Phys.cow_clone z.Kmod.machine.Machine.phys in
  let tlb = Tlb.create ~capacity:(Tlb.capacity z.Kmod.machine.Machine.tlb) () in
  let machine = { z.Kmod.machine with Machine.phys; tlb } in
  let core = Core.create phys tlb machine.Machine.cost Pstate.EL1 in
  let proc =
    { z.Kmod.proc with
      Proc.machine; output = Buffer.create 16; on_map = None;
      on_unmap = None; on_protect = None }
  in
  let kernel =
    { z.Kmod.kernel with
      Kernel.machine; procs = [ proc ];
      alloc_frame = (fun () -> Phys.alloc_frame phys);
      custom_trap = None; on_tick = None }
  in
  let f =
    { z with
      Kmod.kernel; proc; core; machine; vmid;
      fake = Fake_phys.clone z.Kmod.fake;
      pgts = Zone_tab.create ();
      asids =
        Asid_alloc.create ~bits:(Asid_alloc.state_bits s.z_asids)
          ~flush:(fun () -> Tlb.flush_vmid tlb vmid)
          ();
      asid_pgt = ref [||];
      shadow = ref !(z.Kmod.shadow);
      on_irq = None; on_quiescent = None }
  in
  ignore (restore_into ~retag:(z.Kmod.vmid, vmid) f s);
  (* The fork is its own VM: same stage-2 tree (same frame numbers in
     the cloned view), fresh VMID so its TLB/retention tags are its
     own. *)
  Sysreg.write core.Core.sys Sysreg.VTTBR_EL2
    (Mmu.ttbr_value ~root:z.Kmod.s2_root ~asid:vmid);
  Kmod.install_sync_hooks f;
  f

(* Retire a fork: flush its VM's TLB context, give its memory view's
   slots back to the shared store and return the VMID to the fork
   pool. A fork owns a private machine (its own TLB), so the flush is
   belt-and-braces; the dropped view is what keeps the store at the
   image plus the live forks, and the pooled VMID is what a 4096-fork
   connection-churn fleet needs — without it the 16-bit VMID space
   marches to exhaustion. Only call on handles [fork] returned, and
   only once, after the fork is done running. *)
let retire_fork (z : Kmod.t) =
  Tlb.flush_vmid z.Kmod.machine.Machine.tlb z.Kmod.vmid;
  Phys.drop_view z.Kmod.machine.Machine.phys;
  Api.release_vmid z.Kmod.vmid

(* ------------------------------------------------------------------ *)
(* Periodic snapshots + deterministic replay *)

module Replay = struct
  type entry = { at_total : int; snap : t }

  type recorder = {
    zone : Kmod.t;
    every : int;
    mutable last_mark : int;
    mutable entries : entry list;  (* newest first *)
  }

  let take r =
    let snap = capture r.zone in
    let at_total = Option.value snap.s_trace ~default:0 in
    r.entries <- { at_total; snap } :: r.entries

  let record ~every zone =
    if every <= 0 then invalid_arg "Replay.record: every must be positive";
    let r = { zone; every; last_mark = zone.Kmod.irq_traps; entries = [] } in
    take r;
    zone.Kmod.on_quiescent <-
      Some
        (fun () ->
          if zone.Kmod.irq_traps - r.last_mark >= r.every then begin
            r.last_mark <- zone.Kmod.irq_traps;
            take r
          end);
    r

  let detach r = r.zone.Kmod.on_quiescent <- None

  let snapshots r = List.rev_map (fun e -> (e.at_total, e.snap)) r.entries

  let release_all r =
    List.iter (fun e -> release r.zone e.snap) r.entries;
    r.entries <- []

  let replay_to r ~index =
    let zone = r.zone in
    let tr =
      match Core.tracer zone.Kmod.core with
      | Some tr -> tr
      | None -> invalid_arg "Replay.replay_to: zone has no tracer attached"
    in
    let entry =
      List.fold_left
        (fun best e ->
          if e.at_total <= index then
            match best with
            | Some b when b.at_total >= e.at_total -> best
            | _ -> Some e
          else best)
        None r.entries
    in
    match entry with
    | None -> invalid_arg "Replay.replay_to: no snapshot at or before index"
    | Some e ->
        let saved_hook = zone.Kmod.on_quiescent in
        zone.Kmod.on_quiescent <- None;
        (* Park the present so we can come back to it. *)
        let now = capture zone in
        ignore (restore zone e.snap);
        (* Fresh ring seeded with the capture-time sequence counter:
           replayed events compare byte-identical against the reference
           ring's suffix. *)
        let clone = Trace.clone_config ?total:e.snap.s_trace tr in
        Kmod.set_tracer zone (Some clone);
        let live = ref true in
        while !live && Trace.total clone <= index do
          match Kmod.run ~max_insns:50_000 zone with
          | Kmod.Limit_reached -> ()
          | Kmod.Exited _ | Kmod.Terminated _ -> live := false
        done;
        let events = Trace.events clone in
        ignore (restore zone now);
        release zone now;
        Kmod.set_tracer zone (Some tr);
        zone.Kmod.on_quiescent <- saved_hook;
        events
end
