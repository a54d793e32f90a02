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
     fresh VMID (fleet serving: one warm image, N cheap instances).

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
  cs_regs : int array;
  cs_pc : int;
  cs_sp0 : int;
  cs_sp1 : int;
  cs_pstate : Pstate.t;
  cs_sys : Sysreg.file;
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
    cs_regs = Array.copy core.Core.regs;
    cs_pc = core.Core.pc;
    cs_sp0 = core.Core.sp_el0;
    cs_sp1 = core.Core.sp_el1;
    cs_pstate = Pstate.copy core.Core.pstate;
    cs_sys = Sysreg.copy_file core.Core.sys;
    cs_cycles = core.Core.cycles;
    cs_insns = core.Core.insns;
    cs_route = core.Core.route_el1_to_harness;
    cs_engine = Core.engine core;
    cs_tlb = Tlb.capture core.Core.tlb;
    cs_pmu = Option.map Pmu.capture (Core.pmu core);
    cs_gic = gic;
    cs_timer = timer;
  }

let restore_pstate (dst : Pstate.t) (src : Pstate.t) =
  dst.Pstate.el <- src.Pstate.el;
  dst.Pstate.pan <- src.Pstate.pan;
  dst.Pstate.n <- src.Pstate.n;
  dst.Pstate.z <- src.Pstate.z;
  dst.Pstate.c <- src.Pstate.c;
  dst.Pstate.v <- src.Pstate.v;
  dst.Pstate.daif <- src.Pstate.daif;
  dst.Pstate.sp_sel <- src.Pstate.sp_sel

(* [tlb] is off for forks: a forked machine starts with a cold TLB of
   the same geometry (migration semantics — misses re-walk restored
   page tables, so no architectural state depends on it). *)
let restore_core ?(tlb = true) (core : Core.t) cs =
  Array.blit cs.cs_regs 0 core.Core.regs 0 (Array.length cs.cs_regs);
  core.Core.pc <- cs.cs_pc;
  core.Core.sp_el0 <- cs.cs_sp0;
  core.Core.sp_el1 <- cs.cs_sp1;
  restore_pstate core.Core.pstate cs.cs_pstate;
  Sysreg.restore_file ~src:cs.cs_sys ~dst:core.Core.sys;
  core.Core.cycles <- cs.cs_cycles;
  core.Core.insns <- cs.cs_insns;
  core.Core.route_el1_to_harness <- cs.cs_route;
  if tlb then Tlb.restore core.Core.tlb cs.cs_tlb;
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
  (* process *)
  p_vmas : Vma.t list;  (* deep copies *)
  p_exit_code : int option;
  p_killed : string option;
  p_fault_count : int;
  p_mmap_hint : int;
  p_output : string;
  (* module *)
  z_pgt_free : int list;  (* Zone_tab free list, verbatim (LIFO) *)
  z_pgt_next : int;       (* Zone_tab high-water mark *)
  z_asids : Asid_alloc.state;
  z_terminated : string option;
  z_traps : int;
  z_syscall_traps : int;
  z_fault_traps : int;
  z_irq_traps : int;
  z_pgts : (int * Lz_table.t * int) list;  (* id, table, table_frames *)
  z_ttbr1_frames : int;
  z_fake : Fake_phys.state;
  z_shadow : Kmod.shadow_state;
  (* tracer position (ring contents are observability, not state) *)
  s_trace : int option;  (* the tracer's [total] *)
}

let copy_vma (v : Vma.t) = { v with Vma.prot = v.Vma.prot }
let copy_vmas l = List.map copy_vma l

let capture (z : Kmod.t) =
  let kernel = z.Kmod.kernel and proc = z.Kmod.proc in
  {
    s_phys = Phys.snapshot z.Kmod.machine.Machine.phys;
    s_core = capture_core z.Kmod.core;
    k_next_pid = kernel.Kernel.next_pid;
    k_next_asid = kernel.Kernel.next_asid;
    k_s2_ctx = kernel.Kernel.s2_ctx;
    k_syscall_count = kernel.Kernel.syscall_count;
    p_vmas = copy_vmas proc.Proc.vmas;
    p_exit_code = proc.Proc.exit_code;
    p_killed = proc.Proc.killed;
    p_fault_count = proc.Proc.fault_count;
    p_mmap_hint = proc.Proc.mmap_hint;
    p_output = Buffer.contents proc.Proc.output;
    z_pgt_free = Zone_tab.free_ids z.Kmod.pgts;
    z_pgt_next = Zone_tab.high_water z.Kmod.pgts;
    z_asids = Asid_alloc.capture z.Kmod.asids;
    z_terminated = z.Kmod.terminated;
    z_traps = z.Kmod.traps;
    z_syscall_traps = z.Kmod.syscall_traps;
    z_fault_traps = z.Kmod.fault_traps;
    z_irq_traps = z.Kmod.irq_traps;
    z_pgts =
      Zone_tab.fold
        (fun id tbl acc -> (id, tbl, tbl.Lz_table.table_frames) :: acc)
        z.Kmod.pgts [];
    z_ttbr1_frames = z.Kmod.ttbr1.Lz_table.table_frames;
    z_fake = Fake_phys.capture z.Kmod.fake;
    z_shadow = !(z.Kmod.shadow);
    s_trace =
      (match Core.tracer z.Kmod.core with
      | Some tr -> Some (Trace.total tr)
      | None -> None);
  }

let restore (z : Kmod.t) s =
  let dirty = Phys.restore z.Kmod.machine.Machine.phys s.s_phys in
  restore_core z.Kmod.core s.s_core;
  let kernel = z.Kmod.kernel and proc = z.Kmod.proc in
  kernel.Kernel.next_pid <- s.k_next_pid;
  kernel.Kernel.next_asid <- s.k_next_asid;
  kernel.Kernel.s2_ctx <- s.k_s2_ctx;
  kernel.Kernel.syscall_count <- s.k_syscall_count;
  proc.Proc.vmas <- copy_vmas s.p_vmas;
  proc.Proc.exit_code <- s.p_exit_code;
  proc.Proc.killed <- s.p_killed;
  proc.Proc.fault_count <- s.p_fault_count;
  proc.Proc.mmap_hint <- s.p_mmap_hint;
  Buffer.clear proc.Proc.output;
  Buffer.add_string proc.Proc.output s.p_output;
  z.Kmod.terminated <- s.z_terminated;
  z.Kmod.traps <- s.z_traps;
  z.Kmod.syscall_traps <- s.z_syscall_traps;
  z.Kmod.fault_traps <- s.z_fault_traps;
  z.Kmod.irq_traps <- s.z_irq_traps;
  (* Exact structural restore: the free list and allocator state come
     back verbatim so post-restore zone churn recycles the very same
     ids/ASIDs the captured timeline would have (snapshot
     transparency). *)
  Zone_tab.restore_exact z.Kmod.pgts
    ~slots:
      (List.map
         (fun (id, tbl, frames) ->
           tbl.Lz_table.table_frames <- frames;
           (id, tbl))
         s.z_pgts)
    ~free:s.z_pgt_free ~next:s.z_pgt_next;
  Asid_alloc.restore z.Kmod.asids s.z_asids;
  Kmod.rebuild_asid_index z;
  z.Kmod.ttbr1.Lz_table.table_frames <- s.z_ttbr1_frames;
  Fake_phys.restore z.Kmod.fake s.z_fake;
  z.Kmod.shadow := s.z_shadow;
  dirty

let release (z : Kmod.t) s = Phys.release z.Kmod.machine.Machine.phys s.s_phys

let dirty_pages (z : Kmod.t) s =
  Phys.dirty_pages z.Kmod.machine.Machine.phys s.s_phys

let same_frame (z : Kmod.t) s n =
  Phys.same_frame z.Kmod.machine.Machine.phys s.s_phys n

(* ------------------------------------------------------------------ *)
(* Forking *)

let fork (z : Kmod.t) s =
  (match z.Kmod.backend with
  | Kmod.Host -> ()
  | Kmod.Guest _ ->
      invalid_arg "Snapshot.fork: guest (Lowvisor-backed) zones cannot fork");
  let vmid = Api.alloc_fork_vmid () in
  (* Memory: clone the view (shares every slot), then rewind the clone
     to the image — both steps are O(frame map), no contents move. *)
  let phys = Phys.cow_clone z.Kmod.machine.Machine.phys in
  ignore (Phys.restore phys s.s_phys);
  let tlb = Tlb.create ~capacity:(Tlb.capacity z.Kmod.machine.Machine.tlb) () in
  let machine =
    { Machine.phys; tlb; cost = z.Kmod.machine.Machine.cost }
  in
  (* Fresh core. The warm image's TLB is adopted under the fork's own
     VMID (retagged, not rebuilt): LightZone maps unprotected pages
     lazily per page table and relies on their *global* TLB entries
     surviving gate switches (paper Section 8.2), so a cold-TLB fork
     would re-fault — observably diverging from the image's timeline.
     Carrying the TLB keeps forks bit-identical to the source, cycles
     included. *)
  let core =
    Core.create ~route_el1_to_harness:s.s_core.cs_route
      ~engine:s.s_core.cs_engine phys tlb machine.Machine.cost
      s.s_core.cs_pstate.Pstate.el
  in
  restore_core ~tlb:false core s.s_core;
  Tlb.restore ~retag:(z.Kmod.vmid, vmid) tlb s.s_core.cs_tlb;
  (* The fork is its own VM: same stage-2 tree (same frame numbers in
     the cloned view), fresh VMID so its TLB/retention tags are its
     own. *)
  Sysreg.write core.Core.sys Sysreg.VTTBR_EL2
    (Mmu.ttbr_value ~root:z.Kmod.s2_root ~asid:vmid);
  let fake = Fake_phys.clone z.Kmod.fake in
  Fake_phys.restore fake s.z_fake;
  let proc =
    {
      Proc.pid = z.Kmod.proc.Proc.pid;
      machine;
      vmas = copy_vmas s.p_vmas;
      root = z.Kmod.proc.Proc.root;
      asid = z.Kmod.proc.Proc.asid;
      output = Buffer.create (max 16 (String.length s.p_output));
      exit_code = s.p_exit_code;
      killed = s.p_killed;
      fault_count = s.p_fault_count;
      mmap_hint = s.p_mmap_hint;
      on_map = None;
      on_unmap = None;
      on_protect = None;
    }
  in
  Buffer.add_string proc.Proc.output s.p_output;
  let kernel =
    {
      z.Kmod.kernel with
      Kernel.machine;
      procs = [ proc ];
      next_pid = s.k_next_pid;
      next_asid = s.k_next_asid;
      s2_ctx = s.k_s2_ctx;
      alloc_frame = (fun () -> Phys.alloc_frame phys);
      custom_trap = None;
      syscall_count = s.k_syscall_count;
      on_tick = None;
    }
  in
  let retable (tbl : Lz_table.t) frames =
    { tbl with Lz_table.phys; fake; table_frames = frames }
  in
  let pgts =
    Zone_tab.of_exact
      ~slots:
        (List.map (fun (id, tbl, frames) -> (id, retable tbl frames)) s.z_pgts)
      ~free:s.z_pgt_free ~next:s.z_pgt_next ()
  in
  let asids =
    Asid_alloc.of_state
      ~bits:(Asid_alloc.state_bits s.z_asids)
      ~flush:(fun () -> Tlb.flush_vmid tlb vmid)
      s.z_asids
  in
  let ttbr1 = retable z.Kmod.ttbr1 s.z_ttbr1_frames in
  let z2 =
    {
      z with
      Kmod.kernel;
      proc;
      core;
      machine;
      vmid;
      fake;
      ttbr1;
      pgts;
      asids;
      asid_pgt = ref [||];
      shadow = ref s.z_shadow;
      terminated = s.z_terminated;
      traps = s.z_traps;
      syscall_traps = s.z_syscall_traps;
      fault_traps = s.z_fault_traps;
      irq_traps = s.z_irq_traps;
      on_irq = None;
      on_quiescent = None;
    }
  in
  Kmod.rebuild_asid_index z2;
  Kmod.install_sync_hooks z2;
  z2

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
