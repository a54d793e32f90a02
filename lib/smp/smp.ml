(* Multi-core machine with SGI-driven TLB shootdown and a
   bounded-sync-quantum driver that runs the same machine either
   sequentially (the oracle) or on parallel host domains.

   Topology: N cores share one physical memory (each core holds a
   {!Lz_mem.Phys.alias} view — same store and frame map, private
   access memo), one GIC distributor (per-core banked redistributors
   attached in slot order, so GIC cpu id = slot id), and per-core
   private TLBs, tracers and generic timers. Each slot runs one EL0
   process under its own kernel instance (or a kernel shared between
   slots for thread-style workloads).

   Execution advances in quanta of Q cycles. Between barriers a core
   interacts with the rest of the machine only through *staged*
   fabric state:

   - Guest cross-core SGIs (ICC_SGI1R_EL1) latch into the target's
     staged bank ({!Lz_irq.Gic.set_staging}) and become pending at the
     next barrier.

   - An inner-shareable TLBI (or the kernel's munmap/mprotect page
     invalidation executed on a core) flushes the local TLB, stages a
     shootdown request, and *stalls* the initiating core — the DVM
     completion wait. At the barrier the request is published into
     every sibling's inbox together with the shootdown SGI; a running
     sibling takes the SGI during its next quantum, applies the
     flushes to its own TLB and stages an ack; a sibling that cannot
     take the IPI (exited, itself stalled, unassigned) is drained by
     the fabric at the barrier — the redistributor handles DVM while
     the core sleeps. The initiator's clock advances one quantum per
     stalled barrier and it resumes once every ack is in.

   Because every cross-core effect is published at a barrier in slot
   order, sequential and parallel drives of the same machine are
   bit-identical for workloads whose cores do not race on shared
   guest memory — the determinism argument of DESIGN.md §15. *)

open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel

let sgi_shootdown = 1

type slot = {
  id : int;
  core : Core.t;
  view : Phys.t;
  iv : Lz_irq.Irq.t;
  tracer : Lz_trace.Trace.t;
  mutable kernel : Kernel.t option;
  mutable proc : Proc.t option;
  mutable outcome : Kernel.outcome option;
  mutable qtarget : int;  (* cycle bound of the current quantum *)
  (* Shootdown fabric. [sd_out]/[acks_out] are staged by this slot's
     own domain during a quantum and drained single-threaded at the
     barrier; [inbox] is written only at barriers and drained by this
     slot. *)
  mutable sd_out : Core.shootdown list;  (* newest first *)
  mutable inbox : (int * Core.shootdown) list;
  mutable acks_out : int list;  (* initiator ids acked this quantum *)
  mutable awaiting : int;  (* acks outstanding as initiator *)
  mutable pool_next : int;  (* private demand-paging frame pool *)
  mutable pool_end : int;
  mutable sd_sent : int;
  mutable sd_received : int;
  mutable stall_barriers : int;
}

type t = {
  phys : Phys.t;  (* setup view; slots hold aliases *)
  cost : Cost_model.t;
  dist : Lz_irq.Gic.dist;
  quantum : int;
  slots : slot array;
  mutable barriers : int;
  mutable finished : bool;
}

let create ?engine ?(quantum = 10_000) ~cores () =
  let cost = Cost_model.cortex_a55 in
  if cores < 1 then invalid_arg "Smp.create: need at least one core";
  if quantum < 1 then invalid_arg "Smp.create: quantum must be positive";
  let phys = Phys.create () in
  let dist = Lz_irq.Gic.create_dist () in
  (* Cross-core SGIs latch aside during quanta in both drive modes, so
     their visibility is barrier-aligned and mode-independent. *)
  Lz_irq.Gic.set_staging dist true;
  let mk i =
    let view = Phys.alias phys in
    let tlb = Tlb.create ~capacity:120 () in
    let core =
      Core.create ~route_el1_to_harness:true ?engine view tlb cost
        Pstate.EL0
    in
    let iv = Core.attach_irq ~dist core in
    Lz_irq.Irq.init iv;
    for s = 0 to 15 do
      Lz_irq.Gic.set_priority iv.Lz_irq.Irq.gic s 0x80;
      Lz_irq.Gic.enable iv.Lz_irq.Irq.gic s
    done;
    assert (Lz_irq.Gic.cpu_id iv.Lz_irq.Irq.gic = i);
    let tracer = Lz_trace.Trace.create () in
    Core.set_tracer core (Some tracer);
    { id = i; core; view; iv; tracer; kernel = None; proc = None;
      outcome = None; qtarget = 0; sd_out = []; inbox = [];
      acks_out = []; awaiting = 0; pool_next = 0; pool_end = 0;
      sd_sent = 0; sd_received = 0; stall_barriers = 0 }
  in
  let t =
    { phys; cost; dist; quantum; slots = Array.init cores mk;
      barriers = 0; finished = false }
  in
  (* On a single core, IS TLBIs stay purely local (exact uniprocessor
     semantics, no stall); with siblings they enter the DVM
     protocol. *)
  if cores > 1 then
    Array.iter
      (fun s ->
        s.core.Core.on_shootdown <-
          Some
            (fun sd ->
              s.sd_out <- sd :: s.sd_out;
              s.core.Core.stall <- true))
      t.slots;
  t

let slot t i = t.slots.(i)

(* A per-slot board for building this core's kernel: the slot's
   physical view and private TLB under the shared cost model. *)
let slot_machine t i =
  let s = t.slots.(i) in
  { Machine.phys = s.view; tlb = s.core.Core.tlb; cost = t.cost }

let slot_of_core t core =
  let rec find i =
    if i >= Array.length t.slots then
      invalid_arg "Smp: core not part of this machine"
    else if t.slots.(i).core == core then t.slots.(i)
    else find (i + 1)
  in
  find 0

let apply_sd tlb = function
  | Core.Sd_vmalle1 vmid -> Tlb.flush_vmid tlb vmid
  | Core.Sd_vae1 { vmid; va } -> Tlb.flush_va tlb ~vmid ~va
  | Core.Sd_aside1 { vmid; asid } -> Tlb.flush_asid tlb ~vmid ~asid

(* IRQ-path drain: the core took the shootdown SGI; apply the staged
   flushes to its own TLB and stage acks for the barrier. *)
let drain_inbox s =
  List.iter
    (fun (from, sd) ->
      apply_sd s.core.Core.tlb sd;
      s.sd_received <- s.sd_received + 1;
      s.acks_out <- from :: s.acks_out)
    s.inbox;
  s.inbox <- []

let assign ?(pool = 2048) t i kernel (proc : Proc.t) ~entry ~sp =
  let s = t.slots.(i) in
  if s.kernel <> None then invalid_arg "Smp.assign: slot already assigned";
  s.kernel <- Some kernel;
  s.proc <- Some proc;
  (* Private frame pool: demand faults serviced on this core draw
     from a pre-carved contiguous region, so the frames a page gets
     are independent of which host domain faulted first. [pool = 0]
     keeps the kernel's existing allocator (thread-style slots sharing
     a kernel set the pool on the first slot only). *)
  if pool > 0 then begin
    let base = Phys.alloc_frames t.phys pool in
    s.pool_next <- base;
    s.pool_end <- base + (pool * Phys.page_size);
    kernel.Kernel.alloc_frame <-
      (fun () ->
        if s.pool_next >= s.pool_end then
          failwith "Smp: core frame pool exhausted";
        let pa = s.pool_next in
        s.pool_next <- s.pool_next + Phys.page_size;
        pa)
  end;
  (* Chain the shootdown-IPI drain into the kernel's tick hook: the
     remote core acknowledges the SGI at its own CPU interface and the
     handler applies the staged invalidations. *)
  let prev = kernel.Kernel.on_tick in
  kernel.Kernel.on_tick <-
    Some
      (fun core intid ->
        (match prev with Some f -> f core intid | None -> ());
        if intid = sgi_shootdown then drain_inbox (slot_of_core t core));
  Sysreg.write s.core.Core.sys Sysreg.TTBR0_EL1
    (Mmu.ttbr_value ~root:proc.Proc.root ~asid:proc.Proc.asid);
  Sysreg.write s.core.Core.sys Sysreg.HCR_EL2
    (Sysreg.Hcr.tge lor Sysreg.Hcr.e2h);
  s.core.Core.pc <- entry;
  s.core.Core.sp_el0 <- sp

(* ------------------------------------------------------------------ *)
(* The quantum driver *)

let runnable s =
  s.kernel <> None && s.outcome = None && not s.core.Core.stall

(* Run the slot's core until its clock reaches the quantum bound, it
   stalls on a DVM wait, or its process finishes. Every insn costs at
   least a cycle under the shipped cost models, so [max_insns =
   cycles left] cannot overshoot the bound; the [before] check guards
   a hypothetical zero-cost model against spinning. *)
let run_quantum t s =
  if runnable s then begin
    let core = s.core in
    let kernel = Option.get s.kernel and proc = Option.get s.proc in
    s.qtarget <- core.Core.cycles + t.quantum;
    let rec go () =
      if s.outcome <> None || core.Core.stall then ()
      else begin
        let left = s.qtarget - core.Core.cycles in
        if left > 0 then begin
          let before = core.Core.cycles in
          match Core.run ~max_insns:left core with
          | Core.Limit -> if core.Core.cycles > before then go ()
          | Core.Stall -> ()
          | Core.Trap_el2 cls -> handle cls ~at:Pstate.EL2
          | Core.Trap_el1 cls -> handle cls ~at:Pstate.EL1
        end
      end
    and handle cls ~at =
      match Kernel.service_trap kernel proc core cls ~at with
      | `Stop o -> s.outcome <- Some o
      | `Continue -> (
          match proc.Proc.exit_code with
          | Some code -> s.outcome <- Some (Kernel.Exited code)
          | None ->
              (match at with
              | Pstate.EL2 -> Core.eret_from_el2 core
              | _ -> Core.eret_from_el1 core);
              go ())
    in
    go ()
  end

(* Barrier: single-threaded (the parallel driver parks every other
   domain first), deterministic slot order throughout. *)
let barrier_work ~max_insns t =
  t.barriers <- t.barriers + 1;
  let n = Array.length t.slots in
  (* 1. Acks staged by cores that took the shootdown IPI. *)
  Array.iter
    (fun s ->
      List.iter
        (fun from ->
          t.slots.(from).awaiting <- t.slots.(from).awaiting - 1)
        (List.rev s.acks_out);
      s.acks_out <- [])
    t.slots;
  (* 2. Publish this quantum's shootdown requests: sibling inboxes
     plus the shootdown SGI on their redistributors. *)
  Array.iter
    (fun s ->
      List.iter
        (fun sd ->
          for j = 0 to n - 1 do
            if j <> s.id then begin
              t.slots.(j).inbox <- t.slots.(j).inbox @ [ (s.id, sd) ];
              Lz_irq.Gic.raise_sgi t.slots.(j).iv.Lz_irq.Irq.gic
                sgi_shootdown
            end
          done;
          s.awaiting <- s.awaiting + (n - 1);
          s.sd_sent <- s.sd_sent + 1)
        (List.rev s.sd_out);
      s.sd_out <- [])
    t.slots;
  (* 3. Staged guest SGIs become pending. *)
  Array.iter
    (fun s -> Lz_irq.Gic.publish_staged s.iv.Lz_irq.Irq.gic)
    t.slots;
  (* 4. Fabric-side DVM for cores that cannot take the IPI (exited,
     stalled, never assigned): their redistributor/TLB hardware
     completes the maintenance while the pipeline sleeps. *)
  Array.iter
    (fun s ->
      if
        (s.outcome <> None || s.core.Core.stall || s.kernel = None)
        && s.inbox <> []
      then begin
        List.iter
          (fun (from, sd) ->
            apply_sd s.core.Core.tlb sd;
            s.sd_received <- s.sd_received + 1;
            t.slots.(from).awaiting <- t.slots.(from).awaiting - 1)
          s.inbox;
        s.inbox <- []
      end)
    t.slots;
  (* 5. Stalled initiators wait out the quantum (their clock advances
     to the barrier) and resume once every ack is in. *)
  Array.iter
    (fun s ->
      if s.core.Core.stall then begin
        s.stall_barriers <- s.stall_barriers + 1;
        if s.core.Core.cycles < s.qtarget then
          s.core.Core.cycles <- s.qtarget;
        s.qtarget <- s.core.Core.cycles + t.quantum;
        if s.awaiting = 0 then s.core.Core.stall <- false
      end)
    t.slots;
  (* 6. Termination: everything assigned has finished, or the global
     instruction budget is spent. *)
  let live =
    Array.exists (fun s -> s.kernel <> None && s.outcome = None) t.slots
  in
  let insns =
    Array.fold_left (fun a s -> a + s.core.Core.insns) 0 t.slots
  in
  if (not live) || insns >= max_insns then t.finished <- true

let run_seq ~max_insns t =
  while not t.finished do
    Array.iter (run_quantum t) t.slots;
    barrier_work ~max_insns t
  done

(* One persistent domain per extra core; slot 0 runs on the calling
   domain. The barrier's leader (last arriver) performs the barrier
   work while every other domain is parked on the condition, then
   bumps the phase. [t.finished] is written by the leader inside the
   mutex and re-read by workers after the barrier releases them, so
   all domains exit after the same barrier. *)
let run_par ~max_insns t =
  let n = Array.length t.slots in
  if n = 1 then run_seq ~max_insns t
  else begin
    (* No array may be swapped out under a running domain. *)
    Phys.reserve t.phys ~frames:(Phys.high_water t.phys + 1024);
    let m = Mutex.create () and c = Condition.create () in
    let arrived = ref 0 and phase = ref 0 in
    let barrier () =
      Mutex.lock m;
      incr arrived;
      if !arrived = n then begin
        barrier_work ~max_insns t;
        arrived := 0;
        incr phase;
        Condition.broadcast c;
        Mutex.unlock m
      end
      else begin
        let ph = !phase in
        while !phase = ph do
          Condition.wait c m
        done;
        Mutex.unlock m
      end
    in
    let worker i () =
      while not t.finished do
        run_quantum t t.slots.(i);
        barrier ()
      done
    in
    let domains =
      Array.init (n - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join domains
  end

let outcomes t =
  Array.to_list
    (Array.map
       (fun s ->
         ( s.id,
           match s.outcome with
           | Some o -> o
           | None -> Kernel.Limit_reached ))
       t.slots)

let run ?(parallel = false) ?(max_insns = 200_000_000) t =
  (* Re-arm after a budget-limited or restored run; a machine with no
     live slots finishes again at the first barrier. *)
  t.finished <- false;
  if parallel then run_par ~max_insns t else run_seq ~max_insns t;
  outcomes t

(* ------------------------------------------------------------------ *)
(* Observation *)

let digest t i =
  let s = t.slots.(i) in
  let core = s.core in
  let b = Buffer.create 1024 in
  Array.iter (fun r -> Buffer.add_string b (Printf.sprintf "%x," r))
    core.Core.regs;
  Buffer.add_string b
    (Printf.sprintf "pc=%x sp0=%x sp1=%x ps=%x cyc=%d ins=%d ttbr0=%x "
       core.Core.pc core.Core.sp_el0 core.Core.sp_el1
       (Pstate.to_spsr core.Core.pstate)
       core.Core.cycles core.Core.insns
       (Sysreg.read core.Core.sys Sysreg.TTBR0_EL1));
  (match s.outcome with
  | Some (Kernel.Exited c) -> Buffer.add_string b (Printf.sprintf "exit=%d " c)
  | Some (Kernel.Segv why) -> Buffer.add_string b ("segv=" ^ why ^ " ")
  | Some Kernel.Limit_reached -> Buffer.add_string b "limit "
  | None -> Buffer.add_string b "running ");
  (match s.proc with
  | Some p ->
      Stage1.iter_pages s.view ~root:p.Proc.root
        (fun ~va ~pte:_ ~level ->
          if level = 3 then
            match Proc.mapped_pa p ~va with
            | Some pa ->
                Buffer.add_string b
                  (Printf.sprintf "%x:%s," va
                     (Digest.to_hex
                        (Digest.bytes (Phys.read_bytes s.view pa 4096))))
            | None -> ())
  | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let digests t = Array.init (Array.length t.slots) (digest t)

let merged_trace t =
  let tagged =
    Array.to_list
      (Array.mapi
         (fun i s ->
           List.map (fun e -> (i, e)) (Lz_trace.Trace.events s.tracer))
         t.slots)
  in
  List.stable_sort
    (fun ((ca, a) : int * Lz_trace.Trace.event) (cb, b) ->
      match compare a.Lz_trace.Trace.cycles b.Lz_trace.Trace.cycles with
      | 0 -> (
          match compare ca cb with
          | 0 -> compare a.Lz_trace.Trace.seq b.Lz_trace.Trace.seq
          | c -> c)
      | c -> c)
    (List.concat tagged)

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshot/restore *)

type soft = {
  so_outcome : Kernel.outcome option;
  so_proc : Proc.state option;
  so_pool_next : int;
  so_qtarget : int;
  so_sd_sent : int;
  so_sd_received : int;
  so_stall_barriers : int;
}

type image = {
  im_cores : Lz_snap.Snapshot.core_state array;
  im_phys : Phys.snapshot;
  im_soft : soft array;
  im_barriers : int;
}

let soft_of s =
  { so_outcome = s.outcome; so_proc = Option.map Proc.capture s.proc;
    so_pool_next = s.pool_next; so_qtarget = s.qtarget;
    so_sd_sent = s.sd_sent; so_sd_received = s.sd_received;
    so_stall_barriers = s.stall_barriers }

let capture t =
  Array.iter
    (fun s ->
      if
        s.core.Core.stall || s.inbox <> [] || s.sd_out <> []
        || s.acks_out <> []
      then invalid_arg "Smp.capture: shootdown in flight")
    t.slots;
  { im_cores =
      Array.map (fun s -> Lz_snap.Snapshot.capture_core s.core) t.slots;
    im_phys = Phys.snapshot t.phys;
    im_soft = Array.map soft_of t.slots;
    im_barriers = t.barriers }

let restore t img =
  ignore (Phys.restore t.phys img.im_phys);
  Array.iteri
    (fun i s ->
      Lz_snap.Snapshot.restore_core s.core img.im_cores.(i);
      let so = img.im_soft.(i) in
      s.outcome <- so.so_outcome;
      (match (s.proc, so.so_proc) with
      | Some p, Some st -> Proc.restore p st
      | _ -> ());
      s.pool_next <- so.so_pool_next;
      s.qtarget <- so.so_qtarget;
      s.sd_sent <- so.so_sd_sent;
      s.sd_received <- so.so_sd_received;
      s.stall_barriers <- so.so_stall_barriers;
      s.sd_out <- [];
      s.inbox <- [];
      s.acks_out <- [];
      s.awaiting <- 0)
    t.slots;
  t.barriers <- img.im_barriers;
  t.finished <- false

let release t img = Phys.release t.phys img.im_phys
