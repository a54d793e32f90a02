(* Tests for the interrupt subsystem: GIC latches and priorities, the
   generic timer, DAIF masking at the core, PMU-overflow delivery into
   a simulated EL1 handler, the preemptive round-robin scheduler, and
   the transparency property — a run preempted by timer interrupts at
   randomized instruction boundaries ends architecturally identical to
   an unpreempted one. *)

open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel
open Lightzone

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let q = QCheck_alcotest.to_alcotest

module Gic = Lz_irq.Gic
module Timer = Lz_irq.Timer
module Irq = Lz_irq.Irq

(* ------------------------------------------------------------------ *)
(* GIC unit tests *)

let fresh_cpu () =
  let d = Gic.create_dist () in
  let c = Gic.attach_cpu d in
  Gic.set_group_enable d true;
  Gic.unmask c;
  (d, c)

let test_gic_priority_order () =
  let _, c = fresh_cpu () in
  Gic.enable c 16;
  Gic.set_priority c 16 0xA0;
  Gic.enable c 17;
  Gic.set_priority c 17 0x40;
  Gic.set_pending c 16;
  Gic.set_pending c 17;
  (* Lower priority value wins. *)
  check_int "highest first" 17 (Gic.acknowledge c);
  (* 16 loses to the running priority (0x40) while 17 is active. *)
  check_int "lower blocked by running prio" Gic.spurious (Gic.acknowledge c);
  Gic.eoi c 17;
  check_int "then the lower one" 16 (Gic.acknowledge c);
  Gic.eoi c 16;
  check_int "all retired" Gic.spurious (Gic.acknowledge c)

let test_gic_enable_and_pmr () =
  let _, c = fresh_cpu () in
  Gic.set_priority c 20 0x80;
  Gic.set_pending c 20;
  (* Pending but not enabled: nothing signaled. *)
  check_bool "disabled" true (Gic.signaled c = None);
  Gic.enable c 20;
  check_bool "enabled" true (Gic.signaled c = Some 20);
  (* PMR masks priorities >= its value. *)
  Gic.write_pmr c 0x80;
  check_bool "pmr masks equal priority" true (Gic.signaled c = None);
  Gic.write_pmr c 0x81;
  check_bool "pmr opens above" true (Gic.signaled c = Some 20);
  Gic.write_pmr c 0xFF;
  check_int "ack" 20 (Gic.acknowledge c);
  Gic.eoi c 20

let test_gic_level_repends_after_eoi () =
  let _, c = fresh_cpu () in
  Gic.enable c Gic.ppi_el1_timer;
  Gic.set_priority c Gic.ppi_el1_timer 0x80;
  Gic.set_level c Gic.ppi_el1_timer true;
  check_int "level pends" Gic.ppi_el1_timer (Gic.acknowledge c);
  Gic.eoi c Gic.ppi_el1_timer;
  (* Line still asserted at EOI: pending again immediately. *)
  check_bool "re-pends" true (Gic.signaled c = Some Gic.ppi_el1_timer);
  Gic.set_level c Gic.ppi_el1_timer false;
  check_bool "deassert clears" true (Gic.signaled c = None)

(* An EOI of an INTID nothing acknowledged retires nothing: the
   interface and distributor state are left exactly as they were. *)
let test_gic_stray_eoi_ignored () =
  let _, c = fresh_cpu () in
  Gic.enable c 20;
  Gic.set_priority c 20 0x80;
  Gic.set_pending c 20;
  check_int "ack" 20 (Gic.acknowledge c);
  let before = Gic.capture c in
  Gic.eoi c 40;
  check_bool "state unchanged" true (Gic.capture c = before);
  check_int "still running at 20's priority" 0x80 (Gic.running_priority c)

(* Only SGIs and PPIs exist: the host cannot configure INTID 32. *)
let test_gic_rejects_intid_32 () =
  let _, c = fresh_cpu () in
  let rejects what f =
    check_bool what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "enable 32" (fun () -> Gic.enable c 32);
  rejects "set_pending 32" (fun () -> Gic.set_pending c 32);
  rejects "set_priority 32" (fun () -> Gic.set_priority c 32 0x80)

let test_gic_sgi_targets_other_core () =
  let d = Gic.create_dist () in
  let c0 = Gic.attach_cpu d in
  let c1 = Gic.attach_cpu d in
  Gic.set_group_enable d true;
  List.iter
    (fun c ->
      Gic.unmask c;
      Gic.enable c 5;
      Gic.set_priority c 5 0x80)
    [ c0; c1 ];
  (* SGI 5 to core 1 only (INTID bits 27:24, target list bits 15:0). *)
  Gic.write_sgi1r c0 ((5 lsl 24) lor 0b10);
  check_bool "not self" true (Gic.signaled c0 = None);
  check_bool "targeted core" true (Gic.signaled c1 = Some 5);
  check_int "ack on target" 5 (Gic.acknowledge c1);
  Gic.eoi c1 5

(* ------------------------------------------------------------------ *)
(* Generic timer unit tests *)

let test_timer_tval_view () =
  let t = Timer.create () in
  Timer.write_tval t ~now:50 100;
  check_int "cval = now + tval" 150 (Timer.read_cval t);
  check_int "tval counts down" 30 (Timer.read_tval t ~now:120);
  (* TVAL is a signed 32-bit view: past deadlines read negative
     (as an unsigned 32-bit word). *)
  check_int "negative tval" 0xFFFF_FFFE (Timer.read_tval t ~now:152);
  (* Writing a negative TVAL arms a deadline in the past. *)
  Timer.write_tval t ~now:1000 0xFFFF_FFFF;
  check_int "signed write" 999 (Timer.read_cval t)

let test_timer_output_and_istatus () =
  let t = Timer.create () in
  Timer.program t ~now:100 ~slice:50;
  check_bool "not yet" false (Timer.output t ~now:149);
  check_bool "fires" true (Timer.output t ~now:150);
  check_bool "istatus"
    true
    (Timer.read_ctl t ~now:150 land Timer.ctl_istatus <> 0);
  (* IMASK holds the line without losing the condition. *)
  Timer.write_ctl t (Timer.ctl_enable lor Timer.ctl_imask);
  check_bool "masked" false (Timer.output t ~now:200);
  check_bool "istatus survives mask"
    true
    (Timer.read_ctl t ~now:200 land Timer.ctl_istatus <> 0);
  Timer.stop t;
  check_bool "stopped" false (Timer.output t ~now:10_000)

(* ------------------------------------------------------------------ *)
(* Core delivery: DAIF masking *)

let code_va = 0x10000

(* A minimal EL1 environment: one privileged code page. *)
let bare_el1 ?(route_el1_to_harness = true) program =
  let phys = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root phys in
  let code_pa = Phys.alloc_frame phys in
  Stage1.map_page phys ~root ~va:code_va ~pa:code_pa
    { Pte.user = false; read_only = true; uxn = true; pxn = false;
      ng = true };
  List.iteri
    (fun i insn ->
      Phys.write32 phys (code_pa + (4 * i)) (Encoding.encode insn))
    program;
  let core =
    Core.create ~route_el1_to_harness phys tlb Cost_model.cortex_a55
      Pstate.EL1
  in
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (Mmu.ttbr_value ~root ~asid:1);
  core.Core.pc <- code_va;
  (phys, core)

let test_daif_masks_delivery () =
  let open Insn in
  let program =
    List.init 8 (fun _ -> Nop) @ [ Msr_pstate (DAIFClr, 2); Nop; Brk 0 ]
  in
  let _, core = bare_el1 program in
  (* Start with IRQs masked: the pending interrupt below must wait for
     the DAIFClr in the instruction stream. *)
  core.Core.pstate.Pstate.daif <- 2;
  let iv = Core.attach_irq core in
  Irq.init iv;
  Gic.enable iv.Irq.gic 5;
  Gic.set_priority iv.Irq.gic 5 0x80;
  Gic.set_pending iv.Irq.gic 5;
  (match Core.run core with
  | Core.Trap_el1 (Core.Ec_irq 5) -> ()
  | s -> Alcotest.failf "expected irq 5, got %a" Core.pp_stop s);
  (* Delivery waited for the DAIFClr: the saved return address is past
     the masked region, and entry re-masked DAIF. *)
  check_bool "delivered after unmask" true
    (Sysreg.read core.Core.sys Sysreg.ELR_EL1 >= code_va + (4 * 9));
  check_int "entry masks DAIF" 0xF core.Core.pstate.Pstate.daif;
  check_int "ack matches" 5 (Irq.ack iv);
  Irq.eoi iv 5;
  Core.eret_from_el1 core;
  check_int "eret restores DAIF" 0 core.Core.pstate.Pstate.daif;
  match Core.run core with
  | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
  | s -> Alcotest.failf "expected brk, got %a" Core.pp_stop s

(* ------------------------------------------------------------------ *)
(* PMU overflow delivered to a simulated EL1 handler (ISSUE acceptance:
   the overflow interrupt is observed by guest code, not the host) *)

let test_pmu_overflow_guest_handler () =
  let open Insn in
  let vbar_va = 0x30000 in
  (* Main program: program event counter 0 to count retired
     instructions, preload it four short of the 32-bit wrap, enable
     the counter, its overflow interrupt, and the PMU, then spin. The
     overflow latches PMOVSSET bit 0, raising PPI 23 through the GIC;
     the handler below observes it and the main line resumes. *)
  let program =
    [ Movz (0, Pmu.Event.inst_retired, 0);
      Msr (Sysreg.PMEVTYPER0_EL0, 0);
      Movz (1, 0xFFFC, 0);
      Movk (1, 0xFFFF, 16);  (* x1 = 0xFFFF_FFFC *)
      Msr (Sysreg.PMEVCNTR0_EL0, 1);
      Movz (2, 1, 0);
      Msr (Sysreg.PMCNTENSET_EL0, 2);
      Msr (Sysreg.PMINTENSET_EL1, 2);
      Msr (Sysreg.PMCR_EL0, 2 (* x2 = 1 = PMCR.E *)) ]
    @ List.init 16 (fun _ -> Nop)
    @ [ Hvc 0 ]
  in
  let phys, core = bare_el1 ~route_el1_to_harness:false program in
  (* Vector page: IRQ handler at VBAR + 0x280 (current EL, SPx). It
     reads ICC_IAR1_EL1, records the INTID, clears the overflow latch
     (dropping the level) and EOIs before ERETing back. *)
  let root =
    (* recover the root from TTBR0 (bare_el1 built it) *)
    Sysreg.read core.Core.sys Sysreg.TTBR0_EL1 land 0xFFFF_FFFF_F000
  in
  let vec_pa = Phys.alloc_frame phys in
  Stage1.map_page phys ~root ~va:vbar_va ~pa:vec_pa
    { Pte.user = false; read_only = true; uxn = true; pxn = false;
      ng = true };
  let handler =
    [ Mrs (20, Sysreg.ICC_IAR1_EL1);
      Movz (21, 1, 0);
      Msr (Sysreg.PMOVSCLR_EL0, 21);
      Msr (Sysreg.ICC_EOIR1_EL1, 20);
      Eret ]
  in
  List.iteri
    (fun i insn ->
      Phys.write32 phys (vec_pa + 0x280 + (4 * i)) (Encoding.encode insn))
    handler;
  Sysreg.write core.Core.sys Sysreg.VBAR_EL1 vbar_va;
  let iv = Core.attach_irq core in
  Irq.init iv;
  (match Core.run core with
  | Core.Trap_el2 (Core.Ec_hvc 0) -> ()
  | s -> Alcotest.failf "expected hvc exit, got %a" Core.pp_stop s);
  check_int "handler saw the PMU PPI" Gic.ppi_pmu (Core.reg core 20);
  let p = match Core.pmu core with Some p -> p | None -> assert false in
  check_int "overflow latch cleared" 0
    (Pmu.read_ovs p ~cycles:core.Core.cycles ~insns:core.Core.insns land 1);
  check_bool "interrupt retired (running priority back to idle)" true
    (Gic.running_priority iv.Irq.gic > Gic.idle_priority)

(* ------------------------------------------------------------------ *)
(* Preemptive round-robin scheduler *)

let test_sched_round_robin () =
  let machine = Machine.create () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let sched = Sched.create ~slice:2_000 kernel in
  let spawn mark =
    let proc = Kernel.create_process kernel in
    ignore
      (Kernel.map_anon kernel proc ~at:0x7F0000000000 ~len:0x10000 Vma.rw);
    let b = Builder.create ~base:0x400000 in
    Builder.emit b [ Insn.Movz (0, 4_000, 0) ];
    let loop = Builder.here b in
    Builder.emit b [ Insn.Subs (0, 0, Insn.Imm 1) ];
    Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
    Builder.emit b
      [ Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Movz (0, mark, 0);
        Insn.Svc 0 ];
    let insns, _ = Builder.finish b in
    Kernel.load_program kernel proc ~va:0x400000 insns;
    let core =
      Kernel.new_user_core kernel proc ~entry:0x400000
        ~sp:0x7F0000010000
    in
    Sched.add sched proc core
  in
  let t0 = spawn 11 and t1 = spawn 22 in
  let outcomes = Sched.run sched in
  check_int "both ran" 2 (List.length outcomes);
  (match List.assoc t0.Sched.tid outcomes with
  | Kernel.Exited 11 -> ()
  | o -> Alcotest.failf "task 0: %a" Fmt.(any "unexpected outcome") o);
  (match List.assoc t1.Sched.tid outcomes with
  | Kernel.Exited 22 -> ()
  | o -> Alcotest.failf "task 1: %a" Fmt.(any "unexpected outcome") o);
  check_bool "interleaved (preempted at least twice)" true
    (sched.Sched.preemptions >= 2);
  check_bool "task 0 rescheduled" true (t0.Sched.slices >= 2);
  check_bool "task 1 rescheduled" true (t1.Sched.slices >= 2);
  (* Each tick is fielded by [Kernel.service_irq]; the exact totals pin
     its GIC acknowledge/EOI charges. *)
  check_int "preemptions" 16 sched.Sched.preemptions;
  Alcotest.(check (list int))
    "cycles per cpu" [ 20511; 16019 ]
    (List.map (fun (c : Sched.cpu) -> c.Sched.core.Core.cycles)
       sched.Sched.cpus)

(* ------------------------------------------------------------------ *)
(* Transparency: preemption at randomized boundaries changes nothing
   architectural *)

(* Preemption is serviced harness-side, and exception entry and ERET
   are charged: cycles are the one field allowed to move. *)
let observe (env : Lz_workloads.Microbench.env) =
  let o =
    Differential.observe ~pages:env.Lz_workloads.Microbench.data_pas
      env.Lz_workloads.Microbench.core
  in
  { o with Differential.cycles = 0 }

(* Drive a microbench core under the timer tick, servicing every
   interrupt harness-side, until the final BRK. *)
let run_preempted (env : Lz_workloads.Microbench.env) ~slice =
  let core = env.Lz_workloads.Microbench.core in
  let iv = Core.attach_irq core in
  Irq.init iv;
  Timer.program iv.Irq.timer ~now:core.Core.cycles ~slice;
  let ticks = ref 0 in
  let rec loop () =
    match Core.run ~max_insns:max_int core with
    | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) ->
        !ticks
    | Core.Trap_el1 (Core.Ec_irq intid) ->
        let got = Irq.ack iv in
        if got <> intid then
          Alcotest.failf "ack %d for delivered %d" got intid;
        if intid = Gic.ppi_el1_timer then begin
          incr ticks;
          Timer.program iv.Irq.timer ~now:core.Core.cycles ~slice
        end;
        Core.quiesce_irq core intid;
        Irq.eoi iv intid;
        Core.eret_from_el1 core;
        loop ()
    | s -> Alcotest.failf "unexpected stop: %a" Core.pp_stop s
  in
  loop ()

let prop_preemption_transparent =
  QCheck2.Test.make
    ~name:"preemption at random boundaries is architecturally invisible"
    ~count:40
    QCheck2.Gen.(
      quad
        (oneofl Lz_workloads.Microbench.names)
        (int_range 20 120) (int_range 97 2_000) (oneofl Core.engines))
    (fun (name, iters, slice, engine) ->
      let plain = Lz_workloads.Microbench.build ~engine ~iters name in
      Lz_workloads.Microbench.run_to_brk plain;
      let preempted = Lz_workloads.Microbench.build ~engine ~iters name in
      ignore (run_preempted preempted ~slice);
      match Differential.diff (observe plain) (observe preempted) with
      | None -> true
      | Some d -> QCheck2.Test.fail_report d)

(* ------------------------------------------------------------------ *)
(* Signal delivery while a zone is open, driven by an asynchronous
   preemption (no synchronous trap in sight) *)

let test_signal_while_zone_open_preempted () =
  let data_va = 0x600000 and stack_va = 0x7F0000000000 in
  let handler_va = 0x410000 in
  let machine = Machine.create () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore
    (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
       Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:0x400000
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  (* Open the domain, then compute for a long stretch with NO syscall
     or gate: the only trap boundaries are the timer's. *)
  let b = Builder.create ~base:0x400000 in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 7, 0); Insn.Str (1, 0, 0) ];
  Builder.emit b [ Insn.Movz (2, 2_000, 0) ];
  let loop = Builder.here b in
  Builder.emit b [ Insn.Subs (2, 2, Insn.Imm 1) ];
  Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
  (* Still in the open domain after the storm of ticks. *)
  Builder.emit b [ Insn.Ldr (3, 0, 0) ];
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:0x400000;
  let hb = Builder.create ~base:handler_va in
  Builder.emit hb [ Insn.Movz (20, 0x51, 0); Insn.Hvc Gate.hvc_sigreturn ];
  let hinsns, _ = Builder.finish hb in
  Kernel.load_program kernel proc ~va:handler_va hinsns;
  (* Arm the preemption timer on the zone core. *)
  let iv = Core.attach_irq t.Kmod.core in
  Irq.init iv;
  let slice = 400 in
  t.Kmod.on_irq <-
    Some
      (fun (core : Core.t) intid ->
        if intid = Gic.ppi_el1_timer then
          Timer.program iv.Irq.timer ~now:core.Core.cycles ~slice);
  Timer.program iv.Irq.timer ~now:t.Kmod.core.Core.cycles ~slice;
  Kmod.queue_signal t ~handler:handler_va;
  (match Api.run t with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "preempted signal flow: %a" Kmod.pp_outcome o);
  check_bool "preempted" true (t.Kmod.irq_traps > 0);
  check_int "handler ran" 0x51 (Core.reg t.Kmod.core 20);
  check_int "open domain survived" 7 (Core.reg t.Kmod.core 3);
  check_int "no pending signals" 0 (Kmod.pending_signals t)

(* ------------------------------------------------------------------ *)

(* Gate-phase transparency: land an interrupt (the timer, plus an SGI
   injected from its handler) exactly on each gate phase marker cycle
   — entry, check, exit — and require the run to end architecturally
   identical to the cooperative run, with the span report still
   balanced and the interrupt attributed to its own trap row rather
   than smeared into the gate phases. Found via the fuzzer's irq-storm
   scenario; kept as a directed regression. *)
let test_sgi_on_gate_phase_markers () =
  let data_va = 0x600000 and stack_va = 0x7F0000000000 in
  let build () =
    Api.next_vmid := 0x2800;
    let machine = Machine.create () in
    let kernel = Kernel.create machine Kernel.Host_vhe in
    let proc = Kernel.create_process kernel in
    ignore
      (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
         Vma.rw);
    ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
    let t =
      Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:0x400000
        ~sp:stack_va kernel proc
    in
    let p1 = Api.lz_alloc t in
    Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
    Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
      ~perm:(Perm.read lor Perm.write);
    let tr = Lz_trace.Trace.create ~capacity:4096 () in
    Api.set_tracer t (Some tr);
    let b = Builder.create ~base:0x400000 in
    Builder.switch_gate b ~gate:0;
    Builder.mov_imm64 b 0 data_va;
    Builder.emit b [ Insn.Movz (1, 0x77, 0); Insn.Str (1, 0, 0) ];
    Builder.emit b [ Insn.Ldr (2, 0, 0); Insn.Brk 0 ];
    Api.load_and_register t b ~va:0x400000;
    (t, tr)
  in
  (* Cooperative pass: no interrupts; note each phase marker's cycle
     stamp and the final architectural digest. *)
  let t0, tr0 = build () in
  (match Api.run t0 with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "cooperative run: %a" Kmod.pp_outcome o);
  let digest0 = Lz_eval.Switch_bench.zone_digest t0 in
  (* The final BRK -> exit trap pair never ERETs back, so even the
     cooperative run carries a constant unbalanced tail; interrupts
     must not add to it. *)
  let unbalanced0 =
    (Lz_trace.Span.of_trace ~total_cycles:t0.Kmod.core.Core.cycles tr0)
      .Lz_trace.Span.unbalanced
  in
  let stamps =
    List.filter_map
      (fun (e : Lz_trace.Trace.event) ->
        match e.Lz_trace.Trace.payload with
        | Lz_trace.Trace.Gate_entry _ | Lz_trace.Trace.Gate_check _
        | Lz_trace.Trace.Gate_exit _ ->
            Some e.Lz_trace.Trace.cycles
        | _ -> None)
      (Lz_trace.Trace.events tr0)
  in
  check_bool "saw all three gate phase markers" true
    (List.length stamps >= 3);
  List.iter
    (fun stamp ->
      let t, tr = build () in
      let iv = Core.attach_irq t.Kmod.core in
      Irq.init iv;
      Gic.enable iv.Irq.gic 1;
      Gic.set_priority iv.Irq.gic 1 0x80;
      t.Kmod.on_irq <-
        Some
          (fun _ intid ->
            (* One-shot: the default quiesce silences the expired
               timer; ride an SGI in right behind it so a second
               interrupt lands inside whatever the gate was doing. *)
            if intid = Gic.ppi_el1_timer then Gic.set_pending iv.Irq.gic 1);
      Timer.program iv.Irq.timer ~now:0 ~slice:stamp;
      (match Api.run t with
      | Kmod.Exited 0 -> ()
      | o -> Alcotest.failf "interrupted at cycle %d: %a" stamp
               Kmod.pp_outcome o);
      check_bool
        (Printf.sprintf "digest matches cooperative (stamp %d)" stamp)
        true
        (Lz_eval.Switch_bench.zone_digest t = digest0);
      check_bool (Printf.sprintf "took the interrupt (stamp %d)" stamp) true
        (t.Kmod.irq_traps > 0);
      let report =
        Lz_trace.Span.of_trace
          ~total_cycles:t.Kmod.core.Core.cycles tr
      in
      check_int
        (Printf.sprintf "irq adds no unbalanced spans (stamp %d)" stamp)
        unbalanced0 report.Lz_trace.Span.unbalanced;
      let row name =
        List.exists
          (fun (r : Lz_trace.Span.row) -> r.Lz_trace.Span.name = name)
          report.Lz_trace.Span.rows
      in
      check_bool (Printf.sprintf "irq row attributed (stamp %d)" stamp) true
        (row "irq.timer" || row "irq.sgi1");
      check_bool (Printf.sprintf "gate rows survive (stamp %d)" stamp) true
        (row "gate.switch" && row "gate.check"))
    stamps

let () =
  Alcotest.run "lz_irq"
    [ ( "gic",
        [ Alcotest.test_case "priority order" `Quick test_gic_priority_order;
          Alcotest.test_case "enable + pmr" `Quick test_gic_enable_and_pmr;
          Alcotest.test_case "level re-pend" `Quick
            test_gic_level_repends_after_eoi;
          Alcotest.test_case "sgi to other core" `Quick
            test_gic_sgi_targets_other_core;
          Alcotest.test_case "stray eoi ignored" `Quick
            test_gic_stray_eoi_ignored;
          Alcotest.test_case "spi intids rejected" `Quick
            test_gic_rejects_intid_32 ] );
      ( "timer",
        [ Alcotest.test_case "tval view" `Quick test_timer_tval_view;
          Alcotest.test_case "output + istatus" `Quick
            test_timer_output_and_istatus ] );
      ( "delivery",
        [ Alcotest.test_case "daif masks" `Quick test_daif_masks_delivery;
          Alcotest.test_case "pmu overflow to guest handler" `Quick
            test_pmu_overflow_guest_handler ] );
      ( "sched",
        [ Alcotest.test_case "round robin" `Quick test_sched_round_robin ] );
      ( "transparency",
        [ q prop_preemption_transparent;
          Alcotest.test_case "signal while zone open (async)" `Quick
            test_signal_while_zone_open_preempted;
          Alcotest.test_case "sgi on gate phase markers" `Quick
            test_sgi_on_gate_phase_markers ] ) ]
