open Lz_arm
open Lz_cpu
open Lz_kernel
open Lightzone

type env = Host | Guest

type mechanism = Lz_pan | Lz_ttbr | Wp_ioctl | Lwc_switch

(* Internal: the same program with unprotected accesses and no switch
   instructions — the loop-harness baseline subtracted from every
   measurement so results mean "switch + access", as in the paper. *)
type mech_or_base = Mech of mechanism | Base_access

let code_va = 0x400000
let funcs_va = 0x420000
let arr_va = 0x500000
let domains_va = 0x600000
let stack_va = 0x7F0000000000

let func_stride_insns = 16

(* Main loop: x19 = index array, x20 = i, x21 = n, x22 = funcs base,
   x23 = scratch. Each iteration loads the next domain index, computes
   the access function's address and calls it. *)
let emit_main_loop b ~n =
  Builder.mov_imm64 b 19 arr_va;
  Builder.emit b [ Insn.Movz (20, 0, 0) ];
  Builder.emit b
    [ Insn.Movz (21, n land 0xFFFF, 0);
      Insn.Movk (21, (n lsr 16) land 0xFFFF, 16) ];
  Builder.mov_imm64 b 22 funcs_va;
  let loop = Builder.here b in
  Builder.emit b
    [ Insn.Lsl_imm (23, 20, 3);
      Insn.Ldr_reg (0, 19, 23);
      Insn.Lsl_imm (0, 0, 6);  (* x64-byte function stride *)
      Insn.Add (0, 22, Insn.Reg 0);
      Insn.Blr 0;
      Insn.Add (20, 20, Insn.Imm 1);
      Insn.Subs (31, 20, Insn.Reg 21) ];
  Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
  Builder.emit b [ Insn.Brk 0 ]

let pad_to b va =
  while Builder.here b < va do
    Builder.emit b [ Insn.Nop ]
  done

let pad_func b start =
  while Builder.here b - start < 4 * func_stride_insns do
    Builder.emit b [ Insn.Nop ]
  done

(* Access function for domain [d] under each mechanism. All clobber
   x24 (saved lr), x0, x1 and the gate registers. *)
let emit_func b ~mech ~d =
  let start = Builder.here b in
  let dva = domains_va + (d * 4096) in
  (match mech with
  | Base_access ->
      Builder.emit b [ Insn.Mov_reg (24, 30) ];
      Builder.mov_imm64 b 0 dva;
      Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Mov_reg (30, 24); Insn.Ret 30 ]
  | Mech Lz_ttbr ->
      Builder.emit b [ Insn.Mov_reg (24, 30) ];
      Builder.switch_gate b ~gate:d;
      Builder.mov_imm64 b 0 dva;
      Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Mov_reg (30, 24); Insn.Ret 30 ]
  | Mech Lz_pan ->
      Builder.set_pan b false;
      Builder.mov_imm64 b 0 dva;
      Builder.emit b [ Insn.Ldr (1, 0, 0) ];
      Builder.set_pan b true;
      Builder.emit b [ Insn.Ret 30 ]
  | Mech Wp_ioctl ->
      Builder.emit b
        [ Insn.Movz (8, Lz_baselines.Watchpoint.ioctl_nr, 0);
          Insn.Movz (0, d, 0); Insn.Svc 0 ];
      Builder.mov_imm64 b 0 dva;
      Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Ret 30 ]
  | Mech Lwc_switch ->
      Builder.emit b
        [ Insn.Movz (8, Lz_baselines.Lwc.lwswitch_nr, 0);
          Insn.Movz (0, d, 0); Insn.Svc 0 ];
      Builder.mov_imm64 b 0 dva;
      Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Ret 30 ]);
  pad_func b start

let build_program ~mech ~domains ~n =
  let b = Builder.create ~base:code_va in
  emit_main_loop b ~n;
  pad_to b funcs_va;
  for d = 0 to domains - 1 do
    emit_func b ~mech ~d
  done;
  b

let write_indices kernel proc ~domains ~n =
  let prng = Random.State.make [| 0x7735; domains |] in
  let buf = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * i)
      (Int64.of_int (Random.State.int prng domains))
  done;
  Kernel.write_user kernel proc ~va:arr_va buf

let setup_proc kernel ~domains ~n =
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  (* Size the index array exactly (Vma.make rounds up to the page). *)
  ignore (Kernel.map_anon kernel proc ~at:arr_va ~len:(max 8 (8 * n))
            Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:domains_va
            ~len:(domains * 4096) Vma.rw);
  write_indices kernel proc ~domains ~n;
  proc

(* ------------------------------------------------------------------ *)
(* LightZone measurement *)

type lz_run = {
  t : Kmod.t;
  kernel : Kernel.t;
  proc : Proc.t;
  cycles : int;
  preemptions : int;
}

let run_lz_full ?tracer ?preempt cm ~env ~mech ~domains ~n =
  let machine = Machine.create ~cost:cm () in
  let kernel, backend =
    match env with
    | Host -> (Kernel.create machine Kernel.Host_vhe, Kmod.Host)
    | Guest ->
        let hyp = Lz_hyp.Hypervisor.create machine in
        let vm = Lz_hyp.Hypervisor.create_vm hyp in
        let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
        (gk, Kmod.Guest (Lowvisor.create hyp vm))
  in
  let proc = setup_proc kernel ~domains ~n in
  let scalable = mech = Mech Lz_ttbr in
  let t =
    Api.lz_enter ~backend ~allow_scalable:scalable
      ~insn_san:(if scalable then 1 else 2)
      ~entry:code_va ~sp:stack_va kernel proc
  in
  (match tracer with Some _ -> Api.set_tracer t tracer | None -> ());
  (match mech with
  | Mech Lz_ttbr ->
      for d = 0 to domains - 1 do
        let pgt = Api.lz_alloc t in
        Api.lz_map_gate_pgt t ~pgt ~gate:d;
        Api.lz_prot t ~addr:(domains_va + (d * 4096)) ~len:4096 ~pgt
          ~perm:(Perm.read lor Perm.write)
      done
  | Mech Lz_pan | Base_access -> (
      match mech with
      | Mech Lz_pan ->
          Api.lz_prot t ~addr:domains_va ~len:(domains * 4096)
            ~pgt:Perm.pgt_all
            ~perm:(Perm.read lor Perm.write lor Perm.user)
      | _ -> ())
  | _ -> assert false);
  let b = build_program ~mech ~domains ~n in
  Api.load_and_register t b ~va:code_va;
  let preemptions = ref 0 in
  (match preempt with
  | None -> ()
  | Some slice ->
      (* Preemptive run: attach the interrupt fabric to the zone core
         and let the generic timer fire PPI 30 every [slice] cycles.
         HCR_EL2.IMO (set by lz_enter) stops the zone at the module
         boundary; the tick hook reprograms the next deadline, so the
         zone keeps getting preempted mid-gate and mid-domain. *)
      let core = t.Kmod.core in
      let iv = Core.attach_irq core in
      Lz_irq.Irq.init iv;
      t.Kmod.on_irq <-
        Some
          (fun (core : Core.t) intid ->
            if intid = Lz_irq.Gic.ppi_el1_timer then begin
              incr preemptions;
              (match Core.tracer core with
              | Some tr ->
                  Lz_trace.Trace.emit tr ~cycles:core.Core.cycles
                    (Lz_trace.Trace.Preempt { task = 0 })
              | None -> ());
              Lz_irq.Timer.program iv.Lz_irq.Irq.timer
                ~now:core.Core.cycles ~slice
            end);
      Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:t.Kmod.core.Core.cycles
        ~slice);
  match Api.run ~max_insns:200_000_000 t with
  | Kmod.Exited _ ->
      { t; kernel; proc; cycles = t.Kmod.core.Core.cycles;
        preemptions = !preemptions }
  | o -> failwith (Format.asprintf "switch bench (lz): %a" Kmod.pp_outcome o)

let run_lz cm ~env ~mech ~domains ~n =
  (run_lz_full cm ~env ~mech ~domains ~n).cycles

(* The registers and zone bookkeeping [zone_digest] starts with. *)
let add_zone_header b (t : Kmod.t) =
  let core = t.Kmod.core in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  Array.iter (fun v -> add "%x," v) core.Core.regs;
  add "pc=%x sp0=%x sp1=%x spsr=%x insns=%d ttbr0=%x pgts=%d gates=%d;"
    core.Core.pc core.Core.sp_el0 core.Core.sp_el1
    (Pstate.to_spsr core.Core.pstate)
    core.Core.insns
    (Sysreg.read core.Core.sys Sysreg.TTBR0_EL1)
    (Zone_tab.high_water t.Kmod.pgts)
    (Zone_tab.length t.Kmod.pgts)

(* The physical address of each domain data page, in domain order,
   each faulted in first as a user read would. *)
let domain_pages (t : Kmod.t) =
  let domains =
    match Proc.find_vma t.Kmod.proc domains_va with
    | Some vma -> (vma.Vma.len + 4095) / 4096
    | None -> 0
  in
  let phys = t.Kmod.kernel.Kernel.machine.Machine.phys in
  Array.init domains (fun d ->
      let va = domains_va + (d * 4096) in
      Kernel.fault_in_page t.Kmod.kernel t.Kmod.proc ~va;
      match Lz_mem.Stage1.walk phys ~root:t.Kmod.proc.Proc.root ~va with
      | Ok w -> w.Lz_mem.Stage1.pa
      | Error _ -> failwith "Switch_bench: domain page unmapped after fault-in")

(* Architectural state digest for the preemption- and snapshot-
   transparency checks: everything the program and the module can
   observe — GP registers, PC/SPs, PSTATE, retired instruction count,
   translation root, zone bookkeeping, and the data pages the workload
   touched. Cycle counts are deliberately excluded: interrupt entries
   legitimately consume cycles without changing architectural state
   (and a forked machine re-walks from a cold TLB). *)
let zone_digest (t : Kmod.t) =
  let header = Buffer.create 1024 in
  add_zone_header header t;
  let h = Buffer.length header in
  let pages = domain_pages t in
  let phys = t.Kmod.kernel.Kernel.machine.Machine.phys in
  (* One buffer of the final size: a buffer grown page by page leaves
     freed copies behind that raise the peak heap by ~0.8 MiB. *)
  let b = Bytes.create (h + (4096 * Array.length pages)) in
  Buffer.blit header 0 b 0 h;
  Array.iteri
    (fun i pa ->
      Bytes.blit (Lz_mem.Phys.read_bytes phys pa 4096) 0 b (h + (4096 * i))
        4096)
    pages;
  Digest.to_hex (Digest.bytes b)

let arch_digest (r : lz_run) = zone_digest r.t

(* ------------------------------------------------------------------ *)
(* Warm images for snapshot forking (the fleet benchmark)

   [prepare] builds the Table 5 TTBR-mechanism setup and runs the
   program once end-to-end — demand paging done, gates registered,
   every domain sanitized and touched — then rewinds PC and the exit
   latch to the entry point. The resulting machine is a warm image:
   running it (or any snapshot-fork of it) executes one more
   [n]-switch slice from identical architectural state. *)

let rewind_slice (t : Kmod.t) =
  (* The exit [brk] trapped to EL2 and the run loop stopped without
     returning: the core is parked at EL2 with interrupts masked.
     ERET back into the interrupted EL1 context (restoring PSTATE,
     DAIF included) before rewinding PC, so the next slice runs at
     EL1 and stays preemptible. *)
  Core.eret_from_el2 t.Kmod.core;
  t.Kmod.proc.Proc.exit_code <- None;
  t.Kmod.core.Core.pc <- code_va

let prepare ?preempt cm ~env ~domains ~n =
  let r = run_lz_full ?preempt cm ~env ~mech:(Mech Lz_ttbr) ~domains ~n in
  rewind_slice r.t;
  r

let run_slice (t : Kmod.t) =
  match Api.run ~max_insns:200_000_000 t with
  | Kmod.Exited _ -> rewind_slice t
  | o -> failwith (Format.asprintf "switch bench (slice): %a" Kmod.pp_outcome o)

(* ------------------------------------------------------------------ *)
(* Traced runs (lzctl trace / bench trace annotation) *)

type traced = {
  trace : Lz_trace.Trace.t;
  report : Lz_trace.Span.report;
  total_cycles : int;
  domains : int;
  switches : int;
  preemptions : int;
  digest : string;
}

let traced_run ?preempt cm ~env ~domains ~n =
  let tr = Lz_trace.Trace.create () in
  let r =
    run_lz_full ~tracer:tr ?preempt cm ~env ~mech:(Mech Lz_ttbr) ~domains ~n
  in
  let report = Lz_trace.Span.of_trace ~total_cycles:r.cycles tr in
  { trace = tr; report; total_cycles = r.cycles; domains; switches = n;
    preemptions = r.preemptions; digest = arch_digest r }

(* ------------------------------------------------------------------ *)
(* Baseline (EL0 process) measurement *)

let run_el0 cm ~env ~mech ~domains ~n =
  let machine = Machine.create ~cost:cm () in
  let kernel, run_process =
    match env with
    | Host ->
        let k = Kernel.create machine Kernel.Host_vhe in
        (k, fun proc core -> Kernel.run k proc core)
    | Guest ->
        let hyp = Lz_hyp.Hypervisor.create machine in
        let vm = Lz_hyp.Hypervisor.create_vm hyp in
        let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
        (gk, fun proc core ->
            Lz_hyp.Hypervisor.run_guest_process hyp vm gk proc core)
  in
  let proc = setup_proc kernel ~domains ~n in
  (match mech with
  | Base_access -> ()
  | Mech Wp_ioctl ->
      ignore
        (Lz_baselines.Watchpoint.create kernel proc ~base:domains_va
           ~slot_bytes:4096 ~n_slots:domains)
  | Mech Lwc_switch ->
      let lwc = Lz_baselines.Lwc.create kernel proc in
      (* Populate the domains, then one context per domain. *)
      Kernel.populate kernel proc ~start:domains_va ~len:(domains * 4096);
      for d = 0 to domains - 1 do
        ignore
          (Lz_baselines.Lwc.new_context lwc
             ~domain:(Some (domains_va + (d * 4096), 4096)))
      done
  | _ -> assert false);
  let b = build_program ~mech ~domains ~n in
  let insns, _ = Builder.finish b in
  Kernel.load_program kernel proc ~va:code_va insns;
  let core = Kernel.new_user_core kernel proc ~entry:code_va ~sp:stack_va in
  match run_process proc core with
  | Kernel.Exited _ -> core.Core.cycles
  | Kernel.Segv why -> failwith ("switch bench (el0): " ^ why)
  | Kernel.Limit_reached -> failwith "switch bench (el0): limit"

let measure cm ~env ~mechanism ~domains ?(iterations = 2_000) () =
  (* The harness baseline (same loop, unprotected access, no switch)
     runs in the same environment as the mechanism — inside a
     LightZone process for LightZone mechanisms, as a plain process
     for the EL0 baselines — and is subtracted, leaving "switch +
     access", the paper's metric (the access is added back). Slope
     between a half-length and the full run removes setup and warm-up
     (demand paging, sanitizer scans, compulsory TLB misses). *)
  let in_lz = match mechanism with Lz_pan | Lz_ttbr -> true | _ -> false in
  let run mech n =
    if in_lz then run_lz cm ~env ~mech ~domains ~n
    else run_el0 cm ~env ~mech ~domains ~n
  in
  let slope mech =
    let n1 = max 64 (iterations / 2) in
    let c1 = run mech n1 and c2 = run mech iterations in
    float_of_int (c2 - c1) /. float_of_int (iterations - n1)
  in
  slope (Mech mechanism) -. slope Base_access
  +. float_of_int cm.Cost_model.mem_access

let table5 ?iterations cm env =
  let counts = [ 1; 2; 3; 32; 64; 128 ] in
  List.map
    (fun d ->
      let wp =
        if d <= 16 then
          Some (measure cm ~env ~mechanism:Wp_ioctl ~domains:d ?iterations ())
        else None
      in
      let lz =
        if d = 1 then
          Some (measure cm ~env ~mechanism:Lz_pan ~domains:1 ?iterations ())
        else
          Some (measure cm ~env ~mechanism:Lz_ttbr ~domains:d ?iterations ())
      in
      (d, wp, lz))
    counts

let paper_table5 =
  [ ("Carmel Host",
     [ (1, Some 6759., Some 22.); (2, Some 6787., Some 477.);
       (3, Some 6944., Some 483.); (32, None, Some 469.);
       (64, None, Some 485.); (128, None, Some 490.) ]);
    ("Carmel Guest",
     [ (1, Some 2710., Some 22.); (2, Some 2733., Some 495.);
       (3, Some 2721., Some 494.); (32, None, Some 484.);
       (64, None, Some 498.); (128, None, Some 507.) ]);
    ("Cortex",
     [ (1, Some 915., Some 11.); (2, Some 930., Some 59.);
       (3, Some 927., Some 57.); (32, None, Some 64.);
       (64, None, Some 74.); (128, None, Some 82.) ]) ]
