(* Tests for the OS kernel model: processes, VMAs, demand paging,
   syscalls from simulated EL0 programs, and the trap-cost plumbing. *)

open Lz_arm
open Lz_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_va = 0x400000
let stack_va = 0x7F0000000000

let fresh () =
  let machine = Machine.create () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  (machine, kernel, proc)

let run_program kernel proc insns =
  Kernel.load_program kernel proc ~va:code_va insns;
  let core = Kernel.new_user_core kernel proc ~entry:code_va ~sp:stack_va in
  (Kernel.run kernel proc core, core)

(* ------------------------------------------------------------------ *)

let test_vma () =
  let v = Vma.make ~start:0x1234 ~len:100 Vma.rw in
  check_int "aligned start" 0x1000 v.Vma.start;
  check_bool "contains" true (Vma.contains v 0x1234);
  check_bool "not contains" false (Vma.contains v 0x2000);
  check_bool "overlap" true (Vma.overlaps v ~start:0x1800 ~len:0x1000);
  check_bool "no overlap" false (Vma.overlaps v ~start:0x2000 ~len:0x1000)

let test_vma_no_overlapping_add () =
  let _, kernel, proc = fresh () in
  ignore kernel;
  Proc.add_vma proc (Vma.make ~start:0x10000 ~len:4096 Vma.rw);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Proc.add_vma: overlapping VMA") (fun () ->
      Proc.add_vma proc (Vma.make ~start:0x10800 ~len:4096 Vma.rw))

let test_demand_paging () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:0x600000 ~len:0x3000 Vma.rw);
  check_bool "not resident before" true
    (Proc.mapped_pa proc ~va:0x600000 = None);
  let outcome, core =
    run_program kernel proc
      [ Insn.Movz (0, 0x60, 0); Insn.Lsl_imm (0, 0, 16);
        Insn.Movz (1, 7, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
        Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Mov_reg (0, 2); Insn.Svc 0 ]
  in
  (match outcome with
  | Kernel.Exited 7 -> ()
  | Kernel.Exited n -> Alcotest.failf "exit %d" n
  | Kernel.Segv s -> Alcotest.failf "segv: %s" s
  | Kernel.Limit_reached -> Alcotest.fail "limit");
  check_bool "resident after" true (Proc.mapped_pa proc ~va:0x600000 <> None);
  check_int "one data fault + code + stack-less" 2 proc.Proc.fault_count
  |> ignore;
  ignore core

let test_segv_no_vma () =
  let _, kernel, proc = fresh () in
  let outcome, _ =
    run_program kernel proc
      [ Insn.Movz (0, 0x9999, 0); Insn.Lsl_imm (0, 0, 12); Insn.Ldr (1, 0, 0) ]
  in
  match outcome with
  | Kernel.Segv _ -> ()
  | o ->
      Alcotest.failf "expected segv, got %s"
        (match o with
        | Kernel.Exited n -> Printf.sprintf "exit %d" n
        | _ -> "limit")

let test_segv_write_to_rx () =
  let _, kernel, proc = fresh () in
  let outcome, _ =
    run_program kernel proc
      [ (* store into the code page itself *)
        Insn.Movz (0, 0x40, 0); Insn.Lsl_imm (0, 0, 16);
        Insn.Str (0, 0, 0) ]
  in
  match outcome with
  | Kernel.Segv _ -> ()
  | _ -> Alcotest.fail "writing code must fault"

let test_write_syscall () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:0x600000 ~len:0x1000 Vma.rw);
  Kernel.write_user kernel proc ~va:0x600000 (Bytes.of_string "ping\n");
  let outcome, _ =
    run_program kernel proc
      [ Insn.Movz (8, Kernel.Nr.write, 0);
        Insn.Movz (0, 1, 0);
        Insn.Movz (1, 0x60, 0); Insn.Lsl_imm (1, 1, 16);
        Insn.Movz (2, 5, 0);
        Insn.Svc 0;
        Insn.Movz (8, Kernel.Nr.exit_group, 0); Insn.Movz (0, 0, 0);
        Insn.Svc 0 ]
  in
  (match outcome with
  | Kernel.Exited 0 -> ()
  | _ -> Alcotest.fail "write program failed");
  Alcotest.(check string) "stdout" "ping\n" (Buffer.contents proc.Proc.output)

let test_mmap_syscall () =
  let _, kernel, proc = fresh () in
  let outcome, core =
    run_program kernel proc
      [ Insn.Movz (8, Kernel.Nr.mmap, 0);
        Insn.Movz (0, 0, 0);           (* addr hint: none *)
        Insn.Movz (1, 0x2000, 0);      (* len *)
        Insn.Movz (2, 3, 0);           (* PROT_READ|PROT_WRITE *)
        Insn.Svc 0;
        Insn.Movz (1, 55, 0);
        Insn.Str (1, 0, 0);            (* use the new mapping *)
        Insn.Ldr (9, 0, 0);
        Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Mov_reg (0, 9); Insn.Svc 0 ]
  in
  match outcome with
  | Kernel.Exited 55 -> ()
  | Kernel.Segv s -> Alcotest.failf "segv %s" s
  | _ -> Alcotest.failf "mmap flow failed (x0=%d)" (Lz_cpu.Core.reg core 0)

let test_munmap_revokes () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:0x600000 ~len:0x1000 Vma.rw);
  Kernel.populate kernel proc ~start:0x600000 ~len:0x1000;
  Kernel.munmap kernel proc ~start:0x600000 ~len:0x1000;
  check_bool "unmapped" true (Proc.mapped_pa proc ~va:0x600000 = None);
  let outcome, _ =
    run_program kernel proc
      [ Insn.Movz (0, 0x60, 0); Insn.Lsl_imm (0, 0, 16); Insn.Ldr (1, 0, 0) ]
  in
  match outcome with
  | Kernel.Segv _ -> ()
  | _ -> Alcotest.fail "access after munmap must fault"

let test_mprotect_downgrade () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:0x600000 ~len:0x1000 Vma.rw);
  Kernel.populate kernel proc ~start:0x600000 ~len:0x1000;
  Kernel.mprotect kernel proc ~start:0x600000 ~len:0x1000 Vma.r;
  let outcome, _ =
    run_program kernel proc
      [ Insn.Movz (0, 0x60, 0); Insn.Lsl_imm (0, 0, 16); Insn.Str (0, 0, 0) ]
  in
  match outcome with
  | Kernel.Segv _ -> ()
  | _ -> Alcotest.fail "write after mprotect(R) must fault"

let test_read_write_user_roundtrip () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:0x600000 ~len:0x3000 Vma.rw);
  (* Crosses page boundaries. *)
  let data = Bytes.init 6000 (fun i -> Char.chr (i land 0xFF)) in
  Kernel.write_user kernel proc ~va:0x600800 data;
  let back = Kernel.read_user kernel proc ~va:0x600800 ~len:6000 in
  check_bool "roundtrip" true (Bytes.equal data back)

let test_unknown_syscall_enosys () =
  let _, kernel, proc = fresh () in
  let outcome, _ =
    run_program kernel proc
      [ Insn.Movz (8, 9999, 0); Insn.Svc 0;
        Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Svc 0 ]
  in
  (* exit code is x0 = -38 masked into the exit path; just check it
     terminated via exit rather than crashing *)
  match outcome with
  | Kernel.Exited _ -> ()
  | _ -> Alcotest.fail "unknown syscall must return, not kill"

let test_guest_process_runs () =
  let machine = Machine.create () in
  let hyp = Lz_hyp.Hypervisor.create machine in
  let vm = Lz_hyp.Hypervisor.create_vm hyp in
  let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
  let proc = Kernel.create_process gk in
  ignore (Kernel.map_anon gk proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  Kernel.load_program gk proc ~va:code_va
    [ Insn.Movz (8, Kernel.Nr.getpid, 0); Insn.Svc 0;
      Insn.Mov_reg (9, 0);
      Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Movz (0, 3, 0); Insn.Svc 0 ];
  let core = Kernel.new_user_core gk proc ~entry:code_va ~sp:stack_va in
  (match Lz_hyp.Hypervisor.run_guest_process hyp vm gk proc core with
  | Kernel.Exited 3 -> ()
  | _ -> Alcotest.fail "guest process failed");
  check_int "getpid in guest" proc.Proc.pid (Lz_cpu.Core.reg core 9);
  check_bool "stage-2 faults were serviced" true (vm.Lz_hyp.Vm.s2_faults >= 0)

(* A guest user core runs with HCR_EL2 = VM only, so neither IMO nor
   TGE claims its IRQs: a timer tick in a guest process is taken at
   EL1 and fielded by the guest kernel's [on_tick] through the
   hypervisor's [Trap_el1] arm, never as an EL2 exit. *)
let test_guest_process_takes_ticks () =
  let machine = Machine.create () in
  let hyp = Lz_hyp.Hypervisor.create machine in
  let vm = Lz_hyp.Hypervisor.create_vm hyp in
  let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
  let proc = Kernel.create_process gk in
  ignore (Kernel.map_anon gk proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  Kernel.load_program gk proc ~va:code_va
    [ Insn.Movz (0, 2_000, 0);
      Insn.Subs (0, 0, Insn.Imm 1);
      Insn.Bcond (Insn.NE, -4);
      Insn.Movz (8, Kernel.Nr.exit, 0); Insn.Movz (0, 0, 0); Insn.Svc 0 ];
  let core = Kernel.new_user_core gk proc ~entry:code_va ~sp:stack_va in
  let iv = Lz_cpu.Core.attach_irq core in
  Lz_irq.Irq.init iv;
  let tr = Lz_trace.Trace.create () in
  Lz_cpu.Core.set_tracer core (Some tr);
  let ticks = ref 0 in
  gk.Kernel.on_tick <-
    Some
      (fun core intid ->
        if intid = Lz_irq.Gic.ppi_el1_timer then begin
          incr ticks;
          Lz_irq.Timer.program iv.Lz_irq.Irq.timer
            ~now:core.Lz_cpu.Core.cycles ~slice:1_000
        end);
  Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Lz_cpu.Core.cycles
    ~slice:1_000;
  (match Lz_hyp.Hypervisor.run_guest_process hyp vm gk proc core with
  | Kernel.Exited 0 -> ()
  | Kernel.Exited n -> Alcotest.failf "exit %d" n
  | Kernel.Segv s -> Alcotest.failf "segv: %s" s
  | Kernel.Limit_reached -> Alcotest.fail "limit");
  check_bool "took a tick" true (!ticks >= 1);
  let entries =
    List.filter_map
      (fun (e : Lz_trace.Trace.event) ->
        match e.Lz_trace.Trace.payload with
        | Lz_trace.Trace.Irq_enter { to_el; _ } -> Some to_el
        | _ -> None)
      (Lz_trace.Trace.events tr)
  in
  check_int "one EL1 entry per tick" !ticks
    (List.length (List.filter (( = ) 1) entries));
  check_int "no EL2 entries" 0 (List.length (List.filter (( = ) 2) entries))

let test_host_cheaper_than_guest_syscall () =
  (* On Carmel a guest syscall is cheaper than a host one (Table 4);
     verify the models preserve that platform quirk. *)
  let host = Lz_eval.Trap_bench.host_user_to_el2 Lz_cpu.Cost_model.carmel in
  let guest = Lz_eval.Trap_bench.guest_user_to_el1 Lz_cpu.Cost_model.carmel in
  check_bool "carmel guest < host" true (guest < host);
  let host_a = Lz_eval.Trap_bench.host_user_to_el2 Lz_cpu.Cost_model.cortex_a55 in
  let guest_a =
    Lz_eval.Trap_bench.guest_user_to_el1 Lz_cpu.Cost_model.cortex_a55
  in
  check_bool "a55 comparable" true (abs (host_a - guest_a) < 100)

let () =
  Alcotest.run "lz_kernel"
    [ ( "vma",
        [ Alcotest.test_case "geometry" `Quick test_vma;
          Alcotest.test_case "overlap rejected" `Quick
            test_vma_no_overlapping_add ] );
      ( "paging",
        [ Alcotest.test_case "demand paging" `Quick test_demand_paging;
          Alcotest.test_case "segv no vma" `Quick test_segv_no_vma;
          Alcotest.test_case "segv write rx" `Quick test_segv_write_to_rx;
          Alcotest.test_case "munmap" `Quick test_munmap_revokes;
          Alcotest.test_case "mprotect" `Quick test_mprotect_downgrade;
          Alcotest.test_case "user copy" `Quick
            test_read_write_user_roundtrip ] );
      ( "syscalls",
        [ Alcotest.test_case "write" `Quick test_write_syscall;
          Alcotest.test_case "mmap" `Quick test_mmap_syscall;
          Alcotest.test_case "enosys" `Quick test_unknown_syscall_enosys ] );
      ( "guest",
        [ Alcotest.test_case "process in VM" `Quick test_guest_process_runs;
          Alcotest.test_case "carmel quirk" `Quick
            test_host_cheaper_than_guest_syscall;
          Alcotest.test_case "ticks in VM" `Quick
            test_guest_process_takes_ticks ] ) ]
