open Lz_arm
open Lz_cpu
open Lz_kernel
open Lightzone

type row = { label : string; lo : int; hi : int }

let code_va = 0x400000
let stack_va = 0x7F0000000000

(* A program performing [k] empty getpid roundtrips via [trap_insn]. *)
let syscall_loop ~trap k =
  let b = Builder.create ~base:code_va in
  for _ = 1 to k do
    Builder.emit b [ Insn.Movz (8, Kernel.Nr.getpid, 0); trap ]
  done;
  Builder.emit b [ Insn.Brk 0 ];
  b

let fresh_host cm =
  let machine = Machine.create ~cost:cm () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  (machine, kernel, proc)

let fresh_guest cm =
  let machine = Machine.create ~cost:cm () in
  let hyp = Lz_hyp.Hypervisor.create machine in
  let vm = Lz_hyp.Hypervisor.create_vm hyp in
  let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
  let proc = Kernel.create_process gk in
  ignore (Kernel.map_anon gk proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  (machine, hyp, vm, gk, proc)

(* Slope between two run lengths cancels warm-up costs. *)
let slope run k1 k2 =
  let c1 = run k1 and c2 = run k2 in
  (c2 - c1) / (k2 - k1)

let pp_outcome_k ppf = function
  | Kernel.Exited c -> Format.fprintf ppf "exited %d" c
  | Kernel.Segv s -> Format.fprintf ppf "segv %s" s
  | Kernel.Limit_reached -> Format.fprintf ppf "limit"

let host_user_to_el2 cm =
  let run k =
    let _, kernel, proc = fresh_host cm in
    let b = syscall_loop ~trap:(Insn.Svc 0) k in
    let insns, _ = Builder.finish b in
    Kernel.load_program kernel proc ~va:code_va insns;
    let core = Kernel.new_user_core kernel proc ~entry:code_va ~sp:stack_va in
    (match Kernel.run kernel proc core with
    | Kernel.Exited _ -> ()
    | o -> failwith (Format.asprintf "host syscall bench: %a" pp_outcome_k o));
    core.Core.cycles
  in
  slope run 50 150

let guest_user_to_el1 cm =
  let run k =
    let _, hyp, vm, gk, proc = fresh_guest cm in
    let b = syscall_loop ~trap:(Insn.Svc 0) k in
    let insns, _ = Builder.finish b in
    Kernel.load_program gk proc ~va:code_va insns;
    let core = Kernel.new_user_core gk proc ~entry:code_va ~sp:stack_va in
    (match Lz_hyp.Hypervisor.run_guest_process hyp vm gk proc core with
    | Kernel.Exited _ -> ()
    | _ -> failwith "guest syscall bench failed");
    core.Core.cycles
  in
  slope run 50 150

let lz_to_host_el2 cm =
  let run k =
    let _, kernel, proc = fresh_host cm in
    let t =
      Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
        ~sp:stack_va kernel proc
    in
    let b = syscall_loop ~trap:(Insn.Hvc Gate.hvc_syscall) k in
    Api.load_and_register t b ~va:code_va;
    (match Api.run t with
    | Kmod.Exited _ -> ()
    | o -> failwith (Format.asprintf "lz host bench: %a" Kmod.pp_outcome o));
    t.Kmod.core.Core.cycles
  in
  slope run 50 150

let lz_to_guest_kernel cm =
  let run k =
    let _, hyp, vm, gk, proc = fresh_guest cm in
    let t =
      Api.lz_enter ~backend:(Kmod.Guest (Lowvisor.create hyp vm))
        ~allow_scalable:true ~insn_san:1 ~entry:code_va ~sp:stack_va gk proc
    in
    let b = syscall_loop ~trap:(Insn.Hvc Gate.hvc_syscall) k in
    Api.load_and_register t b ~va:code_va;
    (match Api.run t with
    | Kmod.Exited _ -> ()
    | o -> failwith (Format.asprintf "lz guest bench: %a" Kmod.pp_outcome o));
    t.Kmod.core.Core.cycles
  in
  let steady = slope run 50 150 in
  (steady, steady + cm.Cost_model.nested_repoint)

let kvm_hypercall cm =
  let run k =
    let machine = Machine.create ~cost:cm () in
    let hyp = Lz_hyp.Hypervisor.create machine in
    let vm = Lz_hyp.Hypervisor.create_vm hyp in
    (* A bare EL1 "guest kernel" context issuing hypercalls. *)
    let core = Machine.new_core ~route_el1_to_harness:true machine
        Pstate.EL1 in
    let root = Lz_mem.Stage1.create_root machine.Machine.phys in
    let pa = Lz_mem.Phys.alloc_frames machine.Machine.phys
        ((4 * (k + 2) / 4096) + 1) in
    let b = Builder.create ~base:code_va in
    for _ = 1 to k do Builder.emit b [ Insn.Hvc 0 ] done;
    Builder.emit b [ Insn.Brk 0 ];
    let insns, _ = Builder.finish b in
    List.iteri
      (fun i insn ->
        Lz_mem.Phys.write32 machine.Machine.phys (pa + (4 * i))
          (Encoding.encode insn))
      insns;
    List.iteri
      (fun i _ ->
        if i mod 1024 = 0 then
          Lz_mem.Stage1.map_page machine.Machine.phys ~root
            ~va:(code_va + (4 * i)) ~pa:(pa + (4 * i))
            { Lz_mem.Pte.user = false; read_only = true; uxn = true;
              pxn = false; ng = false })
      insns;
    Sysreg.write core.Core.sys Sysreg.TTBR0_EL1
      (Lz_mem.Mmu.ttbr_value ~root ~asid:1);
    (* The guest kernel runs inside the VM: stage 2 active. *)
    Sysreg.write core.Core.sys Sysreg.HCR_EL2 Sysreg.Hcr.vm;
    Sysreg.write core.Core.sys Sysreg.VTTBR_EL2 (Lz_hyp.Vm.vttbr vm);
    core.Core.pc <- code_va;
    let rec drive () =
      match Core.run core with
      | Core.Trap_el2 (Core.Ec_hvc _) ->
          Lz_hyp.Hypervisor.hypercall_roundtrip hyp vm core;
          Core.eret_from_el2 core;
          drive ()
      | Core.Trap_el2 ((Core.Ec_dabort f | Core.Ec_iabort f))
        when f.Lz_mem.Mmu.stage = 2 -> (
          match Lz_hyp.Hypervisor.handle_s2_fault hyp vm f with
          | `Handled ->
              Core.eret_from_el2 core;
              drive ()
          | `Fatal -> failwith "kvm bench: fatal stage-2 fault")
      | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
      | s -> failwith (Format.asprintf "kvm bench: %a" Core.pp_stop s)
    in
    drive ();
    core.Core.cycles
  in
  slope run 50 150

(* Every run is deterministic, so a row with one value runs once. *)
let table cm =
  let steady, fluct = lz_to_guest_kernel cm in
  let exact label v = { label; lo = v; hi = v } in
  [ exact "host user mode to host hypervisor mode" (host_user_to_el2 cm);
    exact "guest user mode to guest kernel mode" (guest_user_to_el1 cm);
    exact "LightZone kernel mode to host hypervisor mode" (lz_to_host_el2 cm);
    { label = "LightZone kernel mode to guest kernel mode";
      lo = steady; hi = fluct };
    exact "KVM Virtualization Host Extensions hypercall" (kvm_hypercall cm);
    exact "update HCR_EL2" cm.Cost_model.hcr_write;
    exact "update VTTBR_EL2" cm.Cost_model.vttbr_write ]

let paper =
  [ ("host user mode to host hypervisor mode", (3848, 3848), (299, 299));
    ("guest user mode to guest kernel mode", (1423, 1423), (288, 288));
    ("LightZone kernel mode to host hypervisor mode", (3316, 3316),
     (536, 536));
    ("LightZone kernel mode to guest kernel mode", (29020, 32881),
     (1798, 2179));
    ("KVM Virtualization Host Extensions hypercall", (28580, 28580),
     (1287, 1287));
    ("update HCR_EL2", (1550, 1655), (88, 88));
    ("update VTTBR_EL2", (1115, 1115), (37, 37)) ]
