open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel

type t = {
  machine : Machine.t;
  mutable vms : Vm.t list;
  mutable next_vmid : int;
  mutable world_switches : int;
}

let create machine = { machine; vms = []; next_vmid = 1; world_switches = 0 }

let create_vm t =
  let vm = Vm.create t.machine ~vmid:t.next_vmid in
  t.next_vmid <- t.next_vmid + 1;
  t.vms <- vm :: t.vms;
  vm

let rwx = Stage2.{ read = true; write = true; exec = true }

let map_identity t (vm : Vm.t) pa =
  Stage2.map_page t.machine.Machine.phys ~root:vm.s2_root
    ~ipa:(Bits.align_down pa 4096) ~pa:(Bits.align_down pa 4096) rwx;
  vm.pages_mapped <- vm.pages_mapped + 1

let make_guest_kernel t vm =
  let k = Kernel.create t.machine Kernel.Guest in
  k.Kernel.s2_ctx <- Some (vm.Vm.vmid, vm.Vm.s2_root);
  k.Kernel.alloc_frame <-
    (fun () ->
      let pa = Phys.alloc_frame t.machine.Machine.phys in
      map_identity t vm pa;
      pa);
  k

let handle_s2_fault t (vm : Vm.t) (f : Mmu.fault) =
  match f.kind with
  | Mmu.Permission -> `Fatal
  | Mmu.Translation ->
      vm.s2_faults <- vm.s2_faults + 1;
      map_identity t vm f.ipa;
      `Handled

(* The registers KVM's VHE world switch moves on every exit/entry. *)
let switched_regs = Sysreg.el1_context

let charge_reg_save core r =
  (* read the register at EL2, store to the vCPU context in memory *)
  Core.charge_sysreg core ~at:Pstate.EL2 r;
  Core.charge core core.Core.cost.Cost_model.mem_access

let charge_reg_restore core r =
  Core.charge core core.Core.cost.Cost_model.mem_access;
  Core.charge_sysreg core ~at:Pstate.EL2 r

let note_world_switch (vm : Vm.t) (core : Core.t) ~enter =
  match Core.tracer core with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:core.Core.cycles
        (Lz_trace.Trace.World_switch { enter; vmid = vm.Vm.vmid })
  | None -> ()

let vcpu_load t (vm : Vm.t) (core : Core.t) =
  t.world_switches <- t.world_switches + 1;
  note_world_switch vm core ~enter:true;
  List.iter
    (fun r ->
      charge_reg_restore core r;
      Sysreg.write core.Core.sys r (Sysreg.read vm.Vm.saved_el1 r))
    switched_regs;
  Core.charge_sysreg core ~at:Pstate.EL2 Sysreg.HCR_EL2;
  Sysreg.write core.Core.sys Sysreg.HCR_EL2 Sysreg.Hcr.vm;
  Core.charge_sysreg core ~at:Pstate.EL2 Sysreg.VTTBR_EL2;
  Sysreg.write core.Core.sys Sysreg.VTTBR_EL2 (Vm.vttbr vm);
  Core.charge core core.Core.cost.Cost_model.vm_extra_switch

let vcpu_put t (vm : Vm.t) (core : Core.t) =
  t.world_switches <- t.world_switches + 1;
  note_world_switch vm core ~enter:false;
  List.iter
    (fun r ->
      charge_reg_save core r;
      Sysreg.write vm.Vm.saved_el1 r (Sysreg.read core.Core.sys r))
    switched_regs;
  (* Back to host configuration: TGE routes EL0 traps to the host. *)
  Core.charge_sysreg core ~at:Pstate.EL2 Sysreg.HCR_EL2;
  Sysreg.write core.Core.sys Sysreg.HCR_EL2
    (Sysreg.Hcr.tge lor Sysreg.Hcr.e2h)

let hypercall_roundtrip t vm (core : Core.t) =
  vcpu_put t vm core;
  Core.charge core core.Core.cost.Cost_model.dispatch;
  vcpu_load t vm core

(* Guest user cores run with HCR_EL2 = VM only: neither IMO nor TGE
   claims their IRQs, so a physical interrupt enters the guest kernel
   at EL1 ([Trap_el1], serviced by [Kernel.service_trap]) and never
   exits to EL2. *)
let run_guest_process t vm (k : Kernel.t) (p : Proc.t) (core : Core.t) =
  let budget = ref 50_000_000 in
  let rec loop () =
    if !budget <= 0 then Kernel.Limit_reached
    else begin
      let before = core.Core.insns in
      let stop = Core.run ~max_insns:!budget core in
      budget := !budget - (core.Core.insns - before);
      match stop with
      | Core.Limit -> Kernel.Limit_reached
      | Core.Stall -> assert false (* no shootdown hook under the hypervisor *)
      | Core.Trap_el1 cls -> (
          match Kernel.service_trap k p core cls ~at:Pstate.EL1 with
          | `Stop o -> o
          | `Continue -> (
              match p.Proc.exit_code with
              | Some code -> Kernel.Exited code
              | None ->
                  Core.eret_from_el1 core;
                  loop ()))
      | Core.Trap_el2 ((Core.Ec_dabort f | Core.Ec_iabort f) as cls)
        when f.Mmu.stage = 2 -> (
          Core.charge core core.Core.cost.Cost_model.dispatch;
          match handle_s2_fault t vm f with
          | `Handled ->
              Core.eret_from_el2 core;
              loop ()
          | `Fatal ->
              Kernel.Segv
                (Format.asprintf "fatal stage-2 %a" Core.pp_stop
                   (Core.Trap_el2 cls)))
      | Core.Trap_el2 (Core.Ec_hvc _) ->
          (* Conventional guest hypercall: full world switch. *)
          hypercall_roundtrip t vm core;
          Core.eret_from_el2 core;
          loop ()
      | Core.Trap_el2 cls ->
          Kernel.Segv
            (Format.asprintf "unexpected EL2 trap: %a" Core.pp_stop
               (Core.Trap_el2 cls))
    end
  in
  loop ()
