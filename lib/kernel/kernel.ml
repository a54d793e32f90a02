open Lz_arm
open Lz_mem
open Lz_cpu

type mode = Host_vhe | Guest

type outcome = Exited of int | Segv of string | Limit_reached

type t = {
  machine : Machine.t;
  mode : mode;
  mutable procs : Proc.t list;
  mutable next_pid : int;
  mutable next_asid : int;
  mutable s2_ctx : (int * int) option;
  mutable alloc_frame : unit -> int;
  mutable custom_trap :
    (t -> Proc.t -> Core.t -> Core.exception_class -> bool) option;
  mutable syscall_count : int;
  mutable on_tick : (Core.t -> int -> unit) option;
}

module Nr = struct
  let getpid = 172
  let gettid = 178
  let write = 64
  let exit = 93
  let exit_group = 94
  let mmap = 222
  let munmap = 215
  let mprotect = 226
  let clock_gettime = 113
end

let create machine mode =
  let m = machine in
  { machine;
    mode;
    procs = [];
    next_pid = 1;
    next_asid = 1;
    s2_ctx = None;
    alloc_frame = (fun () -> Phys.alloc_frame m.Machine.phys);
    custom_trap = None;
    syscall_count = 0;
    on_tick = None }

let create_process t =
  let p = Proc.create t.machine ~pid:t.next_pid ~asid:t.next_asid in
  t.next_pid <- t.next_pid + 1;
  t.next_asid <- t.next_asid + 1;
  t.procs <- p :: t.procs;
  p

let new_user_core t (p : Proc.t) ~entry ~sp =
  let route_el1 = true in
  let core = Machine.new_core ~route_el1_to_harness:route_el1 t.machine
      Pstate.EL0 in
  Sysreg.write core.sys Sysreg.TTBR0_EL1
    (Mmu.ttbr_value ~root:p.root ~asid:p.asid);
  (match t.mode with
  | Host_vhe ->
      Sysreg.write core.sys Sysreg.HCR_EL2
        (Sysreg.Hcr.tge lor Sysreg.Hcr.e2h)
  | Guest -> (
      match t.s2_ctx with
      | Some (vmid, s2_root) ->
          Sysreg.write core.sys Sysreg.HCR_EL2 Sysreg.Hcr.vm;
          Sysreg.write core.sys Sysreg.VTTBR_EL2
            (Mmu.ttbr_value ~root:s2_root ~asid:vmid)
      | None -> ()));
  core.pc <- entry;
  core.sp_el0 <- sp;
  core

(* Attributes the Linux-managed table gives a user page. *)
let user_attrs (prot : Vma.prot) =
  { Pte.user = true; read_only = not prot.w; uxn = not prot.x; pxn = true;
    ng = true }

let vmid_of t = match t.s2_ctx with Some (vmid, _) -> vmid | None -> 0

let install_page t (p : Proc.t) ~va ~prot =
  let phys = t.machine.Machine.phys in
  let pa = t.alloc_frame () in
  let va = Bits.align_down va 4096 in
  Stage1.map_page phys ~root:p.root ~va ~pa (user_attrs prot);
  p.fault_count <- p.fault_count + 1;
  (match p.on_map with Some f -> f ~va ~pa ~prot | None -> ());
  pa

let map_anon _t (p : Proc.t) ?at ~len prot =
  let start =
    match at with
    | Some a -> a
    | None ->
        let a = p.mmap_hint in
        p.mmap_hint <- p.mmap_hint + ((len + 4095) / 4096 * 4096) + 4096;
        a
  in
  Proc.add_vma p (Vma.make ~start ~len prot);
  start

let fault_in_page t (p : Proc.t) ~va =
  match Proc.find_vma p va with
  | None -> invalid_arg "Kernel.fault_in_page: no VMA"
  | Some vma ->
      (match Stage1.walk t.machine.Machine.phys ~root:p.root ~va with
      | Ok _ -> ()
      | Error _ -> ignore (install_page t p ~va ~prot:vma.Vma.prot))

let populate t p ~start ~len =
  let pages = (len + (start land 4095) + 4095) / 4096 in
  for i = 0 to pages - 1 do
    fault_in_page t p ~va:(Bits.align_down start 4096 + (i * 4096))
  done

(* Kernel-side page invalidation, modelling `tlbi vae1is` executed by
   the core servicing the syscall: flush the invoking core's TLB and
   broadcast the shootdown to the other cores through its
   [on_shootdown] hook (a no-op on single-core machines, where the
   core's TLB is the machine TLB and no hook is installed). Without a
   core — OCaml-modelled setup paths — flush the machine TLB
   directly. *)
let flush_proc_page ?core t ~va =
  let vmid = vmid_of t in
  match core with
  | Some (c : Core.t) ->
      Tlb.flush_va c.Core.tlb ~vmid ~va;
      Core.broadcast_shootdown c (Core.Sd_vae1 { vmid; va })
  | None -> Tlb.flush_va t.machine.Machine.tlb ~vmid ~va

let munmap ?core t (p : Proc.t) ~start ~len =
  let phys = t.machine.Machine.phys in
  ignore (Proc.remove_vma_range p ~start ~len);
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    let va = Bits.align_down start 4096 + (i * 4096) in
    (match Stage1.walk phys ~root:p.root ~va with
    | Ok w ->
        Stage1.unmap phys ~root:p.root ~va;
        Phys.free_frame phys (Bits.align_down w.Stage1.pa 4096);
        (match p.on_unmap with Some f -> f ~va | None -> ())
    | Error _ -> ());
    flush_proc_page ?core t ~va
  done

let mprotect ?core t (p : Proc.t) ~start ~len prot =
  let phys = t.machine.Machine.phys in
  (match Proc.find_vma p start with
  | Some vma -> vma.Vma.prot <- prot
  | None -> ());
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    let va = Bits.align_down start 4096 + (i * 4096) in
    ignore (Stage1.set_attrs phys ~root:p.root ~va (user_attrs prot));
    (match p.on_protect with Some f -> f ~va ~prot | None -> ());
    flush_proc_page ?core t ~va
  done

let write_user t (p : Proc.t) ~va b =
  let phys = t.machine.Machine.phys in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    fault_in_page t p ~va:a;
    match Stage1.walk phys ~root:p.root ~va:a with
    | Error _ -> failwith "Kernel.write_user: unmapped after fault-in"
    | Ok w ->
        let in_page = min (len - !pos) (4096 - (a land 4095)) in
        Phys.write_bytes phys w.Stage1.pa (Bytes.sub b !pos in_page);
        pos := !pos + in_page
  done

let read_user t (p : Proc.t) ~va ~len =
  let phys = t.machine.Machine.phys in
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    fault_in_page t p ~va:a;
    match Stage1.walk phys ~root:p.root ~va:a with
    | Error _ -> failwith "Kernel.read_user: unmapped after fault-in"
    | Ok w ->
        let in_page = min (len - !pos) (4096 - (a land 4095)) in
        Bytes.blit (Phys.read_bytes phys w.Stage1.pa in_page) 0 out !pos
          in_page;
        pos := !pos + in_page
  done;
  out

let load_program t (p : Proc.t) ~va insns =
  let len = 4 * List.length insns in
  Proc.add_vma p (Vma.make ~start:va ~len Vma.rx);
  let b = Bytes.create len in
  List.iteri
    (fun i insn -> Bytes.set_int32_le b (4 * i)
        (Int32.of_int (Encoding.encode insn)))
    insns;
  (* Writing through write_user requires a writable VMA; bypass by
     populating then writing physically, as an ELF loader would. *)
  populate t p ~start:va ~len;
  let phys = t.machine.Machine.phys in
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    match Stage1.walk phys ~root:p.root ~va:a with
    | Error _ -> failwith "Kernel.load_program: populate failed"
    | Ok w ->
        let in_page = min (len - !pos) (4096 - (a land 4095)) in
        Phys.write_bytes phys w.Stage1.pa (Bytes.sub b !pos in_page);
        pos := !pos + in_page
  done

let prot_allows (prot : Vma.prot) (access : Mmu.access) =
  match access with
  | Mmu.Read -> prot.r
  | Mmu.Write -> prot.w
  | Mmu.Exec -> prot.x

let handle_fault ?core t (p : Proc.t) (f : Mmu.fault) =
  (match core with
  | Some co -> Core.charge co t.machine.Machine.cost.Cost_model.dispatch
  | None -> ());
  match f.kind with
  | Mmu.Permission -> `Segv
  | Mmu.Translation -> (
      match Proc.find_vma p f.va with
      | Some vma when prot_allows vma.Vma.prot f.access ->
          (* Spurious faults (the page is resident but the faulting
             walk used a secondary table, e.g. an lwC context view)
             must not re-install — that would replace the frame. *)
          (match Stage1.walk t.machine.Machine.phys ~root:p.root ~va:f.va with
          | Ok _ -> ()
          | Error _ -> ignore (install_page t p ~va:f.va ~prot:vma.Vma.prot));
          `Handled
      | Some _ | None -> `Segv)

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let errnosys = -38

let do_syscall t (p : Proc.t) (core : Core.t) =
  t.syscall_count <- t.syscall_count + 1;
  Core.charge core t.machine.Machine.cost.Cost_model.dispatch;
  let nr = Core.reg core 8 in
  (match Core.tracer core with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:core.Core.cycles
        (Lz_trace.Trace.Syscall { nr })
  | None -> ());
  let arg i = Core.reg core i in
  let ret v = Core.set_reg core 0 v in
  if nr = Nr.getpid then ret p.pid
  else if nr = Nr.gettid then ret p.pid
  else if nr = Nr.write then begin
    let va = arg 1 and len = arg 2 in
    (try
       Buffer.add_bytes p.output (read_user t p ~va ~len);
       ret len
     with _ -> ret (-14) (* EFAULT *))
  end
  else if nr = Nr.exit || nr = Nr.exit_group then
    p.exit_code <- Some (arg 0)
  else if nr = Nr.mmap then begin
    let addr = arg 0 and len = arg 1 and prot_bits = arg 2 in
    let prot =
      { Vma.r = prot_bits land 1 <> 0;
        w = prot_bits land 2 <> 0;
        x = prot_bits land 4 <> 0 }
    in
    try
      let at = if addr = 0 then None else Some addr in
      ret (map_anon t p ?at ~len prot)
    with Invalid_argument _ -> ret (-22) (* EINVAL *)
  end
  else if nr = Nr.munmap then begin
    munmap ~core t p ~start:(arg 0) ~len:(arg 1);
    ret 0
  end
  else if nr = Nr.mprotect then begin
    let prot_bits = arg 2 in
    let prot =
      { Vma.r = prot_bits land 1 <> 0;
        w = prot_bits land 2 <> 0;
        x = prot_bits land 4 <> 0 }
    in
    mprotect ~core t p ~start:(arg 0) ~len:(arg 1) prot;
    ret 0
  end
  else if nr = Nr.clock_gettime then ret core.cycles
  else ret errnosys

(* ------------------------------------------------------------------ *)
(* Interrupts *)

(* A physical interrupt claimed by this kernel (HCR_EL2.TGE routes the
   host's IRQs to EL2; a guest kernel's arrive at its EL1 vector): the
   GIC service runs the tick hook, where the preemptive scheduler
   installs itself. *)
let service_irq t (core : Core.t) =
  Core.service_irq core (fun intid ->
      match t.on_tick with Some f -> f core intid | None -> ())

(* ------------------------------------------------------------------ *)
(* Trap servicing and the run loop *)

(* Cycle charges of the kernel's generic entry/exit code around a
   trap. [at] is the EL the kernel runs at. *)
let charge_entry t (core : Core.t) ~at =
  let c = t.machine.Machine.cost in
  Core.charge core c.Cost_model.gp_save;
  let esr = match at with
    | Pstate.EL2 -> Sysreg.ESR_EL2
    | _ -> Sysreg.ESR_EL1
  in
  Core.charge_sysreg core ~at esr

let charge_exit t (core : Core.t) =
  let c = t.machine.Machine.cost in
  Core.charge core c.Cost_model.gp_restore;
  Core.charge core c.Cost_model.trap_pollution

let service_trap t (p : Proc.t) (core : Core.t) cls ~at =
  charge_entry t core ~at;
  let result =
    match t.custom_trap with
    | Some f when f t p core cls -> (
        match p.Proc.killed with
        | Some why -> `Stop (Segv why)
        | None -> `Continue)
    | _ -> (
        match cls with
        | Core.Ec_svc _ ->
            do_syscall t p core;
            `Continue
        | Core.Ec_dabort f | Core.Ec_iabort f -> (
            (* handle_fault charges the fault dispatch against
               [core]. *)
            match handle_fault ~core t p f with
            | `Handled -> `Continue
            | `Segv ->
                `Stop (Segv (Format.asprintf "%a" Mmu.pp_fault f)))
        | Core.Ec_brk code -> `Stop (Exited code)
        | Core.Ec_undef w ->
            `Stop (Segv (Printf.sprintf "illegal instruction 0x%08x" w))
        | Core.Ec_watchpoint va ->
            `Stop (Segv (Printf.sprintf "watchpoint hit at 0x%x" va))
        | Core.Ec_wfi -> `Continue
        | Core.Ec_irq _ ->
            service_irq t core;
            `Continue
        | Core.Ec_hvc _ | Core.Ec_smc _ ->
            `Stop (Segv "unexpected hypercall from user process")
        | Core.Ec_sysreg_trap i ->
            `Stop (Segv (Format.asprintf "trapped system access: %a"
                           Insn.pp i)))
  in
  charge_exit t core;
  result

let run ?(max_insns = 50_000_000) t (p : Proc.t) (core : Core.t) =
  let budget = ref max_insns in
  let rec loop () =
    if !budget <= 0 then Limit_reached
    else begin
      let before = core.insns in
      let stop = Core.run ~max_insns:!budget core in
      budget := !budget - (core.insns - before);
      match stop with
      | Core.Limit -> Limit_reached
      (* Only the SMP machine driver installs a shootdown hook and
         drives stalled cores; a lone kernel-run core never stalls. *)
      | Core.Stall -> assert false
      | Core.Trap_el2 cls -> (
          match service_trap t p core cls ~at:Pstate.EL2 with
          | `Stop o -> o
          | `Continue -> (
              match p.exit_code with
              | Some code -> Exited code
              | None ->
                  Core.eret_from_el2 core;
                  loop ()))
      | Core.Trap_el1 cls -> (
          match service_trap t p core cls ~at:Pstate.EL1 with
          | `Stop o -> o
          | `Continue -> (
              match p.exit_code with
              | Some code -> Exited code
              | None ->
                  Core.eret_from_el1 core;
                  loop ()))
    end
  in
  loop ()
