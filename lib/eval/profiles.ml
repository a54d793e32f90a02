open Lz_cpu
open Lz_workloads

type mech = Orig | Lz_pan | Lz_ttbr | Wp | Lwc

let all_mechs = [ Orig; Lz_pan; Lz_ttbr; Wp; Lwc ]

let mech_name = function
  | Orig -> "original"
  | Lz_pan -> "LightZone PAN"
  | Lz_ttbr -> "LightZone TTBR"
  | Wp -> "Watchpoint"
  | Lwc -> "lwC"

let cache : (string, Iso_profile.t) Hashtbl.t = Hashtbl.create 32

let key cm env mech =
  Printf.sprintf "%s/%s/%s" (Cost_model.name cm)
    (match env with Switch_bench.Host -> "host" | Switch_bench.Guest -> "guest")
    (mech_name mech)

(* Extra page-walk work per TLB miss under stage-2 nesting: a two-
   stage walk fetches 19 descriptors where a one-stage walk fetches 4
   (Section 10's stage-2 paging overhead). *)
let tlb_extra cm = float_of_int ((19 - 4) * cm.Cost_model.pte_read)

let vanilla_syscall cm env =
  match env with
  | Switch_bench.Host -> float_of_int (Trap_bench.host_user_to_el2 cm)
  | Switch_bench.Guest -> float_of_int (Trap_bench.guest_user_to_el1 cm)

let lz_syscall cm env =
  match env with
  | Switch_bench.Host -> float_of_int (Trap_bench.lz_to_host_el2 cm)
  | Switch_bench.Guest ->
      float_of_int (fst (Trap_bench.lz_to_guest_kernel cm))

let iterations = 1_000

let build cm env mech =
  let switch m d =
    Switch_bench.measure cm ~env ~mechanism:m ~domains:d ~iterations ()
  in
  match mech with
  | Orig ->
      Iso_profile.vanilla ~syscall_cycles:(vanilla_syscall cm env)
  | Lz_pan ->
      let pair = switch Switch_bench.Lz_pan 1 in
      { Iso_profile.name = mech_name mech;
        domain_enter_cycles = pair /. 2.;
        domain_exit_cycles = pair /. 2.;
        syscall_cycles = lz_syscall cm env;
        tlb_miss_extra_cycles = tlb_extra cm;
        ttbr_extra_miss_factor = 1.0;
        max_domains = 2 }
  | Lz_ttbr ->
      let g = switch Switch_bench.Lz_ttbr 32 in
      { Iso_profile.name = mech_name mech;
        domain_enter_cycles = g;
        domain_exit_cycles = g;
        syscall_cycles = lz_syscall cm env;
        tlb_miss_extra_cycles = tlb_extra cm;
        (* protected pages are per-ASID (non-global): roughly twice
           the miss traffic of the PAN single-table layout *)
        ttbr_extra_miss_factor = 2.0;
        max_domains = 65536 }
  | Wp ->
      let w = switch Switch_bench.Wp_ioctl 8 in
      { Iso_profile.name = mech_name mech;
        domain_enter_cycles = w;
        domain_exit_cycles = w;
        syscall_cycles = vanilla_syscall cm env;
        tlb_miss_extra_cycles = 0.;
        ttbr_extra_miss_factor = 1.0;
        max_domains = 16 }
  | Lwc ->
      let l = switch Switch_bench.Lwc_switch 8 in
      { Iso_profile.name = mech_name mech;
        domain_enter_cycles = l;
        domain_exit_cycles = l;
        syscall_cycles = vanilla_syscall cm env;
        tlb_miss_extra_cycles = 0.;
        ttbr_extra_miss_factor = 1.0;
        max_domains = -1 }

let profile cm env mech =
  let k = key cm env mech in
  match Hashtbl.find_opt cache k with
  | Some p -> p
  | None ->
      let p = build cm env mech in
      Hashtbl.replace cache k p;
      p

(* ------------------------------------------------------------------ *)
(* PMU-derived counters for `lzctl profile`: §5.2.1 context retention
   and TLB maintenance, measured from a real instrumented run rather
   than modelled. *)

type pmu_counters = {
  retention_hits : int;
      (** forwarded syscalls that kept the zone's HCR/VTTBR loaded. *)
  retention_misses : int;
      (** forwarded syscalls that forced the host-context switch. *)
  tlb_flushes : int;  (** TLB maintenance operations observed. *)
  blocks : Lz_cpu.Fastpath.stats;
      (** superblock-engine counters for the same run (all zero when
          the block layer is disabled). *)
}

let retention_rate c =
  let total = c.retention_hits + c.retention_misses in
  if total = 0 then nan
  else float_of_int c.retention_hits /. float_of_int total

let pmu_code_va = 0x400000
let pmu_data_va = 0x500000
let pmu_stack_va = 0x7F0000000000

(* A zone issuing a representative mix of 256 syscalls through the
   gate: mostly retained numbers (getpid), a write() every 8th
   forcing the host-context switch, then an mprotect tail toggling a
   data page's permissions — each toggle is both a retention miss and
   a TLB maintenance burst, so one run feeds both counters. *)
let pmu_workload () =
  let open Lz_arm in
  let open Lightzone in
  let b = Builder.create ~base:pmu_code_va in
  for i = 1 to 256 do
    if i mod 8 = 0 then begin
      Builder.emit b
        [ Insn.Movz (8, Lz_kernel.Kernel.Nr.write, 0);
          Insn.Movz (0, 1, 0) ];
      Builder.mov_imm64 b 1 pmu_data_va;
      Builder.emit b
        [ Insn.Movz (2, 0, 0); Insn.Hvc Lightzone.Gate.hvc_syscall ]
    end
    else
      Builder.emit b
        [ Insn.Movz (8, Lz_kernel.Kernel.Nr.getpid, 0);
          Insn.Hvc Lightzone.Gate.hvc_syscall ]
  done;
  for _ = 1 to 8 do
    List.iter
      (fun prot_bits ->
        Builder.emit b
          [ Insn.Movz (8, Lz_kernel.Kernel.Nr.mprotect, 0) ];
        Builder.mov_imm64 b 0 pmu_data_va;
        Builder.emit b
          [ Insn.Movz (1, 4096, 0);
            Insn.Movz (2, prot_bits, 0);
            Insn.Hvc Lightzone.Gate.hvc_syscall ])
      [ 1; 3 ]
  done;
  Builder.emit b [ Insn.Brk 0 ];
  b

let pmu_counters cm env =
  let open Lz_kernel in
  let machine = Machine.create ~cost:cm () in
  let kernel, backend =
    match env with
    | Switch_bench.Host -> (Kernel.create machine Kernel.Host_vhe, Lightzone.Kmod.Host)
    | Switch_bench.Guest ->
        let hyp = Lz_hyp.Hypervisor.create machine in
        let vm = Lz_hyp.Hypervisor.create_vm hyp in
        let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
        (gk, Lightzone.Kmod.Guest (Lightzone.Lowvisor.create hyp vm))
  in
  let proc = Kernel.create_process kernel in
  ignore
    (Kernel.map_anon kernel proc ~at:(pmu_stack_va - 0x10000) ~len:0x10000
       Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:pmu_data_va ~len:4096 Vma.rw);
  let t =
    Lightzone.Api.lz_enter ~backend ~allow_scalable:true ~insn_san:1
      ~entry:pmu_code_va ~sp:pmu_stack_va kernel proc
  in
  let p = Core.attach_pmu t.Lightzone.Kmod.core in
  Lightzone.Api.load_and_register t (pmu_workload ()) ~va:pmu_code_va;
  (match Lightzone.Api.run t with
  | Lightzone.Kmod.Exited _ -> ()
  | o ->
      failwith
        (Format.asprintf "pmu_counters workload: %a" Lightzone.Kmod.pp_outcome
           o));
  let open Lz_arm in
  { retention_hits = Pmu.event_total p Pmu.Event.retention_hit;
    retention_misses = Pmu.event_total p Pmu.Event.retention_miss;
    tlb_flushes = Pmu.event_total p Pmu.Event.tlb_flush;
    blocks = Fastpath.stats t.Lightzone.Kmod.core.Core.fp }
