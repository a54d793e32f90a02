open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel

type t = {
  kernel : Kernel.t;
  proc : Proc.t;
  mutable contexts : (int * int) list;
  mutable domains : (int * int * int) list;
  mutable switches : int;
}

let lwswitch_nr = 0x232A

let charge_switch t (core : Core.t) =
  let c = t.kernel.Kernel.machine.Machine.cost in
  let at =
    match t.kernel.Kernel.mode with
    | Kernel.Host_vhe -> Pstate.EL2
    | Kernel.Guest -> Pstate.EL1
  in
  Core.charge core (2 * c.Cost_model.dispatch);
  (* Address-space switch: a dozen EL1 registers move (like a thread
     context switch), plus the lwSwitch-specific work (credentials,
     file-table view, scheduler bookkeeping). *)
  List.iter
    (fun r ->
      Core.charge_sysreg core ~at r;
      Core.charge_sysreg core ~at r)
    [ Sysreg.TTBR0_EL1; Sysreg.CONTEXTIDR_EL1; Sysreg.TCR_EL1;
      Sysreg.SP_EL0; Sysreg.TPIDR_EL0; Sysreg.TPIDRRO_EL0 ];
  Core.charge core c.Cost_model.lwc_switch_extra

(* Mirror a freshly faulted page of the base view into context
   tables: into every context when the page is shared, or only into
   the owning context when it belongs to a domain. *)
let mirror_fault t va =
  let phys = t.kernel.Kernel.machine.Machine.phys in
  let page = Lz_arm.Bits.align_down va 4096 in
  match Stage1.walk phys ~root:t.proc.Proc.root ~va:page with
  | Error _ -> ()
  | Ok w ->
      let owner =
        List.find_map
          (fun (dva, len, ctx) ->
            if page >= dva && page < dva + len then Some ctx else None)
          t.domains
      in
      List.iter
        (fun (id, root) ->
          match owner with
          | Some ctx when ctx <> id -> ()
          | _ ->
              Stage1.map_page phys ~root ~va:page
                ~pa:(Lz_arm.Bits.align_down w.Stage1.pa 4096)
                w.Stage1.attrs)
        t.contexts

let create kernel proc =
  let t = { kernel; proc; contexts = []; domains = []; switches = 0 } in
  let handler k (p : Proc.t) core cls =
    match cls with
    | Core.Ec_dabort f | Core.Ec_iabort f
      when f.Lz_mem.Mmu.kind = Lz_mem.Mmu.Translation ->
        (* A fault on another context's domain is a violation, not a
           demand fault: let the default path kill the process. *)
        let page = Lz_arm.Bits.align_down f.Lz_mem.Mmu.va 4096 in
        let owner =
          List.find_map
            (fun (dva, len, ctx) ->
              if page >= dva && page < dva + len then Some ctx else None)
            t.domains
        in
        let current_ctx =
          Lz_mem.Mmu.ttbr_asid
            (Sysreg.read core.Core.sys Sysreg.TTBR0_EL1)
          - 0x200
        in
        (match owner with
        | Some ctx when ctx <> current_ctx ->
            p.Proc.killed <-
              Some
                (Printf.sprintf
                   "lwC: context %d accessed context %d's domain at 0x%x"
                   current_ctx ctx f.Lz_mem.Mmu.va);
            true
        | _ -> (
            (* Demand fault while (possibly) running on a context
               table: populate the base view, then mirror. *)
            match Kernel.handle_fault k p f with
            | `Handled ->
                mirror_fault t f.Lz_mem.Mmu.va;
                true
            | `Segv -> false))
    | Core.Ec_svc _ when Core.reg core 8 = lwswitch_nr ->
        t.switches <- t.switches + 1;
        let ctx = Core.reg core 0 in
        (match List.assoc_opt ctx t.contexts with
        | Some root ->
            charge_switch t core;
            (* Each context has its own ASID: ctx id offset past the
               process ASIDs. *)
            Sysreg.write core.Core.sys Sysreg.TTBR0_EL1
              (Mmu.ttbr_value ~root ~asid:(0x200 + ctx));
            Core.set_reg core 0 0
        | None -> Core.set_reg core 0 (-22));
        true
    | _ -> false
  in
  kernel.Kernel.custom_trap <- Some handler;
  t

let phys_of t = t.kernel.Kernel.machine.Machine.phys

let dup_base_view t =
  (* Copy the process's current Linux-managed tree. *)
  Stage1.dup (phys_of t) ~root:t.proc.Proc.root
    ~transform:(fun ~va:_ pte -> Some pte)

let register_domain t ~va ~len ~ctx = t.domains <- (va, len, ctx) :: t.domains

let unmap_range phys ~root ~va ~len =
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    Stage1.unmap phys ~root ~va:(Bits.align_down va 4096 + (i * 4096))
  done

let new_context t ~domain =
  let phys = phys_of t in
  let root = dup_base_view t in
  let id = List.length t.contexts in
  (* Hide every existing context's domain from the new view. *)
  List.iter
    (fun (dva, len, _) -> unmap_range phys ~root ~va:dva ~len)
    t.domains;
  t.contexts <- (id, root) :: t.contexts;
  (match domain with
  | None -> ()
  | Some (va, len) ->
      register_domain t ~va ~len ~ctx:id;
      (* Resident and visible here — and hidden everywhere else. *)
      Kernel.populate t.kernel t.proc ~start:va ~len;
      let pages = (len + 4095) / 4096 in
      for i = 0 to pages - 1 do
        let page = Bits.align_down va 4096 + (i * 4096) in
        match Stage1.walk phys ~root:t.proc.Proc.root ~va:page with
        | Ok w ->
            Stage1.map_page phys ~root ~va:page
              ~pa:(Bits.align_down w.Stage1.pa 4096)
              w.Stage1.attrs
        | Error _ -> ()
      done;
      List.iter
        (fun (other_id, other_root) ->
          if other_id <> id then
            unmap_range phys ~root:other_root ~va ~len)
        t.contexts;
      (* Flush any TLB entries the other contexts may hold. *)
      for i = 0 to pages - 1 do
        Lz_mem.Tlb.flush_va t.kernel.Kernel.machine.Machine.tlb ~vmid:0
          ~va:(Bits.align_down va 4096 + (i * 4096))
      done);
  id
