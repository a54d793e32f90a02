open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel
module Trace = Lz_trace.Trace

type backend = Host | Guest of Lowvisor.t

type outcome = Exited of int | Terminated of string | Limit_reached

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* Protection registry entry for one virtual page. *)
type page_prot = {
  pgt_ids : int list;  (* page tables the domain is attached to *)
  perm : Perm.t;
  pan : bool;          (* user-page overlay: PAN-protected *)
}

(* Per-process bookkeeping the fault paths consult: one immutable
   value, so capturing, restoring or forking it copies a pointer.
   Every mutation writes a new value into the [ref] in the module
   record, which threads of one process (sharing a record copy) share,
   so they see one registry. *)
type signal_frame = { saved_elr : int; saved_spsr : int; saved_ttbr0 : int }

type shadow = {
  prot : page_prot Int_map.t;     (* va page -> protection *)
  mapped_in : int list Int_map.t; (* va page -> pgt ids *)
  exec_frames : Int_set.t;        (* fake ipa, sanitized+X *)
  frame_vas : int list Int_map.t; (* fake ipa -> va pages *)
  sig_pending : int list;         (* handler addresses *)
  sig_stack : signal_frame list;  (* live signal contexts *)
}

type t = {
  kernel : Kernel.t;
  proc : Proc.t;
  core : Core.t;
  machine : Machine.t;
  backend : backend;
  scalable : bool;
  san_mode : Sanitizer.mode;
  vmid : int;
  s2_root : int;
  fake : Fake_phys.t;
  ttbr1 : Lz_table.t;
  gatetab_pa : int;
  ttbrtab_pa : int;
  pgts : Lz_table.t Zone_tab.t;
  asids : Asid_alloc.t;
  asid_pgt : int array ref;
    (* asid -> pgt id + 1 (0 = no live table): the O(1) inverse the
       fault path uses to resolve TTBR0 to a zone without scanning.
       Grown on demand, so an index rebuilt for ~100 live zones costs
       ~100 entries rather than the whole ASID space; behind a [ref]
       so thread records ([new_thread]) share one index, as they share
       [shadow]. *)
  shadow : shadow ref;
  mutable terminated : string option;
  mutable traps : int;
  mutable syscall_traps : int;
  mutable fault_traps : int;
  mutable irq_traps : int;
  mutable on_irq : (Core.t -> int -> unit) option;
  mutable on_quiescent : (unit -> unit) option;
}

let shadow_of t = !(t.shadow)

type shadow_state = shadow

let cost t = t.machine.Machine.cost

let s2_r = Stage2.{ read = true; write = false; exec = false }
let s2_rw = Stage2.{ read = true; write = true; exec = false }
let s2_rx = Stage2.{ read = true; write = false; exec = true }

let terminate t reason =
  if t.terminated = None then t.terminated <- Some reason;
  if t.proc.Proc.killed = None then t.proc.Proc.killed <- Some reason

(* ------------------------------------------------------------------ *)
(* Construction of the TTBR1 region *)

let write_insns phys pa insns =
  List.iteri
    (fun i insn -> Phys.write32 phys (pa + (4 * i)) (Encoding.encode insn))
    insns

let ro_code_attrs =
  { Pte.user = false; read_only = true; uxn = true; pxn = false; ng = false }

let ro_data_attrs =
  { Pte.user = false; read_only = true; uxn = true; pxn = true; ng = false }

(* Write a stage-1 mapping into [tbl] through this machine's memory
   and fake-address handle. *)
let map_in t tbl ~va ~fake_pa attrs =
  Lz_table.map_page t.machine.Machine.phys t.fake ~s2_root:t.s2_root tbl ~va
    ~fake_pa attrs

let map_module_page t ~va ~real ~code =
  let fake = Fake_phys.assign t.fake ~real in
  Stage2.map_page t.machine.Machine.phys ~root:t.s2_root ~ipa:fake ~pa:real
    (if code then s2_rx else s2_r);
  map_in t t.ttbr1 ~va ~fake_pa:fake
    (if code then ro_code_attrs else ro_data_attrs)

let build_ttbr1_region t =
  let phys = t.machine.Machine.phys in
  (* Vector stub: hvc #1 at each synchronous vector offset. *)
  let stub = Phys.alloc_frame phys in
  List.iter
    (fun off -> write_insns phys (stub + off) (Gate.stub_insns_at off))
    [ 0x000; 0x200; 0x400; 0x600 ];
  map_module_page t ~va:Gate.stub_base ~real:stub ~code:true;
  (* Call gates: Gate.max_gates gates, gate_stride bytes apart. *)
  let gate_bytes = Gate.max_gates * Gate.gate_stride in
  let gate_pages = gate_bytes / 4096 in
  let gate_area = Phys.alloc_frames phys gate_pages in
  for g = 0 to Gate.max_gates - 1 do
    write_insns phys (gate_area + (g * Gate.gate_stride)) (Gate.gate_code ~gate_id:g)
  done;
  for i = 0 to gate_pages - 1 do
    map_module_page t ~va:(Gate.gate_base + (i * 4096))
      ~real:(gate_area + (i * 4096)) ~code:true
  done;
  (* GateTab and TTBRTab: read-only data. The TTBRTab spans several
     physically-contiguous frames ([Gate.set_ttbr] indexes it as one
     flat 8-byte-per-pgt array) so the pgt id space can hold thousands
     of tenants. *)
  let gatetab = Phys.alloc_frame phys in
  let ttbrtab_pages = (Gate.max_pgts * 8 + 4095) / 4096 in
  let ttbrtab = Phys.alloc_frames phys ttbrtab_pages in
  map_module_page t ~va:Gate.gatetab_base ~real:gatetab ~code:false;
  for i = 0 to ttbrtab_pages - 1 do
    map_module_page t ~va:(Gate.ttbrtab_base + (i * 4096))
      ~real:(ttbrtab + (i * 4096)) ~code:false
  done;
  (gatetab, ttbrtab)

(* ------------------------------------------------------------------ *)
(* Page tables *)

let new_pgt t =
  (* Id recycling keeps the id space dense, so the high-water mark
     can only grow while every lower id is live: a simple live-count
     guard bounds ids below the TTBRTab capacity. *)
  if Zone_tab.length t.pgts >= Gate.max_pgts then
    invalid_arg "new_pgt: TTBRTab full";
  let id = Zone_tab.reserve t.pgts in
  let asid = Asid_alloc.alloc t.asids in
  let tbl =
    Lz_table.create t.machine.Machine.phys t.fake ~s2_root:t.s2_root ~id
      ~asid
  in
  Zone_tab.set t.pgts id tbl;
  let index = !(t.asid_pgt) in
  let len = Array.length index in
  if asid < len then index.(asid) <- id + 1
  else begin
    let grown = Array.make (max (asid + 1) (2 * len)) 0 in
    Array.blit index 0 grown 0 len;
    grown.(asid) <- id + 1;
    t.asid_pgt := grown
  end;
  Gate.set_ttbr t.machine.Machine.phys ~ttbrtab_pa:t.ttbrtab_pa ~pgt:id
    ~ttbr:(Lz_table.ttbr tbl);
  id

let pgt_ttbr t id = Lz_table.ttbr (Zone_tab.get t.pgts id)

(* Resolve TTBR0 to the zone it names in O(1): the ASID field indexes
   [asid_pgt], and the round-trip TTBR comparison rejects a hostile
   value that merely reuses a live ASID over a different root. The
   bounds check matters — a raw TTBR0 can carry any 14-bit ASID while
   the allocator may be running a narrower space. *)
let current_pgt t =
  let ttbr0 = Sysreg.read t.core.Core.sys Sysreg.TTBR0_EL1 in
  let asid = Mmu.ttbr_asid ttbr0 in
  let index = !(t.asid_pgt) in
  if asid >= Array.length index then None
  else
    match index.(asid) with
    | 0 -> None
    | n -> (
        let id = n - 1 in
        match Zone_tab.find_opt t.pgts id with
        | Some tbl when Lz_table.ttbr tbl = ttbr0 -> Some (id, tbl)
        | _ -> None)

(* Rebuild [asid_pgt] from the live zone table — snapshot restore and
   machine forking overwrite [pgts] wholesale. Sized to the largest
   live ASID, not the ASID space: the work is the live zones'. *)
let rebuild_asid_index t =
  let top =
    Zone_tab.fold (fun _ tbl top -> max top tbl.Lz_table.asid) t.pgts (-1)
  in
  let index = Array.make (top + 1) 0 in
  Zone_tab.iteri (fun id tbl -> index.(tbl.Lz_table.asid) <- id + 1) t.pgts;
  t.asid_pgt := index

let unmap_everywhere t ~va =
  let sh = shadow_of t in
  let page = Bits.align_down va 4096 in
  (match Int_map.find_opt page sh.mapped_in with
  | Some ids ->
      List.iter
        (fun id ->
          match Zone_tab.find_opt t.pgts id with
          | Some tbl ->
              Lz_table.unmap t.machine.Machine.phys t.fake tbl ~va:page
          | None -> ())
        ids;
      t.shadow := { sh with mapped_in = Int_map.remove page sh.mapped_in }
  | None -> ());
  Tlb.flush_va t.machine.Machine.tlb ~vmid:t.vmid ~va:page

(* [x] consed onto [key]'s list in [m] unless it is there already;
   [m] itself when nothing changes. *)
let add_unique key x m =
  match Int_map.find_opt key m with
  | Some l when List.mem x l -> m
  | l -> Int_map.add key (x :: Option.value l ~default:[]) m

let note_mapping t ~va ~pgt_id ~fake =
  let sh = shadow_of t in
  let page = Bits.align_down va 4096 in
  let mapped_in = add_unique page pgt_id sh.mapped_in
  and frame_vas = add_unique fake page sh.frame_vas in
  if mapped_in != sh.mapped_in || frame_vas != sh.frame_vas then
    t.shadow := { sh with mapped_in; frame_vas }

(* ------------------------------------------------------------------ *)
(* Entering LightZone *)

(* Keep LightZone views in sync with the Linux-managed tables
   (Section 5.1.2: "synchronized with the kernel-managed page
   tables"). Separate from [enter] so a forked machine can rebind the
   hooks of its own (copied) process record to its own module state. *)
let install_sync_hooks t =
  t.proc.Proc.on_unmap <- Some (fun ~va -> unmap_everywhere t ~va);
  t.proc.Proc.on_protect <- Some (fun ~va ~prot:_ -> unmap_everywhere t ~va)

let table_memory_frames t =
  let frames = Lz_table.frames t.machine.Machine.phys t.fake in
  Zone_tab.fold (fun _ tbl acc -> acc + frames tbl) t.pgts (frames t.ttbr1)

let enter ?(backend = Host) ?(asid_bits = 14) ~allow_scalable ~san_mode
    ~vmid ~entry ~sp kernel (proc : Proc.t) =
  let machine = kernel.Kernel.machine in
  let phys = machine.Machine.phys in
  let s2_root = Stage2.create_root phys in
  let fake =
    Fake_phys.create
      (if allow_scalable then Fake_phys.Sequential else Fake_phys.Identity)
  in
  let ttbr1 = Lz_table.create phys fake ~s2_root ~id:(-1) ~asid:0 in
  let core =
    Machine.new_core ~route_el1_to_harness:false machine Pstate.EL1
  in
  (* Rollover flush: one whole-VM stage-1 invalidation stands in for
     TLBI VMALLE1 — the price of recycling the whole dirty ASID pool
     at once. *)
  let asids =
    Asid_alloc.create ~bits:asid_bits
      ~flush:(fun () -> Tlb.flush_vmid machine.Machine.tlb vmid)
      ()
  in
  let t =
    { kernel; proc; core; machine; backend;
      scalable = allow_scalable; san_mode; vmid; s2_root; fake; ttbr1;
      gatetab_pa = 0; ttbrtab_pa = 0;
      pgts = Zone_tab.create ();
      asids;
      asid_pgt = ref (Array.make (1 lsl asid_bits) 0);
      shadow =
        ref
          { prot = Int_map.empty; mapped_in = Int_map.empty;
            exec_frames = Int_set.empty; frame_vas = Int_map.empty;
            sig_pending = []; sig_stack = [] };
      terminated = None; traps = 0; syscall_traps = 0; fault_traps = 0;
      irq_traps = 0; on_irq = None; on_quiescent = None }
  in
  let gatetab_pa, ttbrtab_pa = build_ttbr1_region t in
  let t = { t with gatetab_pa; ttbrtab_pa } in
  let pgt0 = new_pgt t in
  assert (pgt0 = 0);
  (* Configure the virtual environment. *)
  (* IMO: physical interrupts are claimed by EL2 while the zone runs,
     so asynchronous preemption stops the core at the module boundary
     instead of entering the (synchronous-only) EL1 vector stub. *)
  let hcr =
    Sysreg.Hcr.vm lor Sysreg.Hcr.twi lor Sysreg.Hcr.imo
    lor (if allow_scalable then 0 else Sysreg.Hcr.tvm lor Sysreg.Hcr.trvm)
  in
  Sysreg.write core.Core.sys Sysreg.HCR_EL2 hcr;
  Sysreg.write core.Core.sys Sysreg.VTTBR_EL2
    (Mmu.ttbr_value ~root:s2_root ~asid:vmid);
  Sysreg.write core.Core.sys Sysreg.TTBR1_EL1 (Lz_table.ttbr ttbr1);
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (pgt_ttbr t 0);
  Sysreg.write core.Core.sys Sysreg.VBAR_EL1 Gate.stub_base;
  core.Core.pc <- entry;
  Core.set_sp core sp;
  install_sync_hooks t;
  t

(* ------------------------------------------------------------------ *)
(* Table 2 API, module side *)

let lz_alloc t =
  if not t.scalable then
    invalid_arg "lz_alloc: process entered without allow_scalable";
  new_pgt t

(* Deferred-flush teardown: the freed ASID's stale TLB entries are NOT
   invalidated here — they are unreachable, because the sanitizer
   strips raw [msr TTBR0_EL1] from zone code, so the only way a TTBR0
   value gets installed is through a gate reading the TTBRTab, and the
   TTBRTab slot is zeroed first. The entries die in bulk at the next
   ASID-generation rollover, before any reuse. This turns tenant
   teardown from O(TLB) per connection into O(1). *)
let lz_free t id =
  if id = 0 then invalid_arg "lz_free: pgt 0 cannot be freed";
  match Zone_tab.find_opt t.pgts id with
  | None -> invalid_arg "lz_free: unknown page table"
  | Some tbl ->
      Zone_tab.remove t.pgts id;
      Gate.set_ttbr t.machine.Machine.phys ~ttbrtab_pa:t.ttbrtab_pa ~pgt:id
        ~ttbr:0;
      !(t.asid_pgt).(tbl.Lz_table.asid) <- 0;
      Asid_alloc.free t.asids tbl.Lz_table.asid;
      Lz_table.destroy t.machine.Machine.phys t.fake ~s2_root:t.s2_root tbl

let lz_prot t ~addr ~len ~pgt ~perm =
  if not (Bits.is_aligned addr 4096) then invalid_arg "lz_prot: unaligned";
  let pages = (len + 4095) / 4096 in
  for i = 0 to pages - 1 do
    let sh = shadow_of t in
    let page = addr + (i * 4096) in
    let set r = t.shadow := { sh with prot = Int_map.add page r sh.prot } in
    let record =
      match Int_map.find_opt page sh.prot with
      | Some r -> r
      | None -> { pgt_ids = []; perm = 0; pan = false }
    in
    if pgt = Perm.pgt_all || Perm.has perm Perm.user then
      set { record with pan = true; perm }
    else begin
      if not (Zone_tab.mem t.pgts pgt) then begin
        (* An unknown table still leaves the page registered. *)
        set record;
        invalid_arg "lz_prot: unknown page table"
      end;
      set
        { record with
          pgt_ids =
            (if List.mem pgt record.pgt_ids then record.pgt_ids
             else pgt :: record.pgt_ids);
          perm }
    end;
    (* Force re-faulting under the new policy. *)
    unmap_everywhere t ~va:page
  done

let lz_map_gate_pgt t ~pgt ~gate =
  if not (Zone_tab.mem t.pgts pgt) then
    invalid_arg "lz_map_gate_pgt: unknown page table";
  Gate.set_gate_pgt t.machine.Machine.phys ~gatetab_pa:t.gatetab_pa ~gate
    ~pgt

let register_gate_entry t ~gate ~entry =
  Gate.set_gate_entry t.machine.Machine.phys ~gatetab_pa:t.gatetab_pa ~gate
    ~entry;
  (* The legitimate entry is the instruction the gate returns to; a
     marker there closes the gate.check span. *)
  match Core.tracer t.core with
  | Some tr -> Trace.add_marker tr ~pc:entry (Trace.Gate_exit { gate })
  | None -> ()

(* Attach an event tracer: the core emits trap/ERET/TTBR0 events, the
   TLB timestamps its flushes, and PC markers at every gate's entry
   and check-phase addresses delimit Fig. 2 phases ① and ②. Attach
   before [Api.load_and_register] so gate registration can also mark
   the legitimate return sites. *)
let set_tracer t tr =
  Core.set_tracer t.core tr;
  match tr with
  | None -> ()
  | Some tracer ->
      for g = 0 to Gate.max_gates - 1 do
        Trace.add_marker tracer ~pc:(Gate.gate_va g)
          (Trace.Gate_entry { gate = g });
        Trace.add_marker tracer ~pc:(Gate.gate_va g + Gate.phase2_off)
          (Trace.Gate_check { gate = g })
      done

(* ------------------------------------------------------------------ *)
(* Fault handling *)

let linux_backing t ~va =
  match Proc.find_vma t.proc va with
  | None -> None
  | Some vma ->
      Kernel.fault_in_page t.kernel t.proc ~va;
      (match Proc.mapped_pa t.proc ~va with
      | Some pa -> Some (vma, Bits.align_down pa 4096)
      | None -> None)

(* Map an unprotected page into [tbl] per the Linux VMA, applying the
   EL0->EL1 permission transformation (UXN drives PXN; pages become
   kernel pages; unprotected pages are global). *)
let map_unprotected t (pgt_id, tbl) ~page ~(vma : Vma.t) ~fake ~exec =
  let attrs =
    if exec then ro_code_attrs
    else
      { Pte.user = false; read_only = not vma.Vma.prot.Vma.w; uxn = true;
        pxn = true; ng = false }
  in
  let attrs = { attrs with Pte.ng = false } in
  map_in t tbl ~va:page ~fake_pa:fake attrs;
  note_mapping t ~va:page ~pgt_id ~fake

(* Drop every mapping of the frame at [fake] (break-before-make). *)
let unmap_frame t ~fake =
  (match Core.tracer t.core with
  | Some tr ->
      Trace.emit tr ~cycles:t.core.Core.cycles (Trace.Wx_bbm { fake })
  | None -> ());
  match Int_map.find_opt fake (shadow_of t).frame_vas with
  | Some vas -> List.iter (fun va -> unmap_everywhere t ~va) vas
  | None -> ()

let san_tag = function Sanitizer.Ttbr_mode -> 0 | Sanitizer.Pan_mode -> 1

(* A frame stamped clean under this mode at its current generation
   holds the bytes that passed, so the scan would pass again: it is
   skipped, and everything around it still happens. The scan charges
   no simulated cycles, so skipping it changes no simulated number. *)
let sanitize_and_make_exec t ~page ~real ~fake =
  unmap_frame t ~fake;
  let phys = t.machine.Machine.phys and tag = san_tag t.san_mode in
  let scan =
    if Phys.stamped phys real ~tag then Ok ()
    else Sanitizer.scan_page t.san_mode phys ~pa:real
  in
  (match Core.tracer t.core with
  | Some tr ->
      Trace.emit tr ~cycles:t.core.Core.cycles
        (Trace.Sanitizer_scan { pa = real; ok = Result.is_ok scan })
  | None -> ());
  match scan with
  | Error (off, w, why) ->
      terminate t
        (Printf.sprintf
           "sanitizer: sensitive instruction 0x%08x at 0x%x (%s)" w
           (page + off) why);
      false
  | Ok () ->
      Phys.stamp phys real ~tag;
      let sh = shadow_of t in
      t.shadow := { sh with exec_frames = Int_set.add fake sh.exec_frames };
      Stage2.map_page phys ~root:t.s2_root ~ipa:fake ~pa:real s2_rx;
      true

let make_frame_writable t ~fake =
  unmap_frame t ~fake;
  let sh = shadow_of t in
  t.shadow := { sh with exec_frames = Int_set.remove fake sh.exec_frames };
  match Fake_phys.real_of_fake t.fake fake with
  | Some real ->
      Stage2.map_page t.machine.Machine.phys ~root:t.s2_root ~ipa:fake
        ~pa:real s2_rw
  | None -> ignore (Stage2.set_perms t.machine.Machine.phys ~root:t.s2_root ~ipa:fake s2_rw)

(* Demand map one page in the current page table. [access] is what
   the process attempted. *)
let handle_lz_fault t ~va ~(access : Mmu.access) ~perm_fault =
  t.fault_traps <- t.fault_traps + 1;
  (match Core.tracer t.core with
  | Some tr ->
      Trace.emit tr ~cycles:t.core.Core.cycles
        (Trace.Stage_fault { stage = 1; va })
  | None -> ());
  let sh = shadow_of t in
  let page = Bits.align_down va 4096 in
  if Bits.bit va 47 then
    terminate t
      (Printf.sprintf "illegal %s access to the module region at 0x%x"
         (match access with Mmu.Read -> "read" | Mmu.Write -> "write"
          | Mmu.Exec -> "exec")
         va)
  else
    match current_pgt t with
    | None -> terminate t "TTBR0 does not name a LightZone page table"
    | Some (pgt_id, tbl) -> (
        match Int_map.find_opt page sh.prot with
        | Some r when r.pan -> (
            if perm_fault then
              terminate t
                (Printf.sprintf "PAN violation: access to 0x%x with PAN set"
                   va)
            else
              match linux_backing t ~va with
              | None -> terminate t "protected page has no backing VMA"
              | Some (_vma, real) ->
                  let fake = Fake_phys.assign t.fake ~real in
                  Stage2.map_page t.machine.Machine.phys ~root:t.s2_root
                    ~ipa:fake ~pa:real s2_rw;
                  (* PAN-protected pages are user pages, non-global. *)
                  map_in t tbl ~va:page ~fake_pa:fake
                    { Pte.user = true;
                      read_only = not (Perm.has r.perm Perm.write);
                      uxn = true; pxn = true; ng = true };
                  note_mapping t ~va:page ~pgt_id ~fake)
        | Some r ->
            if not (List.mem pgt_id r.pgt_ids) then
              terminate t
                (Printf.sprintf
                   "unauthorized access to protected domain at 0x%x (pgt %d)"
                   va pgt_id)
            else if
              (access = Mmu.Write && not (Perm.has r.perm Perm.write))
              || (access = Mmu.Read && not (Perm.has r.perm Perm.read))
              || (access = Mmu.Exec && not (Perm.has r.perm Perm.exec))
            then
              terminate t
                (Printf.sprintf "permission overlay denies %s at 0x%x"
                   (match access with Mmu.Read -> "read" | Mmu.Write -> "write"
                    | Mmu.Exec -> "exec")
                   va)
            else (
              match linux_backing t ~va with
              | None -> terminate t "protected page has no backing VMA"
              | Some (vma, real) ->
                  let fake = Fake_phys.assign t.fake ~real in
                  if access = Mmu.Exec then begin
                    if sanitize_and_make_exec t ~page ~real ~fake then begin
                      map_in t tbl ~va:page ~fake_pa:fake
                        { ro_code_attrs with Pte.ng = true };
                      note_mapping t ~va:page ~pgt_id ~fake
                    end
                  end
                  else begin
                    if not (Int_set.mem fake sh.exec_frames) then
                      Stage2.map_page t.machine.Machine.phys ~root:t.s2_root
                        ~ipa:fake ~pa:real s2_rw;
                    (* Least permission: intersect overlay with VMA. *)
                    let writable =
                      Perm.has r.perm Perm.write && vma.Vma.prot.Vma.w
                    in
                    map_in t tbl ~va:page ~fake_pa:fake
                      { Pte.user = false; read_only = not writable;
                        uxn = true; pxn = true; ng = true };
                    note_mapping t ~va:page ~pgt_id ~fake
                  end)
        | None -> (
            (* Unprotected page: mirror the Linux mapping. *)
            match linux_backing t ~va with
            | None ->
                terminate t
                  (Printf.sprintf "segmentation fault at 0x%x (no VMA)" va)
            | Some (vma, real) ->
                let fake = Fake_phys.assign t.fake ~real in
                let frame_is_exec = Int_set.mem fake sh.exec_frames in
                if access = Mmu.Exec then begin
                  if not vma.Vma.prot.Vma.x then
                    terminate t
                      (Printf.sprintf "exec of non-executable page 0x%x" va)
                  else if frame_is_exec then
                    map_unprotected t (pgt_id, tbl) ~page ~vma ~fake
                      ~exec:true
                  else if sanitize_and_make_exec t ~page ~real ~fake then
                    map_unprotected t (pgt_id, tbl) ~page ~vma ~fake
                      ~exec:true
                end
                else if access = Mmu.Write && frame_is_exec then
                  if vma.Vma.prot.Vma.w then begin
                    (* JIT W<->X flip: revoke exec, grant write. *)
                    make_frame_writable t ~fake;
                    map_unprotected t (pgt_id, tbl) ~page ~vma ~fake
                      ~exec:false
                  end
                  else
                    terminate t
                      (Printf.sprintf "write to executable page 0x%x" va)
                else begin
                  if not frame_is_exec then
                    Stage2.map_page t.machine.Machine.phys ~root:t.s2_root
                      ~ipa:fake ~pa:real s2_rw;
                  map_unprotected t (pgt_id, tbl) ~page ~vma ~fake
                    ~exec:false
                end))

(* ------------------------------------------------------------------ *)
(* Trap servicing *)

let parse_esr esr =
  let ec = esr lsr 26 in
  let iss = esr land 0x1FFFFFF in
  match ec with
  | 0x15 -> `Svc (iss land 0xFFFF)
  | 0x20 | 0x21 -> `Iabort (iss land 0x3F)
  | 0x24 | 0x25 -> `Dabort (iss land 0x3F, Bits.bit esr 6)
  | 0x3C -> `Brk (iss land 0xFFFF)
  | 0x00 -> `Undef
  | 0x18 -> `Sysreg
  | 0x34 | 0x35 -> `Watchpoint
  | ec -> `Other ec

let dfsc_is_permission dfsc = dfsc land 0b111100 = 0b001100

(* Syscalls that force the kernel into host context (uaccess or TLB
   maintenance): HCR_EL2 and VTTBR_EL2 are updated around them —
   everywhere else they retain the LightZone process's values
   (Section 5.2.1). *)
let needs_host_ctx nr =
  nr = Kernel.Nr.write || nr = Kernel.Nr.munmap || nr = Kernel.Nr.mprotect

let charge_host_ctx_switch t =
  let c = cost t in
  Core.charge t.core (2 * c.Cost_model.hcr_write);
  Core.charge t.core (2 * c.Cost_model.vttbr_write)

let charge_prefix t =
  let c = cost t in
  (match t.backend with
  | Host ->
      Core.charge t.core c.Cost_model.gp_save;
      Core.charge_sysreg t.core ~at:Pstate.EL2 Sysreg.ESR_EL2;
      Core.charge t.core c.Cost_model.lz_forward
  | Guest lv ->
      Lowvisor.charge_forward_in lv t.core;
      Core.charge_sysreg t.core ~at:Pstate.EL1 Sysreg.ESR_EL1;
      Core.charge t.core c.Cost_model.lz_forward)

let charge_suffix t =
  let c = cost t in
  match t.backend with
  | Host ->
      Core.charge t.core c.Cost_model.gp_restore;
      Core.charge t.core c.Cost_model.trap_pollution
  | Guest lv ->
      Core.charge t.core c.Cost_model.trap_pollution;
      Lowvisor.charge_forward_out lv t.core

let do_forwarded_syscall t =
  t.syscall_traps <- t.syscall_traps + 1;
  let nr = Core.reg t.core 8 in
  (match t.backend with
  | Host ->
      (* §5.2.1 retention: a hit means HCR/VTTBR kept the process's
         values across the syscall; a miss pays the double update. *)
      let hit = not (needs_host_ctx nr) in
      (match Core.tracer t.core with
      | Some tr ->
          Trace.emit tr ~cycles:t.core.Core.cycles
            (Trace.Retention { nr; hit })
      | None -> ());
      (match Core.pmu t.core with
      | Some p ->
          Pmu.record p
            (if hit then Pmu.Event.retention_hit
             else Pmu.Event.retention_miss)
      | None -> ());
      if needs_host_ctx nr then charge_host_ctx_switch t
  | Guest _ -> ());
  Kernel.do_syscall t.kernel t.proc t.core

(* An exception forwarded by the EL1 vector stub: the original
   syndrome is in ESR_EL1/FAR_EL1/ELR_EL1. After handling we return
   straight to the interrupted context. *)
let handle_forwarded t =
  let esr = Sysreg.read t.core.Core.sys Sysreg.ESR_EL1 in
  let far = Sysreg.read t.core.Core.sys Sysreg.FAR_EL1 in
  (match parse_esr esr with
  | `Svc _ -> do_forwarded_syscall t
  | `Iabort dfsc ->
      handle_lz_fault t ~va:far ~access:Mmu.Exec
        ~perm_fault:(dfsc_is_permission dfsc)
  | `Dabort (dfsc, write) ->
      let access = if write then Mmu.Write else Mmu.Read in
      let perm_fault = dfsc_is_permission dfsc in
      (* A stage-1 permission fault on a frame we made execute-only is
         the JIT write path, not a violation; handle_lz_fault decides. *)
      if perm_fault then begin
        let sh = shadow_of t in
        let page = Bits.align_down far 4096 in
        let jit_flip =
          write
          && (match Int_map.find_opt page sh.prot with
             | Some _ -> false
             | None -> (
                 match Proc.find_vma t.proc far with
                 | Some vma -> vma.Vma.prot.Vma.w
                 | None -> false))
        in
        if jit_flip then handle_lz_fault t ~va:far ~access ~perm_fault:false
        else handle_lz_fault t ~va:far ~access ~perm_fault:true
      end
      else handle_lz_fault t ~va:far ~access ~perm_fault:false
  | `Brk code ->
      if code = Gate.violation_brk then
        terminate t "call gate violation (illegal TTBR0 or entry)"
      else t.proc.Proc.exit_code <- Some code
  | `Undef -> terminate t "undefined or sensitive instruction executed"
  | `Sysreg -> terminate t "trapped privileged system access"
  | `Watchpoint -> terminate t "unexpected debug exception"
  | `Other ec ->
      terminate t (Printf.sprintf "unhandled forwarded exception EC=0x%x" ec));
  (* Return to the interrupted instruction (or past the SVC/BRK). *)
  Sysreg.write t.core.Core.sys Sysreg.ELR_EL2
    (Sysreg.read t.core.Core.sys Sysreg.ELR_EL1);
  Sysreg.write t.core.Core.sys Sysreg.SPSR_EL2
    (Sysreg.read t.core.Core.sys Sysreg.SPSR_EL1)

let handle_s2_abort t (f : Mmu.fault) ~exec =
  t.fault_traps <- t.fault_traps + 1;
  (match Core.tracer t.core with
  | Some tr ->
      Trace.emit tr ~cycles:t.core.Core.cycles
        (Trace.Stage_fault { stage = 2; va = f.Mmu.va })
  | None -> ());
  let sh = shadow_of t in
  match f.Mmu.kind with
  | Mmu.Translation ->
      terminate t
        (Printf.sprintf "stage-2 violation: access to unmapped IPA 0x%x"
           f.Mmu.ipa)
  | Mmu.Permission ->
      let fake = Bits.align_down f.Mmu.ipa 4096 in
      if exec then begin
        (* Exec of a frame stage-2 marked non-executable: W^X. *)
        match Fake_phys.real_of_fake t.fake fake with
        | None -> terminate t "stage-2 exec violation on unknown frame"
        | Some real ->
            ignore
              (sanitize_and_make_exec t ~page:(Bits.align_down f.Mmu.va 4096)
                 ~real ~fake)
      end
      else if
        f.Mmu.access = Mmu.Write
        && Int_set.mem fake sh.exec_frames
        && (match Proc.find_vma t.proc f.Mmu.va with
           | Some vma -> vma.Vma.prot.Vma.w
           | None -> false)
      then make_frame_writable t ~fake
      else
        terminate t
          (Printf.sprintf "stage-2 permission violation at IPA 0x%x"
             f.Mmu.ipa)

(* Threads share all process-level state (the zone table and the
   shadow registry's cell are physically shared by the record copy);
   only the core — registers, PSTATE.PAN, TTBR0 — is per-thread,
   exactly the per-thread state the paper's domain model assigns.
   Termination is propagated through the shared [proc]. *)
let new_thread t ~entry ~sp =
  let core =
    Machine.new_core ~route_el1_to_harness:false t.machine Pstate.EL1
  in
  Sysreg.transfer ~src:t.core.Core.sys ~dst:core.Core.sys
    [ Sysreg.HCR_EL2; Sysreg.VTTBR_EL2; Sysreg.TTBR1_EL1; Sysreg.VBAR_EL1 ];
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (pgt_ttbr t 0);
  core.Core.pc <- entry;
  Core.set_sp core sp;
  { t with core }

let queue_signal t ~handler =
  let sh = shadow_of t in
  t.shadow := { sh with sig_pending = sh.sig_pending @ [ handler ] }

let pending_signals t = List.length (shadow_of t).sig_pending

(* Signal delivery at a trap boundary: capture the interrupted
   context — PC, PSTATE (with its PAN bit) and TTBR0 (Section 6) —
   into a kernel-managed frame, then aim the ERET at the handler in
   the default page table with PAN set. *)
let maybe_deliver_signal t =
  let sh = shadow_of t in
  match sh.sig_pending with
  | [] -> ()
  | handler :: rest ->
      let sys = t.core.Core.sys in
      let frame =
        { saved_elr = Sysreg.read sys Sysreg.ELR_EL2;
          saved_spsr = Sysreg.read sys Sysreg.SPSR_EL2;
          saved_ttbr0 = Sysreg.read sys Sysreg.TTBR0_EL1 }
      in
      t.shadow :=
        { sh with sig_pending = rest; sig_stack = frame :: sh.sig_stack };
      Sysreg.write sys Sysreg.ELR_EL2 handler;
      let handler_pstate = Pstate.make Pstate.EL1 in
      handler_pstate.Pstate.pan <- true;
      Sysreg.write sys Sysreg.SPSR_EL2 (Pstate.to_spsr handler_pstate);
      Sysreg.write sys Sysreg.TTBR0_EL1 (pgt_ttbr t 0);
      (* The kernel writes the frame and switches the context. *)
      Core.charge t.core (2 * (cost t).Cost_model.mem_access);
      Core.charge_sysreg t.core ~at:Pstate.EL2 Sysreg.TTBR0_EL1

let do_sigreturn t =
  let sh = shadow_of t in
  match sh.sig_stack with
  | [] -> terminate t "sigreturn without a signal frame"
  | frame :: rest ->
      t.shadow := { sh with sig_stack = rest };
      let sys = t.core.Core.sys in
      Sysreg.write sys Sysreg.ELR_EL2 frame.saved_elr;
      Sysreg.write sys Sysreg.SPSR_EL2 frame.saved_spsr;
      Sysreg.write sys Sysreg.TTBR0_EL1 frame.saved_ttbr0;
      Core.charge_sysreg t.core ~at:Pstate.EL2 Sysreg.TTBR0_EL1


(* A physical interrupt claimed by EL2 while the zone runs
   (HCR_EL2.IMO): the module saves the interrupted context, acks at
   the GIC CPU interface, runs the registered handler (the preemptive
   scheduler's tick), EOIs, and resumes. Queued signals are delivered
   on the way out, so asynchronous preemption exercises the same
   signal-frame capture/restore as synchronous traps — including when
   the interrupt lands mid-gate or with a zone open. *)
let handle_irq t =
  t.irq_traps <- t.irq_traps + 1;
  let c = cost t in
  Core.charge t.core c.Cost_model.gp_save;
  Core.service_irq t.core (fun intid ->
      match t.on_irq with Some f -> f t.core intid | None -> ());
  Core.charge t.core c.Cost_model.gp_restore

(* ------------------------------------------------------------------ *)
(* Run loop *)

let run ?(max_insns = 50_000_000) t =
  let budget = ref max_insns in
  let rec loop () =
    match (t.terminated, t.proc.Proc.killed) with
    | Some reason, _ | None, Some reason -> Terminated reason
    | None, None ->
        if !budget <= 0 then Limit_reached
        else begin
          let before = t.core.Core.insns in
          let stop = Core.run ~max_insns:!budget t.core in
          (* An interrupt storm can stop the core without retiring a
             single instruction: a timer reprogrammed from its handler
             with a slice shorter than the exception entry/return
             cycle cost is already expired when the guest resumes, so
             the next poll re-traps at the same pc forever. Charge
             such zero-progress stops one budget unit so [max_insns]
             still bounds the host loop. Identical across engines —
             interrupt delivery points are architectural. *)
          budget := !budget - max 1 (t.core.Core.insns - before);
          t.traps <- t.traps + 1;
          match stop with
          | Core.Limit -> Limit_reached
          | Core.Stall -> assert false (* no shootdown hook under Kmod *)
          | Core.Trap_el1 _ ->
              (* Unreachable: the stub handles EL1 vectors. *)
              Terminated "unexpected harness-routed EL1 trap"
          | Core.Trap_el2 (Core.Ec_irq _) -> (
              handle_irq t;
              match (t.terminated, t.proc.Proc.exit_code) with
              | Some reason, _ -> Terminated reason
              | None, Some code -> Exited code
              | None, None ->
                  maybe_deliver_signal t;
                  Core.eret_from_el2 t.core;
                  (* The trap is fully retired and the core sits at a
                     resumable architectural state: the only clean
                     point for periodic snapshots. *)
                  (match t.on_quiescent with Some f -> f () | None -> ());
                  loop ())
          | Core.Trap_el2 cls -> (
              charge_prefix t;
              (match cls with
              | Core.Ec_hvc n when n = Gate.hvc_syscall ->
                  do_forwarded_syscall t
              | Core.Ec_hvc n when n = Gate.hvc_exception ->
                  handle_forwarded t
              | Core.Ec_hvc n when n = Gate.hvc_sigreturn ->
                  do_sigreturn t
              | Core.Ec_hvc n ->
                  terminate t (Printf.sprintf "unknown hypercall #%d" n)
              | Core.Ec_dabort f when f.Mmu.stage = 2 ->
                  handle_s2_abort t f ~exec:false
              | Core.Ec_iabort f when f.Mmu.stage = 2 ->
                  handle_s2_abort t f ~exec:true
              | Core.Ec_dabort _ | Core.Ec_iabort _ ->
                  terminate t "stage-1 abort escaped the vector stub"
              | Core.Ec_sysreg_trap insn ->
                  terminate t
                    (Format.asprintf "trapped sensitive operation: %a"
                       Insn.pp insn)
              | Core.Ec_wfi -> ()
              | Core.Ec_svc _ ->
                  terminate t "svc reached EL2 unexpectedly"
              | Core.Ec_smc _ -> terminate t "smc is not allowed"
              | Core.Ec_brk code -> t.proc.Proc.exit_code <- Some code
              | Core.Ec_undef _ ->
                  terminate t "undefined instruction at EL2 boundary"
              | Core.Ec_watchpoint _ ->
                  terminate t "unexpected watchpoint exception"
              | Core.Ec_irq _ -> assert false (* matched above *));
              charge_suffix t;
              match (t.terminated, t.proc.Proc.exit_code) with
              | Some reason, _ -> Terminated reason
              | None, Some code -> Exited code
              | None, None ->
                  maybe_deliver_signal t;
                  Core.eret_from_el2 t.core;
                  (* A forwarded exception took two Trap_enters (the
                     EL1 vector stub, then its HVC) but the EL2 ERET
                     above returned straight to the interrupted
                     context: the stub's own ERET never runs, so its
                     exception is retired here.  Emitting the
                     balancing exit keeps the span analyzer's frame
                     stack exact. *)
                  (match cls with
                  | Core.Ec_hvc n when n = Gate.hvc_exception -> (
                      match Core.tracer t.core with
                      | Some tr ->
                          Trace.emit tr ~cycles:t.core.Core.cycles
                            (Trace.Trap_exit
                               { from_el = 1;
                                 to_el =
                                   Pstate.el_number t.core.Core.pstate.Pstate.el
                               })
                      | None -> ())
                  | _ -> ());
                  (match t.on_quiescent with Some f -> f () | None -> ());
                  loop ())
        end
  in
  loop ()

let set_current_pgt t id =
  Sysreg.write t.core.Core.sys Sysreg.TTBR0_EL1 (pgt_ttbr t id)

let prefault t ~va ~access = handle_lz_fault t ~va ~access ~perm_fault:false

let alias_leaf_table t ~pgt ~va ~at =
  let phys = t.machine.Machine.phys in
  let tbl = Zone_tab.get t.pgts pgt in
  set_current_pgt t pgt;
  if not (Lz_table.mapped phys t.fake tbl ~va) then
    prefault t ~va ~access:Mmu.Read;
  match Lz_table.last_level_table_fake phys t.fake tbl ~va with
  | Some table_fake ->
      map_in t (Zone_tab.get t.pgts 0) ~va:at ~fake_pa:table_fake
        { Pte.user = false; read_only = false; uxn = true; pxn = true;
          ng = false };
      set_current_pgt t 0
  | None -> failwith "Kmod.alias_leaf_table: leaf table walk failed"

let pp_outcome ppf = function
  | Exited code -> Format.fprintf ppf "exited %d" code
  | Terminated reason -> Format.fprintf ppf "terminated: %s" reason
  | Limit_reached -> Format.pp_print_string ppf "instruction limit"
