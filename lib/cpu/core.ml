open Lz_arm
open Lz_mem

type exception_class =
  | Ec_svc of int
  | Ec_hvc of int
  | Ec_smc of int
  | Ec_brk of int
  | Ec_dabort of Mmu.fault
  | Ec_iabort of Mmu.fault
  | Ec_undef of int
  | Ec_sysreg_trap of Insn.t
  | Ec_wfi
  | Ec_watchpoint of int
  | Ec_irq of int

type stop =
  | Trap_el2 of exception_class
  | Trap_el1 of exception_class
  | Limit
  | Stall

(* Cross-core TLB maintenance broadcast (inner-shareable TLBI). The
   payload carries everything a remote core needs to repeat the flush
   against its own TLB. *)
type shootdown =
  | Sd_vmalle1 of int (* vmid *)
  | Sd_vae1 of { vmid : int; va : int }
  | Sd_aside1 of { vmid : int; asid : int }

type t = {
  regs : int array;
  mutable pc : int;
  mutable sp_el0 : int;
  mutable sp_el1 : int;
  pstate : Pstate.t;
  sys : Sysreg.file;
  phys : Phys.t;
  tlb : Tlb.t;
  cost : Cost_model.t;
  mutable cycles : int;
  mutable insns : int;
  mutable route_el1_to_harness : bool;
  fp : Fastpath.t;
  (* Observability. Both default to [None]; every emission site is an
     option match, so with nothing attached the only per-instruction
     overhead is one null check in [step]. Neither charges cycles nor
     touches architectural state, so attaching them keeps execution
     bit-identical (the qcheck differential properties check this). *)
  mutable tracer : Lz_trace.Trace.t option;
  mutable pmu : Pmu.t option;
  (* Interrupt fabric (GIC redistributor view + generic timer). Like
     the PMU it defaults to [None]: with nothing attached the
     per-boundary overhead is one null check and delivery never
     happens, so existing workloads are untouched. *)
  mutable irqc : Lz_irq.Irq.t option;
  (* SMP plumbing. [on_shootdown] is invoked by the inner-shareable
     TLBI executors after the local flush; the SMP driver's hook
     stages the remote requests and sets [stall], which the boundary
     poll reports as a [Stall] stop — DVM-style completion wait. With
     no hook installed (every single-core machine) IS TLBI degrades
     to the local flush, which is architecturally exact on a
     uniprocessor. *)
  mutable on_shootdown : (shootdown -> unit) option;
  mutable stall : bool;
}

type engine = Fastpath.engine = Slow | Per_insn | Blocks

let engines = [ Slow; Per_insn; Blocks ]

let engine_name = function
  | Slow -> "slow"
  | Per_insn -> "per-insn"
  | Blocks -> "blocks"

let engine_of_string s = List.find_opt (fun e -> engine_name e = s) engines

(* Read once at start-up. A misspelt value must not silently run the
   default engine: a differential run would then compare blocks with
   itself. *)
let default_engine =
  let s = Option.value (Sys.getenv_opt "LZ_ENGINE") ~default:"blocks" in
  match engine_of_string s with
  | Some e -> ref e
  | None -> failwith ("LZ_ENGINE=" ^ s ^ ": expected slow, per-insn or blocks")

let create ?(route_el1_to_harness = true) ?(engine = !default_engine) phys tlb
    cost el =
  { regs = Array.make 31 0;
    pc = 0;
    sp_el0 = 0;
    sp_el1 = 0;
    pstate = Pstate.make el;
    sys = Sysreg.create_file ();
    phys;
    tlb;
    cost;
    cycles = 0;
    insns = 0;
    route_el1_to_harness;
    fp = Fastpath.create engine;
    tracer = None;
    pmu = None;
    irqc = None;
    on_shootdown = None;
    stall = false }

let set_tracer t tr =
  t.tracer <- tr;
  Tlb.set_tracer t.tlb tr;
  match tr with
  | Some tracer -> Lz_trace.Trace.set_clock tracer (fun () -> t.cycles)
  | None -> ()

let tracer t = t.tracer

(* The PMU attaches lazily on the first guest MSR/MRS of a PMU
   register (so guest code works out of the box) or eagerly via
   [attach_pmu] from the host. Attachment is driven purely by the
   instruction stream / host calls, so fast and slow differential runs
   attach at the same point. *)
let attach_pmu t =
  match t.pmu with
  | Some p -> p
  | None ->
      let p = Pmu.create () in
      t.pmu <- Some p;
      Tlb.set_pmu t.tlb (Some p);
      p

let pmu t = t.pmu

(* The IRQ fabric attaches the same way: lazily on the first guest
   ICC_*/CNTP_* access, or eagerly from the host ([?dist] shares one
   distributor between cores for SGI routing). Attachment alone
   never perturbs execution — delivery requires something to raise an
   interrupt line first. *)
let attach_irq ?dist t =
  match t.irqc with
  | Some iv -> iv
  | None ->
      let iv = Lz_irq.Irq.create ?dist () in
      t.irqc <- Some iv;
      iv

let irq t = t.irqc

let engine t = t.fp.Fastpath.engine

let set_engine t e =
  t.fp.Fastpath.engine <- e;
  Fastpath.reset t.fp

let set_fast t on = set_engine t (if on then Blocks else Slow)

let set_blocks t on =
  if engine t <> Slow then set_engine t (if on then Blocks else Per_insn)

let charge t c = t.cycles <- t.cycles + c

let charge_sysreg t ~at reg = charge t (Cost_model.sysreg_access t.cost ~at reg)

let reg t i = if i = 31 then 0 else t.regs.(i)

let set_reg t i v = if i <> 31 then t.regs.(i) <- v

let sp t =
  if not t.pstate.sp_sel then t.sp_el0
  else match t.pstate.el with
    | Pstate.EL0 -> t.sp_el0
    | Pstate.EL1 | Pstate.EL2 -> t.sp_el1

let set_sp t v =
  if not t.pstate.sp_sel then t.sp_el0 <- v
  else match t.pstate.el with
    | Pstate.EL0 -> t.sp_el0 <- v
    | Pstate.EL1 | Pstate.EL2 -> t.sp_el1 <- v

(* Base register 31 means SP in address contexts. *)
let base_reg t i = if i = 31 then sp t else t.regs.(i)

let hcr t = Sysreg.read t.sys Sysreg.HCR_EL2

let stage2_active t = hcr t land Sysreg.Hcr.vm <> 0

let mmu_ctx t ~unpriv =
  let vttbr = Sysreg.read t.sys Sysreg.VTTBR_EL2 in
  { Mmu.ttbr0 = Sysreg.read t.sys Sysreg.TTBR0_EL1;
    ttbr1 = Sysreg.read t.sys Sysreg.TTBR1_EL1;
    vmid = (if stage2_active t then Mmu.ttbr_asid vttbr else 0);
    s2_root = (if stage2_active t then Some (Mmu.ttbr_root vttbr) else None);
    el = t.pstate.el;
    pan = t.pstate.pan;
    unpriv }

(* Fast path: [mmu_ctx] reads four system registers and allocates a
   record; memoize it against the sysreg file's MMU generation and
   refresh the same record in place when it moves — a TTBR0 rewrite
   (every zone-gate transit does two) must not allocate. The [Some]
   box around the stage-2 root is likewise kept when the root value
   is unchanged. PSTATE.{EL,PAN} can change without a register write,
   so they are revalidated against the cached record's own fields.
   Unprivileged (LDTR/STTR) contexts are rare and built fresh. *)
let refresh_ctx t (c : Mmu.ctx) =
  c.Mmu.ttbr0 <- Sysreg.read t.sys Sysreg.TTBR0_EL1;
  c.Mmu.ttbr1 <- Sysreg.read t.sys Sysreg.TTBR1_EL1;
  if stage2_active t then begin
    let vttbr = Sysreg.read t.sys Sysreg.VTTBR_EL2 in
    c.Mmu.vmid <- Mmu.ttbr_asid vttbr;
    let root = Mmu.ttbr_root vttbr in
    match c.Mmu.s2_root with
    | Some r when r = root -> ()
    | _ -> c.Mmu.s2_root <- Some root
  end
  else begin
    c.Mmu.vmid <- 0;
    match c.Mmu.s2_root with
    | Some _ -> c.Mmu.s2_root <- None
    | None -> ()
  end

let ctx_of t ~unpriv =
  let fp = t.fp in
  if unpriv then mmu_ctx t ~unpriv
  else
    match fp.Fastpath.engine with
    | Slow -> mmu_ctx t ~unpriv
    | Per_insn | Blocks -> (
        let g = Sysreg.mmu_gen t.sys in
        match fp.Fastpath.ctx with
        | Some c ->
            if fp.Fastpath.ctx_gen <> g then begin
              refresh_ctx t c;
              fp.Fastpath.ctx_gen <- g
            end;
            if c.Mmu.el <> t.pstate.el then c.Mmu.el <- t.pstate.el;
            if c.Mmu.pan <> t.pstate.pan then c.Mmu.pan <- t.pstate.pan;
            c
        | None ->
            let c = mmu_ctx t ~unpriv:false in
            fp.Fastpath.ctx <- Some c;
            fp.Fastpath.ctx_gen <- g;
            c)

let translate ?front t ~unpriv access ~va =
  match Mmu.translate ?front t.phys t.tlb (ctx_of t ~unpriv) access ~va with
  | Ok ok ->
      if not ok.tlb_hit then charge t (ok.walk_reads * t.cost.pte_read);
      Ok ok.pa
  | Error f -> Error f

exception Exc of exception_class * int (* class, return address *)

(* Translate one page of a data access, raising [Exc] on fault. In
   fast mode the dTLB front cache short-circuits the whole Result
   pipeline on a hit. *)
let data_pa t ~unpriv access ~va ~ret =
  let fp = t.fp in
  match fp.Fastpath.engine with
  | Slow -> (
      match translate t ~unpriv access ~va with
      | Ok pa -> pa
      | Error f -> raise (Exc (Ec_dabort f, ret)))
  | Per_insn | Blocks -> (
      let ctx = ctx_of t ~unpriv in
      match
        Tlb.front_probe t.tlb fp.Fastpath.dtlb ~vmid:ctx.Mmu.vmid
          ~asid:(Mmu.va_asid ctx ~va) ~va
      with
      | Some e -> (
          try Mmu.entry_pa_exn ctx access ~va e
          with Mmu.Fault f -> raise (Exc (Ec_dabort f, ret)))
      | None -> (
          (* Full TLB lookup returns the table's preboxed entry, so a
             hit completes through [entry_pa_exn] without allocating;
             only a real miss pays the Result-typed walk. Accounting is
             identical to [Mmu.translate]. *)
          match
            Tlb.lookup_front t.tlb fp.Fastpath.dtlb ~vmid:ctx.Mmu.vmid
              ~asid:(Mmu.va_asid ctx ~va) ~va
          with
          | Some e -> (
              try Mmu.entry_pa_exn ctx access ~va e
              with Mmu.Fault f -> raise (Exc (Ec_dabort f, ret)))
          | None -> (
              match Mmu.translate_walk t.phys t.tlb ctx access ~va with
              | Ok ok ->
                  charge t (ok.walk_reads * t.cost.pte_read);
                  ok.pa
              | Error f -> raise (Exc (Ec_dabort f, ret)))))

(* Page-straddling accesses: a multi-byte access whose VA crosses a
   4 KiB boundary translates *both* pages (the two halves may live in
   discontiguous frames) and faults on whichever page denies the
   access — the first page first, as on hardware. It is charged as
   one mem_access plus the PTE-read cost of any walk either
   translation performs. *)
let load_raw t ~width ~unpriv ~va ~ret =
  let pa1 = data_pa t ~unpriv Mmu.Read ~va ~ret in
  charge t t.cost.mem_access;
  let split = 4096 - (va land 4095) in
  if width <= split then
    match width with
    | 1 -> Phys.read8 t.phys pa1
    | 4 -> Phys.read32 t.phys pa1
    | 8 -> Phys.read64 t.phys pa1
    | _ -> invalid_arg "Core.load: width"
  else begin
    let pa2 = data_pa t ~unpriv Mmu.Read ~va:(va + split) ~ret in
    let v = ref 0 in
    for i = 0 to width - 1 do
      let pa = if i < split then pa1 + i else pa2 + (i - split) in
      v := !v lor (Phys.read8 t.phys pa lsl (8 * i))
    done;
    !v land max_int
  end

let store_raw t ~width ~unpriv ~va v ~ret =
  let pa1 = data_pa t ~unpriv Mmu.Write ~va ~ret in
  charge t t.cost.mem_access;
  let split = 4096 - (va land 4095) in
  if width <= split then
    match width with
    | 1 -> Phys.write8 t.phys pa1 v
    | 4 -> Phys.write32 t.phys pa1 v
    | 8 -> Phys.write64 t.phys pa1 v
    | _ -> invalid_arg "Core.store: width"
  else begin
    let pa2 = data_pa t ~unpriv Mmu.Write ~va:(va + split) ~ret in
    for i = 0 to width - 1 do
      let pa = if i < split then pa1 + i else pa2 + (i - split) in
      Phys.write8 t.phys pa ((v lsr (8 * i)) land 0xFF)
    done
  end

let read_mem t ?(unpriv = false) ~width va =
  try Ok (load_raw t ~width ~unpriv ~va ~ret:0)
  with Exc (Ec_dabort f, _) -> Error f

let write_mem t ?(unpriv = false) ~width va v =
  try
    store_raw t ~width ~unpriv ~va v ~ret:0;
    Ok ()
  with Exc (Ec_dabort f, _) -> Error f

(* Watchpoint match: WVR holds the base address, WCR bit 0 enables,
   WCR bits 28..24 hold MASK (the watched range is 2^MASK bytes). *)
let watchpoint_hit t va =
  let pairs =
    [ (Sysreg.DBGWVR0_EL1, Sysreg.DBGWCR0_EL1);
      (Sysreg.DBGWVR1_EL1, Sysreg.DBGWCR1_EL1);
      (Sysreg.DBGWVR2_EL1, Sysreg.DBGWCR2_EL1);
      (Sysreg.DBGWVR3_EL1, Sysreg.DBGWCR3_EL1) ]
  in
  List.exists
    (fun (vr, cr) ->
      let c = Sysreg.read t.sys cr in
      Bits.bit c 0
      &&
      let m = Bits.extract c ~hi:28 ~lo:24 in
      let base = Sysreg.read t.sys vr in
      let size = if m = 0 then 8 else 1 lsl m in
      va >= base && va < base + size)
    pairs

(* Fast path: the common case has no watchpoint programmed, so cache
   "any DBGWCR enable bit set" against the sysreg debug generation
   and skip [watchpoint_hit]'s walk entirely when unarmed. The slow
   path always walks. *)
let watchpoints_armed t =
  let fp = t.fp in
  match fp.Fastpath.engine with
  | Slow -> true
  | Per_insn | Blocks ->
      let g = Sysreg.dbg_gen t.sys in
      if fp.Fastpath.wp_gen <> g then begin
        fp.Fastpath.wp_armed <-
          Sysreg.read t.sys Sysreg.DBGWCR0_EL1 land 1 <> 0
          || Sysreg.read t.sys Sysreg.DBGWCR1_EL1 land 1 <> 0
          || Sysreg.read t.sys Sysreg.DBGWCR2_EL1 land 1 <> 0
          || Sysreg.read t.sys Sysreg.DBGWCR3_EL1 land 1 <> 0;
        fp.Fastpath.wp_gen <- g
      end;
      fp.Fastpath.wp_armed

let esr_of_class = function
  | Ec_svc imm -> (0x15 lsl 26) lor imm
  | Ec_hvc imm -> (0x16 lsl 26) lor imm
  | Ec_smc imm -> (0x17 lsl 26) lor imm
  | Ec_brk imm -> (0x3C lsl 26) lor imm
  | Ec_dabort f ->
      let dfsc =
        match f.kind with
        | Mmu.Translation -> 0b000100 + f.level
        | Mmu.Permission -> 0b001100 + f.level
      in
      let wnr = if f.access = Mmu.Write then 1 lsl 6 else 0 in
      let s2 = if f.stage = 2 then 1 lsl 7 else 0 in
      (0x24 lsl 26) lor dfsc lor wnr lor s2
  | Ec_iabort f ->
      let ifsc =
        match f.kind with
        | Mmu.Translation -> 0b000100 + f.level
        | Mmu.Permission -> 0b001100 + f.level
      in
      let s2 = if f.stage = 2 then 1 lsl 7 else 0 in
      (0x20 lsl 26) lor ifsc lor s2
  | Ec_undef _ -> 0
  | Ec_sysreg_trap _ -> 0x18 lsl 26
  | Ec_wfi -> 0x01 lsl 26
  | Ec_watchpoint _ -> 0x34 lsl 26
  | Ec_irq _ -> 0 (* asynchronous: ESR is not written on IRQ entry *)

let fault_of_class = function
  | Ec_dabort f | Ec_iabort f -> Some f
  | _ -> None

let note_trap_enter t cls ~to_el =
  (match t.pmu with
  | Some p -> Pmu.record p Pmu.Event.exc_taken
  | None -> ());
  match t.tracer with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:t.cycles
        (Lz_trace.Trace.Trap_enter
           { ec = esr_of_class cls lsr 26;
             from_el = Pstate.el_number t.pstate.el;
             to_el })
  | None -> ()

let note_trap_exit t ~from_el =
  (match t.pmu with
  | Some p -> Pmu.record p Pmu.Event.exc_return
  | None -> ());
  match t.tracer with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:t.cycles
        (Lz_trace.Trace.Trap_exit
           { from_el; to_el = Pstate.el_number t.pstate.el })
  | None -> ()

let take_exception_to_el2 t cls =
  note_trap_enter t cls ~to_el:2;
  let from = t.pstate.el in
  Sysreg.write t.sys Sysreg.ESR_EL2 (esr_of_class cls);
  Sysreg.write t.sys Sysreg.SPSR_EL2 (Pstate.to_spsr t.pstate);
  (match fault_of_class cls with
  | Some f ->
      Sysreg.write t.sys Sysreg.FAR_EL2 f.va;
      if f.stage = 2 then Sysreg.write t.sys Sysreg.HPFAR_EL2 f.ipa
  | None -> ());
  (match cls with
  | Ec_watchpoint va -> Sysreg.write t.sys Sysreg.FAR_EL2 va
  | _ -> ());
  t.pstate.el <- Pstate.EL2;
  t.pstate.sp_sel <- true;
  (* Hardware exception entry masks DAIF; ERET restores it from the
     SPSR capture above. *)
  t.pstate.daif <- 0xF;
  charge t
    (if from = Pstate.EL0 then t.cost.exc_entry_el2_from_el0
     else t.cost.exc_entry_el2_from_el1)

let take_exception_to_el1 t cls ~ret =
  note_trap_enter t cls ~to_el:1;
  let from = t.pstate.el in
  Sysreg.write t.sys Sysreg.ESR_EL1 (esr_of_class cls);
  Sysreg.write t.sys Sysreg.ELR_EL1 ret;
  Sysreg.write t.sys Sysreg.SPSR_EL1 (Pstate.to_spsr t.pstate);
  (match fault_of_class cls with
  | Some f -> Sysreg.write t.sys Sysreg.FAR_EL1 f.va
  | None -> ());
  (match cls with
  | Ec_watchpoint va -> Sysreg.write t.sys Sysreg.FAR_EL1 va
  | _ -> ());
  t.pstate.el <- Pstate.EL1;
  t.pstate.sp_sel <- true;
  t.pstate.daif <- 0xF;
  charge t t.cost.exc_entry_el1;
  (* Vector offset: 0x200 for current-EL-with-SPx, 0x400 from EL0. *)
  let vbar = Sysreg.read t.sys Sysreg.VBAR_EL1 in
  t.pc <- vbar + if from = Pstate.EL0 then 0x400 else 0x200

let eret_from_el2 t =
  t.pc <- Sysreg.read t.sys Sysreg.ELR_EL2;
  Pstate.of_spsr t.pstate (Sysreg.read t.sys Sysreg.SPSR_EL2);
  charge t t.cost.eret_el2;
  note_trap_exit t ~from_el:2

let eret_from_el1 t =
  t.pc <- Sysreg.read t.sys Sysreg.ELR_EL1;
  Pstate.of_spsr t.pstate (Sysreg.read t.sys Sysreg.SPSR_EL1);
  charge t t.cost.eret_el1;
  note_trap_exit t ~from_el:1

let note_irq_enter t ~intid ~to_el =
  (match t.pmu with
  | Some p -> Pmu.record p Pmu.Event.exc_taken
  | None -> ());
  match t.tracer with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:t.cycles
        (Lz_trace.Trace.Irq_enter
           { intid; from_el = Pstate.el_number t.pstate.el; to_el })
  | None -> ()

(* Asynchronous interrupt delivery, polled at instruction boundaries —
   identically in both [run] loops and in [step], so traced/untraced
   and fast/slow runs take interrupts at the same instruction.
   Delivery depends only on architectural state (DAIF, HCR, the GIC
   latches) and the cycle counter, all of which are bit-identical
   across those modes. IRQs route to EL2 when HCR_EL2.{IMO,TGE} claim
   them (the host kernel under TGE, the LightZone module under IMO);
   otherwise they take the EL1 vector at VBAR_EL1 + 0x280
   (current EL, SPx) or + 0x480 (from EL0). No ESR is written — the
   handler identifies the source by reading ICC_IAR1_EL1. *)
let take_irq t intid =
  let from = t.pstate.el in
  if hcr t land (Sysreg.Hcr.imo lor Sysreg.Hcr.tge) <> 0 then begin
    note_irq_enter t ~intid ~to_el:2;
    Sysreg.write t.sys Sysreg.ELR_EL2 t.pc;
    Sysreg.write t.sys Sysreg.SPSR_EL2 (Pstate.to_spsr t.pstate);
    t.pstate.el <- Pstate.EL2;
    t.pstate.sp_sel <- true;
    t.pstate.daif <- 0xF;
    charge t
      (if from = Pstate.EL0 then t.cost.exc_entry_el2_from_el0
       else t.cost.exc_entry_el2_from_el1);
    Some (Trap_el2 (Ec_irq intid))
  end
  else begin
    note_irq_enter t ~intid ~to_el:1;
    Sysreg.write t.sys Sysreg.ELR_EL1 t.pc;
    Sysreg.write t.sys Sysreg.SPSR_EL1 (Pstate.to_spsr t.pstate);
    t.pstate.el <- Pstate.EL1;
    t.pstate.sp_sel <- true;
    t.pstate.daif <- 0xF;
    charge t t.cost.exc_entry_el1;
    let vbar = Sysreg.read t.sys Sysreg.VBAR_EL1 in
    t.pc <- (vbar + if from = Pstate.EL0 then 0x480 else 0x280);
    if t.route_el1_to_harness then Some (Trap_el1 (Ec_irq intid)) else None
  end

let poll_irq t iv =
  if t.pstate.daif land 2 <> 0 then None
  else
    let pmu_line =
      match t.pmu with
      | Some p -> Pmu.irq_line p ~cycles:t.cycles ~insns:t.insns
      | None -> false
    in
    match Lz_irq.Irq.pending iv ~now:t.cycles ~pmu_line with
    | None -> None
    | Some intid -> take_irq t intid

(* The stall check precedes IRQ delivery and ignores DAIF: a core
   waiting on DVM completion is paused by the fabric, not by an
   architectural mask. The flag is cleared by the SMP driver when the
   last remote acknowledge arrives. *)
let maybe_irq t =
  if t.stall then Some Stall
  else match t.irqc with None -> None | Some iv -> poll_irq t iv

(* Default end-of-interrupt quiescing for OCaml-modelled handlers: if
   the acked source's level line is still asserted after the handler
   ran (nothing reprogrammed the timer / cleared PMOVS), silence it so
   a level-triggered PPI cannot re-pend forever. *)
let quiesce_irq t intid =
  match t.irqc with
  | None -> ()
  | Some iv ->
      if
        intid = Lz_irq.Gic.ppi_el1_timer
        && Lz_irq.Timer.output iv.Lz_irq.Irq.timer ~now:t.cycles
      then Lz_irq.Timer.stop iv.Lz_irq.Irq.timer
      else if intid = Lz_irq.Gic.ppi_pmu then
        match t.pmu with
        | Some p when Pmu.irq_line p ~cycles:t.cycles ~insns:t.insns ->
            Pmu.write_ovsclr p ~cycles:t.cycles ~insns:t.insns (-1)
        | _ -> ()

(* The OCaml-modelled handlers' GIC service of one physical interrupt:
   acknowledge at the CPU interface, run [hook] on the INTID, quiesce
   a source it left asserted, EOI — each GIC access charged from the
   cost model. A spurious acknowledge stops after the charge. *)
let service_irq t hook =
  match t.irqc with
  | None -> ()
  | Some iv ->
      charge t t.cost.gic_ack;
      let intid = Lz_irq.Irq.ack iv in
      if intid <> Lz_irq.Gic.spurious then begin
        hook intid;
        quiesce_irq t intid;
        Lz_irq.Irq.eoi iv intid;
        charge t t.cost.gic_eoi
      end

(* Exception routing: decides who handles an exception, performs the
   architectural entry, and reports whether the harness takes over. *)
let deliver t cls ~ret =
  let to_el2 () =
    Sysreg.write t.sys Sysreg.ELR_EL2 ret;
    take_exception_to_el2 t cls;
    Some (Trap_el2 cls)
  in
  let to_el1 () =
    if t.route_el1_to_harness then begin
      take_exception_to_el1 t cls ~ret;
      Some (Trap_el1 cls)
    end
    else begin
      take_exception_to_el1 t cls ~ret;
      None
    end
  in
  let tge = hcr t land Sysreg.Hcr.tge <> 0 in
  match cls with
  | Ec_hvc _ | Ec_smc _ | Ec_sysreg_trap _ | Ec_wfi -> to_el2 ()
  | Ec_dabort f | Ec_iabort f when f.stage = 2 -> to_el2 ()
  | _ -> if t.pstate.el = Pstate.EL0 && tge then to_el2 () else to_el1 ()

let stage1_trap_regs =
  [ Sysreg.TTBR0_EL1; Sysreg.TTBR1_EL1; Sysreg.TCR_EL1; Sysreg.SCTLR_EL1;
    Sysreg.MAIR_EL1; Sysreg.CONTEXTIDR_EL1 ]

let cond_holds (p : Pstate.t) = function
  | Insn.EQ -> p.z
  | Insn.NE -> not p.z
  | Insn.CS -> p.c
  | Insn.CC -> not p.c
  | Insn.MI -> p.n
  | Insn.PL -> not p.n
  | Insn.VS -> p.v
  | Insn.VC -> not p.v
  | Insn.HI -> p.c && not p.z
  | Insn.LS -> not p.c || p.z
  | Insn.GE -> p.n = p.v
  | Insn.LT -> p.n <> p.v
  | Insn.GT -> (not p.z) && p.n = p.v
  | Insn.LE -> p.z || p.n <> p.v
  | Insn.AL -> true

let operand_value t = function
  | Insn.Imm i -> i
  | Insn.Reg r -> reg t r

(* All arithmetic is on OCaml's 63-bit ints; the simulated software
   (gates, kernels, workloads) never relies on bits 62-63. *)
let exec_alu t insn =
  charge t t.cost.insn_base;
  match insn with
  | Insn.Movz (rd, imm, sh) -> set_reg t rd (imm lsl sh)
  | Insn.Movk (rd, imm, sh) ->
      let old = reg t rd in
      set_reg t rd (Bits.insert old ~hi:(Int.min 62 (sh + 15)) ~lo:sh imm)
  | Insn.Mov_reg (rd, rm) -> set_reg t rd (reg t rm)
  | Insn.Add (rd, rn, op) -> set_reg t rd (reg t rn + operand_value t op)
  | Insn.Sub (rd, rn, op) -> set_reg t rd (reg t rn - operand_value t op)
  | Insn.Subs (rd, rn, op) ->
      let a = reg t rn and b = operand_value t op in
      let r = a - b in
      set_reg t rd r;
      t.pstate.n <- r < 0;
      t.pstate.z <- r = 0;
      (* C is the no-borrow flag of the unsigned comparison. *)
      t.pstate.c <- (a land max_int) >= (b land max_int);
      t.pstate.v <- false
  | Insn.And_reg (rd, rn, rm) -> set_reg t rd (reg t rn land reg t rm)
  | Insn.Orr_reg (rd, rn, rm) -> set_reg t rd (reg t rn lor reg t rm)
  | Insn.Eor_reg (rd, rn, rm) -> set_reg t rd (reg t rn lxor reg t rm)
  | Insn.Lsl_imm (rd, rn, sh) -> set_reg t rd (reg t rn lsl sh)
  | Insn.Lsr_imm (rd, rn, sh) ->
      set_reg t rd ((reg t rn land max_int) lsr sh)
  | _ -> assert false

(* System-register access checks: privilege and HCR trap bits. *)
let check_sysreg_access t insn r ~is_write ~ret =
  let el = t.pstate.el in
  let need = Sysreg.min_el r in
  if Pstate.el_number el < Pstate.el_number need then
    raise (Exc (Ec_undef (Encoding.encode insn), ret));
  if el = Pstate.EL1 then begin
    let h = hcr t in
    let trapped =
      (is_write && h land Sysreg.Hcr.tvm <> 0
       && List.mem r stage1_trap_regs)
      || ((not is_write) && h land Sysreg.Hcr.trvm <> 0
          && List.mem r stage1_trap_regs)
    in
    if trapped then raise (Exc (Ec_sysreg_trap insn, ret))
  end

(* PMU registers are serviced from the attached Pmu.t, not the
   register file, so MRS reads observe live counter values. *)
let pmu_write t r v =
  let p = attach_pmu t in
  let cycles = t.cycles and insns = t.insns in
  match r with
  | Sysreg.PMCR_EL0 -> Pmu.write_pmcr p ~cycles ~insns v
  | Sysreg.PMCNTENSET_EL0 -> Pmu.write_cntenset p ~cycles ~insns v
  | Sysreg.PMCNTENCLR_EL0 -> Pmu.write_cntenclr p ~cycles ~insns v
  | Sysreg.PMCCNTR_EL0 -> Pmu.write_ccntr p ~cycles v
  | Sysreg.(
      ( PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 | PMEVCNTR3_EL0
      | PMEVCNTR4_EL0 | PMEVCNTR5_EL0 )) ->
      Pmu.write_evcntr p ~cycles ~insns (Sysreg.pmev_slot r) v
  | Sysreg.(
      ( PMEVTYPER0_EL0 | PMEVTYPER1_EL0 | PMEVTYPER2_EL0 | PMEVTYPER3_EL0
      | PMEVTYPER4_EL0 | PMEVTYPER5_EL0 )) ->
      Pmu.write_evtyper p ~cycles ~insns (Sysreg.pmev_slot r) v
  | Sysreg.PMOVSSET_EL0 -> Pmu.write_ovsset p ~cycles ~insns v
  | Sysreg.PMOVSCLR_EL0 -> Pmu.write_ovsclr p ~cycles ~insns v
  | Sysreg.PMINTENSET_EL1 -> Pmu.write_intenset p v
  | Sysreg.PMINTENCLR_EL1 -> Pmu.write_intenclr p v
  | _ -> assert false

let pmu_read t r =
  let p = attach_pmu t in
  let cycles = t.cycles and insns = t.insns in
  match r with
  | Sysreg.PMCR_EL0 -> Pmu.read_pmcr p
  | Sysreg.PMCNTENSET_EL0 | Sysreg.PMCNTENCLR_EL0 -> Pmu.read_cnten p
  | Sysreg.PMCCNTR_EL0 -> Pmu.read_ccntr p ~cycles
  | Sysreg.(
      ( PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 | PMEVCNTR3_EL0
      | PMEVCNTR4_EL0 | PMEVCNTR5_EL0 )) ->
      Pmu.read_evcntr p ~cycles ~insns (Sysreg.pmev_slot r)
  | Sysreg.(
      ( PMEVTYPER0_EL0 | PMEVTYPER1_EL0 | PMEVTYPER2_EL0 | PMEVTYPER3_EL0
      | PMEVTYPER4_EL0 | PMEVTYPER5_EL0 )) ->
      Pmu.read_evtyper p (Sysreg.pmev_slot r)
  | Sysreg.PMOVSSET_EL0 | Sysreg.PMOVSCLR_EL0 ->
      Pmu.read_ovs p ~cycles ~insns
  | Sysreg.PMINTENSET_EL1 | Sysreg.PMINTENCLR_EL1 -> Pmu.read_inten p
  | _ -> assert false

(* Generic-timer and GIC CPU-interface registers are serviced from the
   attached IRQ fabric. ICC_IAR1_EL1 / ICC_HPPIR1_EL1 reads first
   refresh the level-sensitive inputs (timer output, PMU overflow
   line) so the acknowledged INTID reflects the lines at read time. *)
let refresh_irq_inputs t iv =
  let pmu_line =
    match t.pmu with
    | Some p -> Pmu.irq_line p ~cycles:t.cycles ~insns:t.insns
    | None -> false
  in
  ignore (Lz_irq.Irq.pending iv ~now:t.cycles ~pmu_line)

let irq_write t r v =
  let iv = attach_irq t in
  let gic = iv.Lz_irq.Irq.gic and timer = iv.Lz_irq.Irq.timer in
  match r with
  | Sysreg.CNTP_TVAL_EL0 -> Lz_irq.Timer.write_tval timer ~now:t.cycles v
  | Sysreg.CNTP_CTL_EL0 -> Lz_irq.Timer.write_ctl timer v
  | Sysreg.CNTP_CVAL_EL0 -> Lz_irq.Timer.write_cval timer v
  | Sysreg.ICC_PMR_EL1 -> Lz_irq.Gic.write_pmr gic v
  | Sysreg.ICC_EOIR1_EL1 -> Lz_irq.Gic.eoi gic (v land 0xFFFFFF)
  | Sysreg.ICC_BPR1_EL1 -> Lz_irq.Gic.write_bpr1 gic v
  | Sysreg.ICC_IGRPEN1_EL1 -> Lz_irq.Gic.write_igrpen1 gic v
  | Sysreg.ICC_SGI1R_EL1 -> Lz_irq.Gic.write_sgi1r gic v
  | Sysreg.ICC_CTLR_EL1 | Sysreg.ICC_SRE_EL1 | Sysreg.ICC_IAR1_EL1
  | Sysreg.ICC_HPPIR1_EL1 | Sysreg.ICC_RPR_EL1 ->
      () (* read-only or fixed-behaviour: writes are ignored *)
  | _ -> assert false

let irq_read t r =
  let iv = attach_irq t in
  let gic = iv.Lz_irq.Irq.gic and timer = iv.Lz_irq.Irq.timer in
  match r with
  | Sysreg.CNTP_TVAL_EL0 -> Lz_irq.Timer.read_tval timer ~now:t.cycles
  | Sysreg.CNTP_CTL_EL0 -> Lz_irq.Timer.read_ctl timer ~now:t.cycles
  | Sysreg.CNTP_CVAL_EL0 -> Lz_irq.Timer.read_cval timer
  | Sysreg.ICC_PMR_EL1 -> Lz_irq.Gic.read_pmr gic
  | Sysreg.ICC_IAR1_EL1 ->
      refresh_irq_inputs t iv;
      Lz_irq.Gic.acknowledge gic
  | Sysreg.ICC_HPPIR1_EL1 ->
      refresh_irq_inputs t iv;
      Lz_irq.Gic.read_hppir1 gic
  | Sysreg.ICC_BPR1_EL1 -> Lz_irq.Gic.read_bpr1 gic
  | Sysreg.ICC_CTLR_EL1 -> 0
  | Sysreg.ICC_SRE_EL1 -> 0x7 (* SRE|DFB|DIB: sysreg interface on *)
  | Sysreg.ICC_IGRPEN1_EL1 -> Lz_irq.Gic.read_igrpen1 gic
  | Sysreg.ICC_RPR_EL1 -> Lz_irq.Gic.read_rpr gic
  | Sysreg.ICC_EOIR1_EL1 -> 0 (* write-only *)
  | _ -> assert false

let exec_sysreg t insn ~ret =
  match insn with
  | Insn.Msr (r, rt) -> (
      check_sysreg_access t insn r ~is_write:true ~ret;
      charge_sysreg t ~at:t.pstate.el r;
      match r with
      | Sysreg.NZCV -> Pstate.set_nzcv t.pstate (reg t rt lsr 28)
      | Sysreg.DAIF -> t.pstate.daif <- (reg t rt lsr 6) land 0xF
      | Sysreg.SP_EL0 -> t.sp_el0 <- reg t rt
      | Sysreg.(
          ( PMCR_EL0 | PMCNTENSET_EL0 | PMCNTENCLR_EL0 | PMCCNTR_EL0
          | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 | PMEVCNTR3_EL0
          | PMEVCNTR4_EL0 | PMEVCNTR5_EL0 | PMEVTYPER0_EL0 | PMEVTYPER1_EL0
          | PMEVTYPER2_EL0 | PMEVTYPER3_EL0 | PMEVTYPER4_EL0
          | PMEVTYPER5_EL0 | PMOVSSET_EL0 | PMOVSCLR_EL0 | PMINTENSET_EL1
          | PMINTENCLR_EL1 )) ->
          pmu_write t r (reg t rt)
      | Sysreg.(
          ( CNTP_TVAL_EL0 | CNTP_CTL_EL0 | CNTP_CVAL_EL0 | ICC_PMR_EL1
          | ICC_IAR1_EL1 | ICC_EOIR1_EL1 | ICC_HPPIR1_EL1 | ICC_BPR1_EL1
          | ICC_CTLR_EL1 | ICC_SRE_EL1 | ICC_IGRPEN1_EL1 | ICC_RPR_EL1
          | ICC_SGI1R_EL1 )) ->
          irq_write t r (reg t rt)
      | Sysreg.TTBR0_EL1 ->
          Sysreg.write t.sys r (reg t rt);
          (match t.tracer with
          | Some tr ->
              Lz_trace.Trace.emit tr ~cycles:t.cycles
                (Lz_trace.Trace.Domain_switch
                   { asid = Mmu.ttbr_asid (reg t rt) })
          | None -> ())
      | r -> Sysreg.write t.sys r (reg t rt))
  | Insn.Mrs (rt, r) -> (
      check_sysreg_access t insn r ~is_write:false ~ret;
      charge_sysreg t ~at:t.pstate.el r;
      match r with
      | Sysreg.NZCV -> set_reg t rt (Pstate.nzcv t.pstate lsl 28)
      | Sysreg.DAIF -> set_reg t rt (t.pstate.daif lsl 6)
      | Sysreg.SP_EL0 -> set_reg t rt t.sp_el0
      | Sysreg.CNTVCT_EL0 -> set_reg t rt t.cycles
      | Sysreg.(
          ( PMCR_EL0 | PMCNTENSET_EL0 | PMCNTENCLR_EL0 | PMCCNTR_EL0
          | PMEVCNTR0_EL0 | PMEVCNTR1_EL0 | PMEVCNTR2_EL0 | PMEVCNTR3_EL0
          | PMEVCNTR4_EL0 | PMEVCNTR5_EL0 | PMEVTYPER0_EL0 | PMEVTYPER1_EL0
          | PMEVTYPER2_EL0 | PMEVTYPER3_EL0 | PMEVTYPER4_EL0
          | PMEVTYPER5_EL0 | PMOVSSET_EL0 | PMOVSCLR_EL0 | PMINTENSET_EL1
          | PMINTENCLR_EL1 )) ->
          set_reg t rt (pmu_read t r)
      | Sysreg.(
          ( CNTP_TVAL_EL0 | CNTP_CTL_EL0 | CNTP_CVAL_EL0 | ICC_PMR_EL1
          | ICC_IAR1_EL1 | ICC_EOIR1_EL1 | ICC_HPPIR1_EL1 | ICC_BPR1_EL1
          | ICC_CTLR_EL1 | ICC_SRE_EL1 | ICC_IGRPEN1_EL1 | ICC_RPR_EL1
          | ICC_SGI1R_EL1 )) ->
          set_reg t rt (irq_read t r)
      | r -> set_reg t rt (Sysreg.read t.sys r))
  | Insn.Msr_pstate (f, imm) -> (
      (match f with
      | Insn.PAN | Insn.SPSel | Insn.UAO ->
          if t.pstate.el = Pstate.EL0 then
            raise (Exc (Ec_undef (Encoding.encode insn), ret))
      | Insn.DAIFSet | Insn.DAIFClr -> ());
      charge t t.cost.pan_toggle;
      match f with
      | Insn.PAN -> t.pstate.pan <- imm land 1 = 1
      | Insn.SPSel -> t.pstate.sp_sel <- imm land 1 = 1
      | Insn.UAO -> ()
      | Insn.DAIFSet -> t.pstate.daif <- t.pstate.daif lor imm
      | Insn.DAIFClr -> t.pstate.daif <- t.pstate.daif land lnot imm)
  | _ -> assert false

let current_vmid t =
  if stage2_active t then Mmu.ttbr_asid (Sysreg.read t.sys Sysreg.VTTBR_EL2)
  else 0

let broadcast_shootdown t sd =
  match t.on_shootdown with Some f -> f sd | None -> ()

let exec_tlbi t insn ~ret =
  if t.pstate.el = Pstate.EL0 then
    raise (Exc (Ec_undef (Encoding.encode insn), ret));
  if t.pstate.el = Pstate.EL1 && hcr t land Sysreg.Hcr.ttlb <> 0 then
    raise (Exc (Ec_sysreg_trap insn, ret));
  charge t t.cost.tlbi;
  match insn with
  | Insn.Tlbi_vmalle1 -> Tlb.flush_vmid t.tlb (current_vmid t)
  | Insn.Tlbi_aside1 r ->
      let asid = (reg t r lsr 48) land 0x3FFF in
      Tlb.flush_asid t.tlb ~vmid:(current_vmid t) ~asid
  | Insn.Tlbi_vmalle1is ->
      let vmid = current_vmid t in
      Tlb.flush_vmid t.tlb vmid;
      broadcast_shootdown t (Sd_vmalle1 vmid)
  | Insn.Tlbi_vae1is r ->
      (* VA[55:12] in operand bits 43:0 (the page number). *)
      let va = (reg t r land 0xFFF_FFFF_FFFF) * 4096 in
      let vmid = current_vmid t in
      Tlb.flush_va t.tlb ~vmid ~va;
      broadcast_shootdown t (Sd_vae1 { vmid; va })
  | Insn.Tlbi_aside1is r ->
      let asid = (reg t r lsr 48) land 0x3FFF in
      let vmid = current_vmid t in
      Tlb.flush_asid t.tlb ~vmid ~asid;
      broadcast_shootdown t (Sd_aside1 { vmid; asid })
  | _ -> assert false

let check_watchpoints t ~va ~ret =
  if t.pstate.el <> Pstate.EL2 && watchpoints_armed t && watchpoint_hit t va
  then raise (Exc (Ec_watchpoint va, ret))

let ld t rt ~width ~unpriv ~va ~ret =
  check_watchpoints t ~va ~ret;
  set_reg t rt (load_raw t ~width ~unpriv ~va ~ret)

let st t ~width ~unpriv ~va v ~ret =
  check_watchpoints t ~va ~ret;
  store_raw t ~width ~unpriv ~va v ~ret

let exec t insn ~pc_cur ~next =
  let ret_here = pc_cur and ret_next = next in
  (match insn with
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ ->
      exec_alu t insn;
      t.pc <- next
  | Insn.Ldr (rt, rn, off) ->
      ld t rt ~width:8 ~unpriv:false ~va:(base_reg t rn + off) ~ret:ret_here;
      t.pc <- next
  | Insn.Str (rt, rn, off) ->
      st t ~width:8 ~unpriv:false ~va:(base_reg t rn + off) (reg t rt)
        ~ret:ret_here;
      t.pc <- next
  | Insn.Ldrb (rt, rn, off) ->
      ld t rt ~width:1 ~unpriv:false ~va:(base_reg t rn + off) ~ret:ret_here;
      t.pc <- next
  | Insn.Ldr32 (rt, rn, off) ->
      ld t rt ~width:4 ~unpriv:false ~va:(base_reg t rn + off) ~ret:ret_here;
      t.pc <- next
  | Insn.Str32 (rt, rn, off) ->
      st t ~width:4 ~unpriv:false ~va:(base_reg t rn + off)
        (reg t rt land 0xFFFFFFFF) ~ret:ret_here;
      t.pc <- next
  | Insn.Strb (rt, rn, off) ->
      st t ~width:1 ~unpriv:false ~va:(base_reg t rn + off) (reg t rt)
        ~ret:ret_here;
      t.pc <- next
  | Insn.Ldr_reg (rt, rn, rm) ->
      ld t rt ~width:8 ~unpriv:false ~va:(base_reg t rn + reg t rm)
        ~ret:ret_here;
      t.pc <- next
  | Insn.Str_reg (rt, rn, rm) ->
      st t ~width:8 ~unpriv:false ~va:(base_reg t rn + reg t rm) (reg t rt)
        ~ret:ret_here;
      t.pc <- next
  | Insn.Ldtr (rt, rn, off) ->
      ld t rt ~width:8 ~unpriv:true ~va:(base_reg t rn + off) ~ret:ret_here;
      t.pc <- next
  | Insn.Sttr (rt, rn, off) ->
      st t ~width:8 ~unpriv:true ~va:(base_reg t rn + off) (reg t rt)
        ~ret:ret_here;
      t.pc <- next
  | Insn.Ldtrb (rt, rn, off) ->
      ld t rt ~width:1 ~unpriv:true ~va:(base_reg t rn + off) ~ret:ret_here;
      t.pc <- next
  | Insn.Sttrb (rt, rn, off) ->
      st t ~width:1 ~unpriv:true ~va:(base_reg t rn + off) (reg t rt)
        ~ret:ret_here;
      t.pc <- next
  | Insn.B off ->
      charge t t.cost.insn_base;
      t.pc <- pc_cur + off
  | Insn.Bcond (c, off) ->
      charge t t.cost.insn_base;
      t.pc <- (if cond_holds t.pstate c then pc_cur + off else next)
  | Insn.Bl off ->
      charge t t.cost.insn_base;
      set_reg t 30 next;
      t.pc <- pc_cur + off
  | Insn.Br r ->
      charge t t.cost.insn_base;
      t.pc <- reg t r
  | Insn.Blr r ->
      charge t t.cost.insn_base;
      set_reg t 30 next;
      t.pc <- reg t r
  | Insn.Ret r ->
      charge t t.cost.insn_base;
      t.pc <- reg t r
  | Insn.Cbz (r, off) ->
      charge t t.cost.insn_base;
      t.pc <- (if reg t r = 0 then pc_cur + off else next)
  | Insn.Cbnz (r, off) ->
      charge t t.cost.insn_base;
      t.pc <- (if reg t r <> 0 then pc_cur + off else next)
  | Insn.Svc imm -> raise (Exc (Ec_svc imm, ret_next))
  | Insn.Hvc imm ->
      if t.pstate.el = Pstate.EL0 then
        raise (Exc (Ec_undef (Encoding.encode insn), ret_here))
      else raise (Exc (Ec_hvc imm, ret_next))
  | Insn.Smc imm ->
      if t.pstate.el = Pstate.EL0 then
        raise (Exc (Ec_undef (Encoding.encode insn), ret_here))
      else raise (Exc (Ec_smc imm, ret_next))
  | Insn.Brk imm -> raise (Exc (Ec_brk imm, ret_here))
  | Insn.Eret ->
      if t.pstate.el <> Pstate.EL1 then
        raise (Exc (Ec_undef (Encoding.encode insn), ret_here))
      else eret_from_el1 t
  | Insn.Msr _ | Insn.Mrs _ | Insn.Msr_pstate _ ->
      exec_sysreg t insn ~ret:ret_here;
      t.pc <- next
  | Insn.Isb ->
      charge t t.cost.isb;
      t.pc <- next
  | Insn.Dsb ->
      charge t t.cost.dsb;
      t.pc <- next
  | Insn.Nop ->
      charge t t.cost.insn_base;
      t.pc <- next
  | Insn.Tlbi_vmalle1 | Insn.Tlbi_aside1 _ | Insn.Tlbi_vmalle1is
  | Insn.Tlbi_vae1is _ | Insn.Tlbi_aside1is _ ->
      exec_tlbi t insn ~ret:ret_here;
      t.pc <- next
  | Insn.At_s1e1r _ | Insn.Dc_civac _ ->
      if t.pstate.el = Pstate.EL0 then
        raise (Exc (Ec_undef (Encoding.encode insn), ret_here))
      else begin
        charge t t.cost.dsb;
        t.pc <- next
      end
  | Insn.Ic_iallu ->
      if t.pstate.el = Pstate.EL0 then
        raise (Exc (Ec_undef (Encoding.encode insn), ret_here))
      else begin
        (* Instruction-cache invalidate: drop the decoded-insn cache. *)
        Fastpath.flush_decode t.fp;
        charge t t.cost.dsb;
        t.pc <- next
      end
  | Insn.Wfi ->
      if t.pstate.el <> Pstate.EL2 && hcr t land Sysreg.Hcr.twi <> 0 then
        raise (Exc (Ec_wfi, ret_next))
      else begin
        charge t t.cost.insn_base;
        t.pc <- next
      end
  | Insn.Udf w -> raise (Exc (Ec_undef w, ret_here)))

(* Instruction fetch. Fast mode short-circuits translation through the
   iTLB front cache and reads the decoded instruction from the
   per-physical-page decode cache (validated against the frame's write
   generation, so simulated and OCaml-side code writes both
   invalidate). Accounting — TLB hits/misses, walk-read charges,
   faults — is identical to the slow path. *)
let fetch_pa t ~pc_cur =
  let fp = t.fp in
  match fp.Fastpath.engine with
  | Slow -> (
      match translate t ~unpriv:false Mmu.Exec ~va:pc_cur with
      | Ok pa -> pa
      | Error f -> raise (Exc (Ec_iabort f, pc_cur)))
  | Per_insn | Blocks -> (
      let ctx = ctx_of t ~unpriv:false in
      match
        Tlb.front_probe t.tlb fp.Fastpath.itlb ~vmid:ctx.Mmu.vmid
          ~asid:(Mmu.va_asid ctx ~va:pc_cur) ~va:pc_cur
      with
      | Some e -> (
          try Mmu.entry_pa_exn ctx Mmu.Exec ~va:pc_cur e
          with Mmu.Fault f -> raise (Exc (Ec_iabort f, pc_cur)))
      | None -> (
          (* Same allocation-free hit completion as [data_pa]: the full
             lookup hands back the table's preboxed entry. *)
          match
            Tlb.lookup_front t.tlb fp.Fastpath.itlb ~vmid:ctx.Mmu.vmid
              ~asid:(Mmu.va_asid ctx ~va:pc_cur) ~va:pc_cur
          with
          | Some e -> (
              try Mmu.entry_pa_exn ctx Mmu.Exec ~va:pc_cur e
              with Mmu.Fault f -> raise (Exc (Ec_iabort f, pc_cur)))
          | None -> (
              match Mmu.translate_walk t.phys t.tlb ctx Mmu.Exec ~va:pc_cur with
              | Ok ok ->
                  charge t (ok.walk_reads * t.cost.pte_read);
                  ok.pa
              | Error f -> raise (Exc (Ec_iabort f, pc_cur)))))

let step_body t ~pc_cur ~next =
  t.insns <- t.insns + 1;
  charge t t.cost.insn_base;
  try
    let pa = fetch_pa t ~pc_cur in
    let insn =
      match t.fp.Fastpath.engine with
      | Slow -> Encoding.decode (Phys.read32 t.phys pa)
      | Per_insn | Blocks -> Fastpath.fetch t.fp t.phys pa
    in
    exec t insn ~pc_cur ~next;
    None
  with Exc (cls, ret) -> deliver t cls ~ret

(* The IRQ poll precedes the marker check: if delivery redirects the
   PC into a handler, the original instruction's marker must not fire
   this boundary (it fires when execution resumes there after ERET,
   exactly once, as on hardware). *)
let step t =
  match maybe_irq t with
  | Some _ as stop -> stop
  | None ->
      let pc_cur = t.pc in
      (match t.tracer with
      | None -> ()
      | Some tr -> (
          match Lz_trace.Trace.marker_at tr pc_cur with
          | Some payload -> Lz_trace.Trace.emit tr ~cycles:t.cycles payload
          | None -> ()));
      step_body t ~pc_cur ~next:(pc_cur + 4)

(* ------------------------------------------------------------------ *)
(* Block execution engine.

   The superblock dispatcher amortizes the per-instruction dispatch
   work (IRQ poll, iTLB front probe, decode-cache lookup) over runs
   of instructions — straight-line code plus folded hot conditional
   branches (trace trees with side exits, see DESIGN.md §12) — while
   staying bit-identical to the per-instruction path on every piece
   of architectural state —
   registers, memory, cycles, insns, TLB hit/miss statistics, and the
   exact instruction boundary at which asynchronous interrupts are
   taken.  The three-way qcheck differential property and
   `bench table5 --preempt` enforce this.

   Correctness argument, per elided per-boundary check:

   - IRQ poll -> interrupt horizon.  [irq_horizon] lower-bounds the
     cycle at which [maybe_irq] could next return [Some _] given it
     just returned [None].  Its inputs (DAIF, GIC filters, timer
     CVAL/CTL, PMU PMINTEN) change only via exception entry, ERET and
     the MSRs and device MRSs that [Fastpath.ending_of] classes [Stop],
     which are block terminators, so inside a block — and across
     chain-followed plain branches — the bound stays valid and a
     cheap [cycles >= horizon] compare at each boundary is exact:
     below the horizon the full poll provably returns [None]; at or
     above it the engine bails to the dispatcher, which re-polls.

   - iTLB front probe -> TLB generation check.  A front probe hits
     iff the TLB generation is unchanged since the last real fetch of
     the same page under the same ASID/VMID context (and blocks never
     cross pages), so an unchanged generation lets the block count
     the hit without probing; any change falls back to the real, fully
     accounted [fetch_pa].  The context can change inside a block only
     at MSR TTBR0_EL1 or MSR PAN, which carry effect bit 2: the fetch
     after them is always the real [fetch_pa], which refreshes the
     memoised MMU context, and the block continues only if that fetch
     maps to the next instruction's recorded frame (gate pages sit in
     the global TTBR1 half, so the call gate's own fetch never moves).
     VTTBR/HCR writes and exception entry/return stay terminators.

   - decode lookup -> frame write-generation check.  Before every
     in-block instruction the frame generation is compared against
     the block's build-time capture; a store into the code page
     (self-modifying code) bails to the dispatcher, which re-forms
     the block from the fresh bytes exactly as the per-insn path
     re-decodes them. *)

let irq_horizon t =
  if t.pstate.daif land 2 <> 0 then max_int
  else
    match t.irqc with
    | None -> max_int
    | Some iv ->
        let pmu_hot =
          match t.pmu with Some p -> Pmu.read_inten p <> 0 | None -> false
        in
        Lz_irq.Irq.horizon iv ~now:t.cycles ~pmu_hot

(* [exec_block] outcomes. A side exit returns the folded branch's
   instruction index (>= 0): the block left mid-way through its cold
   direction with the cold target in t.pc.  Side exits are intra-block
   control flow (pure PC writes), so the interrupt horizon computed at
   block entry is still valid and the dispatcher may chain straight
   into the cold target under it.  A trap raises [Exc] out of
   [exec_block] to the dispatcher, which delivers it. *)
let blk_end = -1  (* ran through the terminator; t.pc is the successor *)
let blk_bail = -2  (* stopped early (generation/horizon/budget/translation) *)
let blk_running = -3

(* Execute (a prefix of) [blk], whose first instruction is at [t.pc]
   with its instruction fetch already performed and accounted by the
   dispatcher.  [tgen] is the TLB generation right after that fetch;
   [max_n] caps retired instructions (budget); [horizon] is the
   current interrupt horizon; [tmark] is the tracer iff the entry
   VA's page carries PC markers (blocks never cross pages, so one
   page check at entry covers every in-block instruction).  Each
   instruction replicates the per-insn path's ordering exactly:
   boundary checks (standing in for the IRQ poll), then the marker
   check, then insns++/insn_base, then ifetch accounting, then
   [exec].  The boundary generation re-checks are elided after
   instructions whose [b_eff] bits prove they cannot have moved the
   page or TLB generation — only the just-executed instruction can
   move either between two in-block boundaries — the fetch after a
   translation-context write (bit 2) is always redone for real, and
   the proven front-probe hits are accounted in one batch at exit,
   trap or not (the counters are unobservable mid-block).  After a
   folded conditional branch, [t.pc] is compared against the recorded hot
   direction: a match continues the trace, a mismatch leaves through
   the side exit with the cold target in [t.pc].  One loop over int
   locals: nothing here allocates. *)
let exec_block t (blk : Fastpath.block) ~max_n ~horizon ~tgen ~tmark =
  let fp = t.fp in
  let code = blk.Fastpath.b_code in
  let ipa = blk.Fastpath.b_ipa in
  let sxs = blk.Fastpath.b_sx in
  let eff = blk.Fastpath.b_eff in
  let len = Array.length code in
  let n = if max_n < len then max_n else len in
  let phys = t.phys and tlb = t.tlb in
  fp.Fastpath.st_entries <- fp.Fastpath.st_entries + 1;
  let i = ref 0 and tg = ref tgen and result = ref blk_running in
  let pending_hits = ref 0 in
  (try
     while !result = blk_running do
       let k = !i in
       if k >= n then result := if n < len then blk_bail else blk_end
       else if
         k > 0
         && ((eff.(k - 1) land 2 <> 0
             && Phys.page_gen phys blk.Fastpath.b_page <> blk.Fastpath.b_dgen)
            || t.cycles >= horizon)
       then result := blk_bail
       else begin
         (* Marker check for traced runs on a marked page.  Insn 0's
            marker was already checked by the dispatcher (before the
            entry fetch, as in [step]); a bailed iteration re-enters
            through the dispatcher which re-checks, so the check sits
            after the boundary bails to avoid double emission. *)
         (match tmark with
         | Some tr when k > 0 -> (
             match Lz_trace.Trace.marker_at tr t.pc with
             | Some payload -> Lz_trace.Trace.emit tr ~cycles:t.cycles payload
             | None -> ())
         | _ -> ());
         t.insns <- t.insns + 1;
         charge t t.cost.insn_base;
         let pc_cur = t.pc in
         if k = 0 then
           (* The dispatcher already fetched and accounted insn 0. *)
           exec t code.(0) ~pc_cur ~next:(pc_cur + 4)
         else if
           let e = eff.(k - 1) in
           e land 4 = 0 && (e land 1 = 0 || Tlb.gen tlb = !tg)
         then begin
           (* The TLB generation still equals [tg] — provably when the
              previous instruction touched no memory, so the counter is
              not even re-read — and the translation context is the
              one of the last real fetch, so the front probe would
              hit. *)
           incr pending_hits;
           exec t code.(k) ~pc_cur ~next:(pc_cur + 4)
         end
         else begin
           (* A data-side walk moved the shared TLB under us, or the
              previous instruction switched the translation context:
              redo the architectural instruction fetch exactly as the
              per-insn path would (memoised context refresh, front
              probe, walk charges, possible fault). *)
           let pa = fetch_pa t ~pc_cur in
           tg := Tlb.gen tlb;
           if pa = ipa.(k) then exec t code.(k) ~pc_cur ~next:(pc_cur + 4)
           else begin
             (* The code mapping itself changed mid-block: run this one
                instruction through the generic fetch path and
                resynchronize via the dispatcher. *)
             exec t (Fastpath.fetch fp phys pa) ~pc_cur ~next:(pc_cur + 4);
             result := blk_bail
           end
         end;
         (* Straight instructions and folded branches that went hot
            continue the trace; a cold folded branch leaves through its
            side exit. *)
         if !result = blk_running then
           match sxs.(k) with
           | None ->
               if k = len - 1 && blk.Fastpath.b_term_slot >= 0 then
                 Fastpath.note_term_outcome fp phys blk
                   ~taken:(t.pc <> pc_cur + 4);
               i := k + 1
           | Some sx ->
               if t.pc = pc_cur + sx.Fastpath.sx_hot_delta then begin
                 sx.Fastpath.sx_hot <- sx.Fastpath.sx_hot + 1;
                 i := k + 1
               end
               else begin
                 Fastpath.note_side_exit fp phys blk sx;
                 result := k
               end
       end
     done
   with Exc _ as e ->
     Tlb.account_front_hits tlb !pending_hits;
     raise e);
  if !pending_hits > 0 then Tlb.account_front_hits tlb !pending_hits;
  !result

(* The dispatcher: [blocks_full] polls for interrupts and enters the
   block at [t.pc]; [blocks_entry] chains.  Both are top-level and
   pass their state as arguments, so a dispatch allocates nothing:
   [src] is the stored [b_self] box of the block this entry chains
   from ([None] after a full poll) and [sx] the side exit it left
   through ([blk_end]: it ran through its terminator). *)
let rec blocks_full t remaining =
  if remaining <= 0 then Limit
  else begin
    t.fp.Fastpath.st_polls <- t.fp.Fastpath.st_polls + 1;
    match maybe_irq t with
    | Some s -> s
    | None -> blocks_entry t remaining (irq_horizon t) None blk_end
  end

(* Enter the block at [t.pc].  Precondition: either the dispatcher
   just polled ([src = None]), or the previous block ended in a plain
   branch — or left through a side exit — with [t.cycles < horizon],
   in which case the poll would provably return [None].  The
   instruction fetch is always performed for real — it is the
   architectural act that accounts TLB statistics and can fault;
   chaining only elides the block-cache lookup. *)
and blocks_entry t remaining horizon src sx =
  let fp = t.fp and phys = t.phys in
  let pc_cur = t.pc in
  (* Traced runs stay block-aware: one page query decides whether
     this block needs per-instruction marker checks.  The entry
     marker fires here, before the (possibly faulting) entry fetch,
     exactly as [step] checks markers before [step_body]. *)
  let tmark =
    match t.tracer with
    | Some tr as m when Lz_trace.Trace.page_marked tr pc_cur -> m
    | _ -> None
  in
  (match tmark with
  | Some tr -> (
      match Lz_trace.Trace.marker_at tr pc_cur with
      | Some payload -> Lz_trace.Trace.emit tr ~cycles:t.cycles payload
      | None -> ())
  | None -> ());
  match fetch_pa t ~pc_cur with
  | exception Exc (cls, ret) -> (
      (* The per-insn path counts the instruction before fetching;
         replicate that for a faulting boundary fetch. *)
      t.insns <- t.insns + 1;
      charge t t.cost.insn_base;
      match deliver t cls ~ret with
      | Some s -> s
      | None -> blocks_full t (remaining - 1))
  | pa -> (
      let blk =
        match src with
        | None -> Fastpath.block_at fp phys pa
        | Some sb when sx = blk_end ->
            Fastpath.chain_to fp phys sb ~va:pc_cur ~pa
        | Some sb -> (
            match sb.Fastpath.b_sx.(sx) with
            | Some x -> Fastpath.sx_chain_to fp phys x ~va:pc_cur ~pa
            | None -> assert false)
      in
      let tgen = Tlb.gen t.tlb in
      let before = t.insns in
      match exec_block t blk ~max_n:remaining ~horizon ~tgen ~tmark with
      | exception Exc (cls, ret) -> (
          let ran = t.insns - before in
          fp.Fastpath.st_insns <- fp.Fastpath.st_insns + ran;
          match deliver t cls ~ret with
          | Some s -> s
          | None -> blocks_full t (remaining - ran))
      | r ->
          let ran = t.insns - before in
          fp.Fastpath.st_insns <- fp.Fastpath.st_insns + ran;
          let remaining = remaining - ran in
          (* Side exits are pure PC writes, and so is a chainable
             terminator: the horizon computed at entry is still a
             valid lower bound, so chain straight into the successor
             (side-exit targets memoize their own chain link, making
             them first-class chain candidates). *)
          if
            r <> blk_bail
            && (r >= 0 || blk.Fastpath.b_chainable)
            && remaining > 0 && t.cycles < horizon
          then blocks_entry t remaining horizon blk.Fastpath.b_self r
          else blocks_full t remaining)

(* The engine dispatch happens once per [run], not once per
   instruction: tracers are attached between runs (trap servicing
   happens outside [run]), so the untraced block dispatcher — the
   benchmark hot path — carries one tracer null-check per block
   entry and nothing per instruction.  Traced runs are block-aware
   too: [blocks_entry] checks markers at block entry and, on pages
   that carry markers, per instruction, keeping the event stream
   byte-identical to the per-insn loop (the three-way trace
   differential enforces this) while retaining most of the block
   speedup. *)
let run ?(max_insns = 10_000_000) t =
  match t.fp.Fastpath.engine with
  | Blocks -> blocks_full t max_insns
  | Slow | Per_insn -> (
      match t.tracer with
      | None ->
          let rec loop budget =
            if budget <= 0 then Limit
            else
              match maybe_irq t with
              | Some s -> s
              | None -> (
                  let pc_cur = t.pc in
                  match step_body t ~pc_cur ~next:(pc_cur + 4) with
                  | None -> loop (budget - 1)
                  | Some s -> s)
          in
          loop max_insns
      | Some _ ->
          let rec loop budget =
            if budget <= 0 then Limit
            else match step t with None -> loop (budget - 1) | Some s -> s
          in
          loop max_insns)

let pp_class ppf = function
  | Ec_svc i -> Format.fprintf ppf "svc #%d" i
  | Ec_hvc i -> Format.fprintf ppf "hvc #%d" i
  | Ec_smc i -> Format.fprintf ppf "smc #%d" i
  | Ec_brk i -> Format.fprintf ppf "brk #%d" i
  | Ec_dabort f -> Format.fprintf ppf "dabort: %a" Mmu.pp_fault f
  | Ec_iabort f -> Format.fprintf ppf "iabort: %a" Mmu.pp_fault f
  | Ec_undef w -> Format.fprintf ppf "undef 0x%08x" w
  | Ec_sysreg_trap i -> Format.fprintf ppf "sysreg trap: %a" Insn.pp i
  | Ec_wfi -> Format.pp_print_string ppf "wfi"
  | Ec_watchpoint va -> Format.fprintf ppf "watchpoint va=0x%x" va
  | Ec_irq intid -> Format.fprintf ppf "irq intid=%d" intid

let pp_stop ppf = function
  | Trap_el2 c -> Format.fprintf ppf "trap->EL2 (%a)" pp_class c
  | Trap_el1 c -> Format.fprintf ppf "trap->EL1 (%a)" pp_class c
  | Limit -> Format.pp_print_string ppf "instruction limit"
  | Stall -> Format.pp_print_string ppf "DVM completion stall"

(* ------------------------------------------------------------------ *)
(* Task context save/restore — what the multi-core scheduler migrates
   when a task moves between cores. Only per-task architectural state
   travels: registers, PC, stack pointers, PSTATE (as an SPSR word)
   and the system-register file. The TLB, PMU, fast-path caches and
   interrupt fabric stay with the core, exactly as on hardware. *)

type context = {
  c_regs : int array;
  c_pc : int;
  c_sp_el0 : int;
  c_sp_el1 : int;
  c_spsr : int;
  c_sys : Sysreg.file;
}

let save_context t =
  { c_regs = Array.copy t.regs;
    c_pc = t.pc;
    c_sp_el0 = t.sp_el0;
    c_sp_el1 = t.sp_el1;
    c_spsr = Pstate.to_spsr t.pstate;
    c_sys = Sysreg.copy_file t.sys }

let load_context t c =
  Array.blit c.c_regs 0 t.regs 0 31;
  t.pc <- c.c_pc;
  t.sp_el0 <- c.c_sp_el0;
  t.sp_el1 <- c.c_sp_el1;
  Pstate.of_spsr t.pstate c.c_spsr;
  (* restore_file bumps the MMU/debug generations forward, so the
     memoized translation context and watchpoint-armed flag
     revalidate against the incoming task's registers. *)
  Sysreg.restore_file ~src:c.c_sys ~dst:t.sys
