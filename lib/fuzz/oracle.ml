(* The three-way differential oracle.

   Every case forks one warm 128-domain snapshot, applies its
   scenario setup (program bytes, gate registrations, PTE aliases,
   IRQ fabric), captures that as the per-case baseline, then runs the
   identical machine three times — slow engine, per-instruction fast
   engine, superblock engine — restoring the baseline in between.
   The engines must be architecturally indistinguishable: same
   outcome, same architectural digest, same cycle and instruction
   counts, and an identical traced event stream. Any difference
   is a divergence — a real bug in one of the engines or in the
   isolation machinery they drive.

   Determinism: the campaign never reads the clock, and the VMID
   allocator is pinned (every fork re-enters under the same VMID, so
   event streams carrying VMIDs compare equal across cases and runs).
   The image is built once per env: each retired fork gives its
   memory back, so the store holds the image plus one live fork. *)

module Sb = Lz_eval.Switch_bench
module Snapshot = Lz_snap.Snapshot
module Trace = Lz_trace.Trace
module Span = Lz_trace.Span
module Core = Lz_cpu.Core
module Fastpath = Lz_cpu.Fastpath
open Lz_arm
open Lz_kernel
open Lightzone

(* Scenario VA layout, clear of the warm image's regions (code
   0x400000, funcs 0x420000, array 0x500000, domains 0x600000+). *)
let scratch_code_va = 0x700000
let scratch_data_va = 0x720000
let poke_va = 0x740000

(* Mirrors Switch_bench's (private) domain-data base. *)
let warm_domains_va = 0x600000

(* Pinned VMID plan: the warm image enters under [vmid_base]; every
   per-case fork re-enters under [vmid_base + 1]. (VMIDs double as
   the VTTBR ASID field, so they must stay under Mmu.asid_mask.) *)
let vmid_base = 0x3000

(* Deliberately-broken cost knob for harness meta-tests: extra cycles
   charged to the superblock engine's core before its run, keyed on
   the case. Production value is [None] — any [Some] makes the oracle
   diverge on purpose so shrinking can be tested end to end. *)
let debug_cost_skew : (Fuzz_case.t -> int) option ref = ref None

type env = {
  cm : Lz_cpu.Cost_model.t;
  domains : int;
  z : Kmod.t;
  image : Snapshot.t;
  image_pages : (int, Digest.t) Hashtbl.t;
      (* frame number -> MD5 of [image]'s contents of that frame *)
  blank : Lz_mem.Phys.t Lazy.t;
      (* never written: each smp-race engine run's memory is a clone.
         Made at the first smp-race case, so a set-up does not pay for
         its 4 MiB arena. *)
}

let create ~domains cm =
  Api.next_vmid := vmid_base;
  Api.reset_fork_vmids ();
  let r = Sb.prepare cm ~env:Sb.Host ~domains ~n:(max 64 (2 * domains)) in
  { cm; domains; z = r.Sb.t; image = Snapshot.capture r.Sb.t;
    image_pages = Hashtbl.create 256; blank = lazy (Lz_mem.Phys.create ()) }

(* ------------------------------------------------------------------ *)
(* Scenario setup on a fresh fork *)

let e = Encoding.encode

let brk_exit = e (Insn.Brk 0)

let site_words ~gate = List.map e (Gate.switch_site_code ~gate_id:gate)

let install_words f ~va words =
  let words = Array.of_list words in
  let bytes = Bytes.create (4 * Array.length words) in
  Array.iteri
    (fun i w ->
      Bytes.set_int32_le bytes (4 * i) (Int32.of_int (w land 0xFFFFFFFF)))
    words;
  Kernel.write_user f.Kmod.kernel f.Kmod.proc ~va bytes

let seed_registers core =
  Core.set_reg core 0 scratch_data_va;
  Core.set_reg core 1 warm_domains_va;
  Core.set_reg core 2 Gate.ttbrtab_base;
  Core.set_reg core 3 Gate.gatetab_base;
  Core.set_reg core 5 0x1111;
  Core.set_reg core 6 3;
  Core.set_reg core 7 0

(* Per-kind setup: mutate the fork (register gates, build aliases,
   attach the IRQ fabric), and return the program words plus an
   optional per-engine-run reset for any host-side closure state the
   scenario keeps (tick counters must restart identically for every
   engine). *)
let setup env f (c : Fuzz_case.t) =
  let core = f.Kmod.core in
  match c.kind with
  | Fuzz_case.Stream -> (Array.to_list c.words @ [ brk_exit ], None)
  | Fuzz_case.Gate_stream ->
      let site = site_words ~gate:c.gate in
      Kmod.register_gate_entry f ~gate:c.gate
        ~entry:(scratch_code_va + (4 * List.length site));
      (site @ Array.to_list c.words @ [ brk_exit ], None)
  | Fuzz_case.Smc_block ->
      (* A loop hot enough to fold its CBNZ into a superblock; the
         final iteration leaves through the cold side exit straight
         onto the SMC — the trap must land identically whether the
         branch was folded, chained or interpreted. *)
      let n = 1 + (c.param land 0xFF) in
      ( List.map e
          [
            Insn.Movz (9, n, 0);
            Insn.Sub (9, 9, Insn.Imm 1);
            Insn.Add (5, 5, Insn.Imm 1);
            Insn.Eor_reg (6, 5, 9);
            Insn.Cbnz (9, -12);
            Insn.Smc 0;
            Insn.Brk 0;
          ],
        None )
  | Fuzz_case.Selfmod ->
      (* W^X JIT: store a payload word over the NOP at [patch_off] in
         the page being executed (break-before-make flips the frame
         writable), then fall through into it (the exec refault
         rescans the page — the payload passes or the zone dies). *)
      let payload =
        if Array.length c.words > 0 then c.words.(0) land 0xFFFFFFFF
        else e Insn.Nop
      in
      let patch_off = 4 * 6 in
      ( List.map e (Gate.mov_addr 10 (scratch_code_va + patch_off))
        @ List.map e
            [
              Insn.Movz (11, payload land 0xFFFF, 0);
              Insn.Movk (11, (payload lsr 16) land 0xFFFF, 16);
              Insn.Str32 (11, 10, 0);
              Insn.Nop (* patch site *);
              Insn.Brk 0;
            ],
        None )
  | Fuzz_case.Pte_poke ->
      (* Alias the last-level table page that translates one domain's
         data page into pgt 0 as writable data, then store through the
         alias: stage 1 allows the write, the read-only stage-2
         mapping of table frames must catch it. *)
      let pgt = 1 + (c.gate mod max 1 env.domains) in
      Kmod.alias_leaf_table f ~pgt
        ~va:(warm_domains_va + ((pgt - 1) * 4096))
        ~at:poke_va;
      Core.set_reg core 4 poke_va;
      ([ e (Insn.Str (5, 4, c.param * 8 land 0xFF8)); brk_exit ], None)
  | Fuzz_case.Irq_storm ->
      (* Timer ticks every [slice] cycles with an SGI burst every
         third tick, across a run of gate switches: interrupts must
         land at identical instruction boundaries in all engines,
         including exactly on gate phase markers. *)
      let iv = Core.attach_irq core in
      Lz_irq.Irq.init iv;
      Lz_irq.Gic.enable iv.Lz_irq.Irq.gic 1;
      Lz_irq.Gic.set_priority iv.Lz_irq.Irq.gic 1 0x80;
      let ticks = ref 0 in
      f.Kmod.on_irq <-
        Some
          (fun core intid ->
            if intid = Lz_irq.Gic.ppi_el1_timer then begin
              incr ticks;
              Lz_irq.Timer.program iv.Lz_irq.Irq.timer
                ~now:core.Core.cycles ~slice:c.slice;
              if !ticks mod 3 = 0 then
                Lz_irq.Gic.set_pending iv.Lz_irq.Irq.gic 1
            end);
      Lz_irq.Timer.program iv.Lz_irq.Irq.timer ~now:core.Core.cycles
        ~slice:c.slice;
      let k = max 1 (min c.param (min env.domains 8)) in
      let sites = ref [] in
      for j = k - 1 downto 0 do
        let gate = (c.gate + j) mod max 1 env.domains in
        sites := site_words ~gate :: !sites
      done;
      List.iteri
        (fun j site ->
          let gate = (c.gate + j) mod max 1 env.domains in
          Kmod.register_gate_entry f ~gate
            ~entry:(scratch_code_va + (4 * List.length site * (j + 1))))
        !sites;
      ( List.concat !sites @ Array.to_list c.words @ [ brk_exit ],
        Some (fun () -> ticks := 0) )
  | Fuzz_case.Smp_race ->
      (* Dispatched to the dedicated multi-CPU driver by [run_case];
         never reaches the warm-image path. *)
      assert false
  | Fuzz_case.Churn ->
      (* Allocate page tables, attach them to high gates, free half —
         then switch through a surviving original gate. The create /
         destroy churn must leave the shadow registry and gate tables
         in a state every engine agrees on. *)
      let spare_gates = Gate.max_gates - env.domains in
      let allocated =
        List.init
          (max 1 (min c.param 8))
          (fun i ->
            let id = Kmod.lz_alloc f in
            if spare_gates > 0 then
              Kmod.lz_map_gate_pgt f ~pgt:id
                ~gate:(env.domains + ((c.gate + i) mod spare_gates));
            id)
      in
      List.iteri (fun i id -> if i mod 2 = 0 then Kmod.lz_free f id) allocated;
      let site = site_words ~gate:c.gate in
      Kmod.register_gate_entry f ~gate:c.gate
        ~entry:(scratch_code_va + (4 * List.length site));
      (site @ Array.to_list c.words @ [ brk_exit ], None)
  | Fuzz_case.Zone_churn ->
      (* Tenant-scale churn: rounds of lz_alloc / lz_free that march
         pgt ids through the free list and back, with a spare gate
         re-pointed at a table whose id is then freed and reissued.
         The TTBRTab slot is zeroed at free and refilled (new table,
         new ASID) at the recycling alloc, and teardown defers its
         TLB invalidation to ASID-generation rollover — every engine
         must observe the same recycled table through the gate, with
         no stale translation leaking into the reissued zone. *)
      let spare_gates = Gate.max_gates - env.domains in
      let gate =
        if spare_gates > 0 then env.domains + (c.gate mod spare_gates)
        else c.gate
      in
      let rounds = 1 + (c.param land 0x7) in
      for _ = 1 to rounds do
        let batch = List.init 4 (fun _ -> Kmod.lz_alloc f) in
        (* Aim the gate at the batch's last table, then free the whole
           batch — the last-freed id heads the LIFO free list, so the
           next round (and the final alloc below) reissues exactly the
           id the gate names. *)
        (match List.rev batch with
        | last :: _ -> Kmod.lz_map_gate_pgt f ~pgt:last ~gate
        | [] -> ());
        List.iter (fun id -> Kmod.lz_free f id) batch
      done;
      let recycled = Kmod.lz_alloc f in
      Kmod.lz_map_gate_pgt f ~pgt:recycled ~gate;
      let site = site_words ~gate in
      Kmod.register_gate_entry f ~gate
        ~entry:(scratch_code_va + (4 * List.length site));
      (site @ Array.to_list c.words @ [ brk_exit ], None)

(* ------------------------------------------------------------------ *)
(* Running one engine *)

(* Collapse hex literals so outcome/coverage keys are stable across
   address-layout changes; raw strings still back the differential
   comparison. *)
let scrub s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '0' && s.[!i + 1] = 'x' then begin
      Buffer.add_string b "0xN";
      i := !i + 2;
      while !i < n && is_hex s.[!i] do incr i done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let outcome_string = function
  | Kmod.Exited code -> Printf.sprintf "exited:%d" code
  | Kmod.Terminated why -> "terminated:" ^ why
  | Kmod.Limit_reached -> "limit"

type run = {
  engine : Core.engine;
  outcome : string;
  digest : string;
  cycles : int;
  insns : int;
  ev_json : (int * Trace.event) list;
  span_rows : string list;
  fp : Fastpath.stats;
}

(* The coverage keys read the span rows of the blocks run alone, and
   the other runs must match it on outcome, cycles and events, which
   fix the rows: the slow and per-insn runs skip the analysis. *)
let span_rows engine ?start_cycles ~total_cycles tr =
  if engine <> Core.Blocks then []
  else
    List.map
      (fun (r : Span.row) -> r.Span.name)
      (Span.of_trace ?start_cycles ~total_cycles tr).Span.rows

let page_md5 phys pa = Digest.bytes (Lz_mem.Phys.read_bytes phys pa 4096)

(* The architectural digest of a fork: [Sb.zone_digest]'s header, then
   one MD5 per domain page rather than the pages' bytes. A page still
   bound to the slot the warm image pinned holds the image's bytes
   (any write to it since would have unshared it), so its MD5 comes
   from [env.image_pages], computed once per image; only the pages a
   case wrote are hashed again. Equal digests still mean equal bytes,
   page for page. *)
let digest env (f : Kmod.t) =
  let phys = f.Kmod.kernel.Kernel.machine.Machine.phys in
  let b = Buffer.create 4096 in
  Sb.add_zone_header b f;
  Array.iter
    (fun pa ->
      let n = pa / Lz_mem.Phys.page_size in
      Buffer.add_string b
        (if not (Snapshot.same_frame f env.image n) then page_md5 phys pa
         else
           match Hashtbl.find_opt env.image_pages n with
           | Some d -> d
           | None ->
               let d = page_md5 phys pa in
               Hashtbl.add env.image_pages n d;
               d))
    (Sb.domain_pages f);
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_one env f base tr0 reset (c : Fuzz_case.t) engine =
  ignore (Snapshot.restore f base);
  (match reset with Some r -> r () | None -> ());
  let core = f.Kmod.core in
  Core.set_engine core engine;
  (match (!debug_cost_skew, engine) with
  | Some k, Core.Blocks -> Core.charge core (k c)
  | _ -> ());
  let tr = Trace.clone_config tr0 in
  Kmod.set_tracer f (Some tr);
  Fastpath.reset_stats core.Core.fp;
  let start_cycles = core.Core.cycles in
  let outcome = Kmod.run ~max_insns:c.budget f in
  {
    engine;
    outcome = outcome_string outcome;
    digest = digest env f;
    cycles = core.Core.cycles;
    insns = core.Core.insns;
    ev_json = List.map (fun e -> (0, e)) (Trace.events tr);
    span_rows =
      span_rows engine ~start_cycles
        ~total_cycles:(core.Core.cycles - start_cycles) tr;
    fp = Fastpath.stats core.Core.fp;
  }

(* ------------------------------------------------------------------ *)
(* Differential comparison and coverage keys *)

type divergence =
  { field : string; a : Core.engine; b : Core.engine; detail : string }

let compare_runs (r1 : run) (r2 : run) =
  let mk field detail = Some { field; a = r1.engine; b = r2.engine; detail } in
  if r1.outcome <> r2.outcome then
    mk "outcome" (Printf.sprintf "%s vs %s" r1.outcome r2.outcome)
  else if r1.digest <> r2.digest then
    mk "digest" (Printf.sprintf "%s vs %s" r1.digest r2.digest)
  else if r1.insns <> r2.insns then
    mk "insns" (Printf.sprintf "%d vs %d" r1.insns r2.insns)
  else if r1.cycles <> r2.cycles then
    mk "cycles" (Printf.sprintf "%d vs %d" r1.cycles r2.cycles)
  else if r1.ev_json <> r2.ev_json then begin
    let json (core, e) = Printf.sprintf "%d:%s" core (Trace.event_to_json e) in
    let rec first i a b =
      match (a, b) with
      | [], [] -> Printf.sprintf "event streams differ (lengths equal?)"
      | x :: _, [] | [], x :: _ ->
          Printf.sprintf "event %d only on one side: %s" i (json x)
      | x :: xs, y :: ys ->
          if x <> y then Printf.sprintf "event %d: %s vs %s" i (json x) (json y)
          else first (i + 1) xs ys
    in
    mk "events" (first 0 r1.ev_json r2.ev_json)
  end
  else None

let first_divergence runs =
  match runs with
  | base :: rest ->
      List.fold_left
        (fun acc r -> match acc with Some _ -> acc | None -> compare_runs base r)
        None rest
  | [] -> None

let verdict_key = function
  | Sanitizer.Allowed -> "san:allowed"
  | Sanitizer.Gate_only -> "san:gate-only"
  | Sanitizer.Forbidden _ -> "san:forbidden"

(* The payload word's instruction class: ALU and memory operations,
   unconditional and conditional branches, and the rest (system and
   exception-generating instructions). Keyed by class rather than by
   [Fastpath.ending_of], so that moving an instruction in or out of
   superblocks does not change what a case covers and re-steer the
   seed-pinned campaign. *)
let term_key w =
  match Encoding.decode w with
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Nop | Insn.Ldr _ | Insn.Str _
  | Insn.Ldrb _ | Insn.Ldr32 _ | Insn.Str32 _ | Insn.Strb _ | Insn.Ldr_reg _
  | Insn.Str_reg _ | Insn.Ldtr _ | Insn.Sttr _ | Insn.Ldtrb _ | Insn.Sttrb _
    ->
      "term:straight"
  | Insn.Bcond _ | Insn.Cbz _ | Insn.Cbnz _ -> "term:cond"
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret _ -> "term:chain"
  | _ -> "term:stop"

(* Coverage signature keys of one case, from the superblock run (the
   richest path) plus the static classification of the payload. *)
let keys_of (c : Fuzz_case.t) (b : run) =
  let tbl = Hashtbl.create 64 in
  let add k = Hashtbl.replace tbl k () in
  add ("kind:" ^ Fuzz_case.kind_name c.kind);
  add ("out:" ^ scrub b.outcome);
  Array.iter
    (fun w ->
      add (verdict_key (Sanitizer.classify Sanitizer.Ttbr_mode w));
      add (term_key w))
    c.words;
  List.iter
    (fun (_, (ev : Trace.event)) ->
      match ev.Trace.payload with
      | Trace.Trap_enter { ec; _ } -> add ("trap:" ^ Span.ec_name ec)
      | Trace.Sanitizer_scan { ok; _ } ->
          add (if ok then "scan:ok" else "scan:fail")
      | p -> add ("ev:" ^ Trace.payload_name p))
    b.ev_json;
  List.iter (fun name -> add ("span:" ^ name)) b.span_rows;
  if b.fp.Fastpath.folds > 0 then add "blk:folds";
  if b.fp.Fastpath.side_exits > 0 then add "blk:side-exits";
  if b.fp.Fastpath.chain_follows > 0 then add "blk:chains";
  if b.fp.Fastpath.retrains > 0 then add "blk:retrains";
  List.sort_uniq compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let signature keys = Digest.to_hex (Digest.string (String.concat "\n" keys))

type result = {
  runs : run list;
  divergence : divergence option;
  keys : string list;  (** sorted, distinct coverage keys. *)
}

(* ------------------------------------------------------------------ *)
(* smp-race: multi-CPU scheduler races under the sequential
   deterministic loop.

   A fresh 2–3 CPU machine per engine run (per-CPU TLBs and tracers),
   three tasks of one shared process round-robining across the CPUs:
   task 0 drives an mprotect ro/rw storm over four churn pages — every
   flip is a cross-CPU TLB shootdown — while two workers read (and,
   payload-permitting, write) the churned pages, hammer a private page
   and optionally issue syscalls. Context switches, migrations,
   resched IPIs, timer preemptions and shootdowns must all land at
   identical instruction boundaries in all three engines. *)

let race_churn_va = 0x600000
let race_spare_va = 0x604000
let race_priv_va = 0x610000
let race_code_va = 0x400000

let storm_program ~gate ~pairs ~munmap_spare =
  let open Insn in
  [ Movz (12, pairs, 0);
    (* loop: churn page k = (x12 + gate) & 3, flip it ro then rw. *)
    Movz (13, gate land 0xFF, 0);
    Add (13, 13, Reg 12);
    Movz (14, 3, 0);
    And_reg (13, 13, 14);
    Lsl_imm (13, 13, 12);
    Movz (15, race_churn_va lsr 16, 16);
    Add (15, 15, Reg 13);
    Add (0, 15, Imm 0);
    Movz (1, 0x1000, 0);
    Movz (2, 1, 0);
    Movz (8, Kernel.Nr.mprotect, 0);
    Svc 0;
    Add (0, 15, Imm 0);
    Movz (1, 0x1000, 0);
    Movz (2, 3, 0);
    Movz (8, Kernel.Nr.mprotect, 0);
    Svc 0;
    Subs (12, 12, Imm 1);
    Bcond (NE, -4 * 18) ]
  @ (if munmap_spare then
       [ Movz (0, race_spare_va lsr 16, 16);
         Movz (13, race_spare_va land 0xFFFF, 0);
         Add (0, 0, Reg 13);
         Movz (1, 0x1000, 0);
         Movz (8, Kernel.Nr.munmap, 0);
         Svc 0 ]
     else [])
  @ [ Movz (8, Kernel.Nr.exit, 0); Movz (0, 7, 0); Svc 0 ]

let worker_program ~j ~iters ~stores ~syscalls =
  let open Insn in
  let body_len = 9 + (if syscalls then 3 else 0) in
  [ Movz (1, iters, 0);
    Movz (0, race_churn_va lsr 16, 16);
    Movz (10, race_priv_va lsr 16, 16);
    Movz (11, j * 0x1000, 0);
    Add (10, 10, Reg 11);
    Movz (9, 0, 0) ]
  (* loop: read churn page (x9 & 3), write the private page. *)
  @ [ Movz (13, 3, 0);
      And_reg (11, 9, 13);
      Lsl_imm (11, 11, 12);
      Add (12, 0, Reg 11);
      Ldr (5, 12, 0) ]
  @ (if stores then [ Str (9, 12, 0) ] else [ Eor_reg (6, 6, 5) ])
  @ [ Str (9, 10, 0) ]
  @ (if syscalls then
       [ Movz (8, Kernel.Nr.getpid, 0);
         Svc 0;
         Movz (0, race_churn_va lsr 16, 16) ]
     else [])
  @ [ Add (9, 9, Imm 1);
      Subs (1, 1, Imm 1);
      Bcond (NE, -4 * body_len);
      Movz (8, Kernel.Nr.exit, 0);
      Movz (0, 50 + j, 0);
      Svc 0 ]

let kernel_outcome_string = function
  | Kernel.Exited code -> Printf.sprintf "exited:%d" code
  | Kernel.Segv why -> "segv:" ^ why
  | Kernel.Limit_reached -> "limit"

let core_state core =
  String.concat ","
    (List.map
       (fun (n, v) -> n ^ "=" ^ v)
       (Lz_cpu.Differential.fields (Lz_cpu.Differential.observe core)))

let run_smp_engine env (c : Fuzz_case.t) engine =
  (* A clone of the never-written store is a fresh memory (frames from
     1, all holes) whose slots come from, and go back to, one shared
     arena instead of a new 4 MiB one per run. *)
  let machine =
    { Machine.phys = Lz_mem.Phys.cow_clone (Lazy.force env.blank);
      tlb = Lz_mem.Tlb.create ~capacity:120 ();
      cost = env.cm }
  in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  for k = 0 to 3 do
    ignore
      (Kernel.map_anon kernel proc ~at:(race_churn_va + (k * 0x1000))
         ~len:0x1000 Vma.rw)
  done;
  ignore (Kernel.map_anon kernel proc ~at:race_spare_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:race_priv_va ~len:0x2000 Vma.rw);
  Kernel.populate kernel proc ~start:race_churn_va ~len:0x5000;
  Kernel.populate kernel proc ~start:race_priv_va ~len:0x2000;
  let w0 = if Array.length c.words > 0 then c.words.(0) else 0 in
  let wj j =
    if Array.length c.words = 0 then 0
    else c.words.(j mod Array.length c.words)
  in
  Kernel.load_program kernel proc ~va:race_code_va
    (storm_program ~gate:c.gate
       ~pairs:(1 + (c.param land 7))
       ~munmap_spare:(w0 land 4 <> 0));
  let worker_entry j = race_code_va + ((j + 1) * 0x4000) in
  for j = 0 to 1 do
    Kernel.load_program kernel proc ~va:(worker_entry j)
      (worker_program ~j
         ~iters:(150 + (13 * c.param) + (37 * j))
         ~stores:(wj j land 1 <> 0)
         ~syscalls:(wj j land 2 <> 0))
  done;
  let ncpus = 2 + (c.gate land 1) in
  let cores =
    Array.init ncpus (fun _ ->
        let tlb = Lz_mem.Tlb.create ~capacity:120 () in
        Core.create ~route_el1_to_harness:true ~engine
          machine.Machine.phys tlb machine.Machine.cost Pstate.EL0)
  in
  let tracers =
    Array.map
      (fun core ->
        let tr = Trace.create ~capacity:16384 () in
        Core.set_tracer core (Some tr);
        tr)
      cores
  in
  let sched = Sched.create ~slice:(96 + (2 * c.slice)) kernel in
  let entries = [| race_code_va; worker_entry 0; worker_entry 1 |] in
  Array.iteri
    (fun i entry ->
      let core = cores.(i mod ncpus) in
      Sysreg.write core.Core.sys Sysreg.TTBR0_EL1
        (Lz_mem.Mmu.ttbr_value ~root:proc.Proc.root ~asid:proc.Proc.asid);
      Sysreg.write core.Core.sys Sysreg.HCR_EL2
        (Sysreg.Hcr.tge lor Sysreg.Hcr.e2h);
      core.Core.pc <- entry;
      core.Core.sp_el0 <- 0x7F0000010000;
      ignore (Sched.add sched proc core))
    entries;
  let outs = Sched.run ~max_insns:c.budget sched in
  let digest =
    let b = Buffer.create 1024 in
    List.iter
      (fun (tid, o) ->
        Buffer.add_string b
          (Printf.sprintf "t%d=%s;" tid (kernel_outcome_string o)))
      outs;
    Array.iteri
      (fun i core ->
        Buffer.add_string b (Printf.sprintf "c%d:%s;" i (core_state core)))
      cores;
    Buffer.add_string b
      (Printf.sprintf "sched:p=%d,t=%d,ipi=%d,sd=%d,mig=%d;"
         sched.Sched.preemptions sched.Sched.ticks sched.Sched.resched_ipis
         sched.Sched.shootdowns sched.Sched.migrations);
    List.iter
      (fun (v : Vma.t) ->
        let pages = (Vma.end_ v - v.Vma.start) / 4096 in
        for p = 0 to pages - 1 do
          let va = v.Vma.start + (p * 4096) in
          match Proc.mapped_pa proc ~va with
          | Some pa ->
              Buffer.add_string b
                (Printf.sprintf "%x:%s," va
                   (Digest.to_hex
                      (Digest.bytes
                         (Lz_mem.Phys.read_bytes machine.Machine.phys pa
                            4096))))
          | None -> Buffer.add_string b (Printf.sprintf "%x:-," va)
        done)
      (List.sort
         (fun (a : Vma.t) b -> compare a.Vma.start b.Vma.start)
         proc.Proc.vmas);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let outcome =
    String.concat " "
      (List.map
         (fun (tid, o) ->
           Printf.sprintf "t%d=%s" tid (kernel_outcome_string o))
         outs)
  in
  Lz_mem.Phys.drop_view machine.Machine.phys;
  let ev_json = ref [] and rows = ref [] in
  Array.iteri
    (fun i tr ->
      ev_json := !ev_json @ List.map (fun e -> (i, e)) (Trace.events tr);
      rows :=
        !rows @ span_rows engine ~total_cycles:cores.(i).Core.cycles tr)
    tracers;
  {
    engine;
    outcome;
    digest;
    cycles = Array.fold_left (fun a core -> a + core.Core.cycles) 0 cores;
    insns = Array.fold_left (fun a core -> a + core.Core.insns) 0 cores;
    ev_json = !ev_json;
    span_rows = List.sort_uniq compare !rows;
    fp = Fastpath.stats cores.(0).Core.fp;
  }

let result_of (c : Fuzz_case.t) runs =
  let blocks_run = List.find (fun r -> r.engine = Core.Blocks) runs in
  { runs; divergence = first_divergence runs; keys = keys_of c blocks_run }

let run_smp_race_case env (c : Fuzz_case.t) =
  result_of c (List.map (run_smp_engine env c) Core.engines)

let run_case env (c : Fuzz_case.t) =
  if c.kind = Fuzz_case.Smp_race then run_smp_race_case env c
  else begin
  Api.next_vmid := vmid_base + 1;
  let f = Snapshot.fork env.z env.image in
  let tr0 = Trace.create ~capacity:16384 () in
  Kmod.set_tracer f (Some tr0);
  ignore
    (Kernel.map_anon f.Kmod.kernel f.Kmod.proc ~at:scratch_code_va
       ~len:0x4000 Vma.rwx);
  ignore
    (Kernel.map_anon f.Kmod.kernel f.Kmod.proc ~at:scratch_data_va
       ~len:0x4000 Vma.rw);
  seed_registers f.Kmod.core;
  let words, reset = setup env f c in
  install_words f ~va:scratch_code_va words;
  f.Kmod.core.Core.pc <- scratch_code_va;
  let base = Snapshot.capture f in
  let runs = List.map (run_one env f base tr0 reset c) Core.engines in
  Snapshot.release f base;
  (* Hand the fork's memory and VMID back: the next case's fork reuses
     the freed slots and pops the same VMID the pin would have
     produced, so the event streams (which carry VMIDs) stay
     byte-stable across the campaign. *)
  Snapshot.retire_fork f;
  result_of c runs
  end

let pp_divergence ppf d =
  Format.fprintf ppf "%s: %s vs %s: %s" d.field (Core.engine_name d.a)
    (Core.engine_name d.b) d.detail
