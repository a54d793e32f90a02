(* The benchmark's three workloads. Each is a closed loop with one
   client: the next op is issued only after the previous one returns.

   - switch128: the paper's Table 5 run (Cortex-A55 costs, VHE host,
     128 gate-attached 4 KiB domains, TTBR mechanism) on a warm block
     engine. One op is one slice of 1000 seeded random-domain
     switches. Warm, trap-free switching: block dispatch, the TLB
     (128 domains against 160 entries) and host allocation.
   - churn4096: zone-per-tenant connection churn over 4096 resident
     zones in a 13-bit ASID space. One op is one connection: lz_alloc,
     point gate 1 at the zone, serve 1-16 seeded requests, lz_free.
     The zone API, ASID recycling and short Api.run entries.
   - fuzz: the three-engine differential oracle. One op is one round
     of nine seeded cases, one per fuzz-case kind, each forked off the
     warm 128-domain snapshot and run traced under the slow, per-insn
     and blocks engines. Snapshot fork/restore, copy-on-write, the
     slow engine, trace JSON and GC promotion.

   Every call into a layer's public function that does work goes
   through [Span_log]; register writes and counter reads do not. *)

module Core = Lz_cpu.Core
module Fastpath = Lz_cpu.Fastpath
module Tlb = Lz_mem.Tlb
module Phys = Lz_mem.Phys
module Switch_bench = Lz_eval.Switch_bench
module Oracle = Lz_fuzz.Oracle
module Fuzz_case = Lz_fuzz.Fuzz_case
open Lz_kernel
open Lightzone

let cm = Lz_cpu.Cost_model.cortex_a55

(* Program counters, read at op and window boundaries. Counters a
   workload cannot observe from outside the layer stay 0. *)
type counters = {
  insns : int;
  cycles : int;
  tlb_hits : int;
  tlb_misses : int;
  blk_entries : int;
  blk_hits : int;
  blk_builds : int;
  blk_insns : int;
  chain_follows : int;
  traps : int;
  fault_traps : int;
  asid_rollovers : int;
  asid_recycled : int;
  phys_unshares : int;
  phys_store_slots : int;  (** a gauge: the later reading wins. *)
  fuzz_cases : int;
  fuzz_events : int;
  image_rebuilds : int;
}

let no_counters =
  { insns = 0; cycles = 0; tlb_hits = 0; tlb_misses = 0; blk_entries = 0;
    blk_hits = 0; blk_builds = 0; blk_insns = 0; chain_follows = 0;
    traps = 0; fault_traps = 0; asid_rollovers = 0; asid_recycled = 0;
    phys_unshares = 0; phys_store_slots = 0; fuzz_cases = 0;
    fuzz_events = 0; image_rebuilds = 0 }

let diff b a =
  { insns = b.insns - a.insns;
    cycles = b.cycles - a.cycles;
    tlb_hits = b.tlb_hits - a.tlb_hits;
    tlb_misses = b.tlb_misses - a.tlb_misses;
    blk_entries = b.blk_entries - a.blk_entries;
    blk_hits = b.blk_hits - a.blk_hits;
    blk_builds = b.blk_builds - a.blk_builds;
    blk_insns = b.blk_insns - a.blk_insns;
    chain_follows = b.chain_follows - a.chain_follows;
    traps = b.traps - a.traps;
    fault_traps = b.fault_traps - a.fault_traps;
    asid_rollovers = b.asid_rollovers - a.asid_rollovers;
    asid_recycled = b.asid_recycled - a.asid_recycled;
    phys_unshares = b.phys_unshares - a.phys_unshares;
    phys_store_slots = b.phys_store_slots;
    fuzz_cases = b.fuzz_cases - a.fuzz_cases;
    fuzz_events = b.fuzz_events - a.fuzz_events;
    image_rebuilds = b.image_rebuilds - a.image_rebuilds }

(* Every integer a counter record holds, for digests and equality. *)
let counter_list c =
  [ c.insns; c.cycles; c.tlb_hits; c.tlb_misses; c.blk_entries; c.blk_hits;
    c.blk_builds; c.blk_insns; c.chain_follows; c.traps; c.fault_traps;
    c.asid_rollovers; c.asid_recycled; c.phys_unshares; c.phys_store_slots;
    c.fuzz_cases; c.fuzz_events; c.image_rebuilds ]

(* 63-bit FNV-1a style fold: cheap enough to run on every op. *)
let fold h v = (h lxor v) * 0x100000001b3

let fold_string h s =
  let h = ref h in
  String.iter (fun c -> h := fold !h (Char.code c)) s;
  fold !h (String.length s)

(* Counters of a Kmod-driven machine: core, TLB, block engine,
   module traps, ASID allocator and the physical store. *)
let kmod_counters (t : Kmod.t) =
  let core = t.Kmod.core in
  let fp = Fastpath.stats core.Core.fp in
  let ps = Phys.stats core.Core.phys in
  { no_counters with
    insns = core.Core.insns;
    cycles = core.Core.cycles;
    tlb_hits = Tlb.hits core.Core.tlb;
    tlb_misses = Tlb.misses core.Core.tlb;
    blk_entries = fp.Fastpath.blk_entries;
    blk_hits = fp.Fastpath.blk_hits;
    blk_builds = fp.Fastpath.blk_builds;
    blk_insns = fp.Fastpath.blk_insns;
    chain_follows = fp.Fastpath.chain_follows;
    traps = t.Kmod.traps;
    fault_traps = t.Kmod.fault_traps;
    asid_rollovers = Asid_alloc.rollovers t.Kmod.asids;
    asid_recycled = Asid_alloc.recycled t.Kmod.asids;
    phys_unshares = ps.Phys.unshares;
    phys_store_slots = ps.Phys.store_slots }

let use_blocks (core : Core.t) =
  Core.set_fast core true;
  Core.set_blocks core true

(* Result of one op: whether every output check passed, the simulated
   instructions it retired, and a hash of its simulated outputs. *)
type op_out = { ok : bool; op_insns : int; out : int }

type ('st, 'inp) spec = {
  name : string;
  setup_batch : int;
      (** set-ups per setup_s sample: enough for some hundreds of
          milliseconds. *)
  setup : Span_log.t -> Random.State.t -> 'st;
  setup_digest : 'st -> string;
  gen : Random.State.t -> 'inp;  (** one op's inputs. *)
  input_hash : 'inp -> int;
  op : Span_log.t -> 'st -> 'inp -> op_out;
  counters : 'st -> counters;
  final_check : ops:int -> counters -> bool;
      (** whole-run output check on the op count and the counters'
          change over the timed ops. *)
}

type t = W : ('st, 'inp) spec -> t

(* ------------------------------------------------------------------ *)
(* switch128 *)

module Switch128 = struct
  let domains = 128
  let switches = 1000

  (* Base of the index array the Table 5 program reads its domain
     sequence from (mirrors Switch_bench's layout, like the fuzz
     oracle mirrors its domain-data base). *)
  let arr_va = 0x500000

  (* A warm-up that still builds blocks after this many slices is a
     set-up failure. *)
  let max_warmup_slices = 64

  type st = {
    t : Kmod.t;
    entry : int;
    k_write : Span_log.kind;
    k_run : Span_log.kind;
    k_eret : Span_log.kind;
  }

  (* The slice's domain sequence, as the program's index array. *)
  let gen rng =
    let buf = Bytes.create (8 * switches) in
    for i = 0 to switches - 1 do
      Bytes.set_int64_le buf (8 * i) (Int64.of_int (Random.State.int rng domains))
    done;
    buf

  let slice log st buf =
    let t = st.t in
    let core = t.Kmod.core in
    Span_log.span log st.k_write (fun () ->
        Kernel.write_user t.Kmod.kernel t.Kmod.proc ~va:arr_va buf);
    let i0 = core.Core.insns and c0 = core.Core.cycles in
    let m0 = Tlb.misses core.Core.tlb and tr0 = t.Kmod.traps in
    Span_log.enter log st.k_run;
    let o = Api.run ~max_insns:10_000_000 t in
    let insns = core.Core.insns - i0 in
    Span_log.leave ~insns log;
    (* The slice must stop at its closing brk with every iteration
       retired (x20 counts them up to x21 = n). *)
    let ok =
      (match o with Kmod.Exited _ -> true | _ -> false)
      && Core.reg core 20 = switches && Core.reg core 21 = switches
    in
    let out =
      List.fold_left fold 0
        [ insns; core.Core.cycles - c0; Core.reg core 0; Core.reg core 1;
          Core.reg core 20; Tlb.misses core.Core.tlb - m0;
          t.Kmod.traps - tr0 ]
    in
    Span_log.span log st.k_eret (fun () -> Core.eret_from_el2 core);
    t.Kmod.proc.Proc.exit_code <- None;
    core.Core.pc <- st.entry;
    { ok; op_insns = insns; out }

  let setup log rng =
    let k_prepare = Span_log.kind log "lz_eval.prepare" in
    let k_write = Span_log.kind log "lz_kernel.write_user" in
    let k_run = Span_log.kind log "lightzone.run" in
    let k_eret = Span_log.kind log "lz_cpu.eret_from_el2" in
    (* Pin the VMID counter so every set-up builds the same machine. *)
    Api.next_vmid := 0x100;
    Api.reset_fork_vmids ();
    let r =
      Span_log.span log k_prepare (fun () ->
          Switch_bench.prepare cm ~env:Switch_bench.Host ~domains ~n:switches)
    in
    let t = r.Switch_bench.t in
    use_blocks t.Kmod.core;
    let st = { t; entry = t.Kmod.core.Core.pc; k_write; k_run; k_eret } in
    let builds () = (Fastpath.stats t.Kmod.core.Core.fp).Fastpath.blk_builds in
    let rec warm n =
      if n = max_warmup_slices then
        failwith "switch128: block engine still building after warm-up";
      let b0 = builds () in
      let r = slice log st (gen rng) in
      if not r.ok then failwith "switch128: warm-up slice failed";
      if builds () > b0 then warm (n + 1)
    in
    warm 0;
    st

  let spec =
    {
      name = "switch128";
      setup_batch = 10;
      setup;
      setup_digest = (fun st -> Switch_bench.zone_digest st.t);
      gen;
      input_hash = (fun b -> fold_string 0 (Bytes.to_string b));
      op = slice;
      counters = (fun st -> kmod_counters st.t);
      final_check = (fun ~ops:_ _ -> true);
    }
end

(* ------------------------------------------------------------------ *)
(* churn4096 *)

module Churn4096 = struct
  let zones = 4096
  let asid_bits = 13
  let max_requests = 16
  let code_va = 0x400000
  let serve_va = 0x600000
  let stack_va = 0x7F0000000000
  let stack_len = 0x10000

  (* Serve loop: x21 = requests left. Each request switches through
     gate 1 into the connection's zone, stores and loads on its
     protected scratch page, and switches back through gate 0. *)
  let program () =
    let b = Builder.create ~base:code_va in
    let loop = Builder.here b in
    Builder.switch_gate b ~gate:1;
    Builder.mov_imm64 b 0 serve_va;
    Builder.emit b
      [ Lz_arm.Insn.Movz (1, 0xAB, 0); Lz_arm.Insn.Str (1, 0, 0);
        Lz_arm.Insn.Ldr (2, 0, 0);
        Lz_arm.Insn.Add (3, 3, Lz_arm.Insn.Imm 1) ];
    Builder.switch_gate b ~gate:0;
    Builder.emit b [ Lz_arm.Insn.Subs (21, 21, Lz_arm.Insn.Imm 1) ];
    Builder.emit b
      [ Lz_arm.Insn.Bcond (Lz_arm.Insn.NE, loop - Builder.here b) ];
    Builder.emit b [ Lz_arm.Insn.Brk 0 ];
    b

  type st = {
    t : Kmod.t;
    mutable conn_id : int;  (** the pgt id every connection recycles. *)
    k_alloc : Span_log.kind;
    k_map : Span_log.kind;
    k_prot : Span_log.kind;
    k_run : Span_log.kind;
    k_eret : Span_log.kind;
    k_free : Span_log.kind;
  }

  let gen rng = 1 + Random.State.int rng max_requests

  (* One connection. The first one attaches the scratch page to its
     zone; the pgt id then recycles LIFO, so every later connection
     must get the same id back — and with it the attachment. *)
  let connection log st requests =
    let t = st.t in
    let core = t.Kmod.core in
    let id = Span_log.span log st.k_alloc (fun () -> Api.lz_alloc t) in
    let first = st.conn_id < 0 in
    if first then st.conn_id <- id;
    Span_log.span log st.k_map (fun () ->
        Api.lz_map_gate_pgt t ~pgt:id ~gate:1);
    if first then
      Span_log.span log st.k_prot (fun () ->
          Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
            ~perm:(Perm.read lor Perm.write));
    Core.set_reg core 21 requests;
    let i0 = core.Core.insns and c0 = core.Core.cycles in
    let f0 = t.Kmod.fault_traps in
    Span_log.enter log st.k_run;
    let o = Api.run ~max_insns:1_000_000 t in
    let insns = core.Core.insns - i0 in
    Span_log.leave ~insns log;
    let ok =
      id = st.conn_id
      && (match o with Kmod.Exited _ -> true | _ -> false)
      && Core.reg core 21 = 0 && Core.reg core 2 = 0xAB
    in
    let out =
      List.fold_left fold 0
        [ id; insns; core.Core.cycles - c0; Core.reg core 3;
          t.Kmod.fault_traps - f0; Asid_alloc.generation t.Kmod.asids ]
    in
    Span_log.span log st.k_eret (fun () -> Core.eret_from_el2 core);
    t.Kmod.proc.Proc.exit_code <- None;
    core.Core.pc <- code_va;
    Span_log.span log st.k_free (fun () -> Api.lz_free t id);
    { ok; op_insns = insns; out }

  (* Every connection takes a fresh ASID, so the 2^asid_bits ASIDs of
     a generation last at most that many connections. *)
  let asids = 1 lsl asid_bits

  (* A run of at least [asids] connections must roll the generation
     over. *)
  let final_check ~ops (d : counters) = ops < asids || d.asid_rollovers >= 1

  (* Build the server, make the resident zones, then churn connections
     until the ASID generation has rolled over once: timed ops start
     in the recycling steady state. *)
  let setup log rng =
    let sp name f = Span_log.span log (Span_log.kind log name) f in
    let machine =
      sp "lz_kernel.machine_create" (fun () -> Machine.create ~cost:cm ())
    in
    let kernel =
      sp "lz_kernel.create" (fun () -> Kernel.create machine Kernel.Host_vhe)
    in
    let proc = sp "lz_kernel.create_process" (fun () ->
        Kernel.create_process kernel) in
    sp "lz_kernel.map_anon" (fun () ->
        ignore
          (Kernel.map_anon kernel proc ~at:(stack_va - stack_len)
             ~len:stack_len Vma.rw);
        ignore (Kernel.map_anon kernel proc ~at:serve_va ~len:0x1000 Vma.rw));
    sp "lz_kernel.populate" (fun () ->
        Kernel.populate kernel proc ~start:(stack_va - stack_len)
          ~len:stack_len;
        Kernel.populate kernel proc ~start:serve_va ~len:0x1000);
    let t =
      sp "lightzone.enter" (fun () ->
          Kmod.enter ~asid_bits ~allow_scalable:true
            ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x400 ~entry:code_va
            ~sp:stack_va kernel proc)
    in
    use_blocks t.Kmod.core;
    let st =
      {
        t;
        conn_id = -1;
        k_alloc = Span_log.kind log "lightzone.lz_alloc";
        k_map = Span_log.kind log "lightzone.lz_map_gate_pgt";
        k_prot = Span_log.kind log "lightzone.lz_prot";
        k_run = Span_log.kind log "lightzone.run";
        k_eret = Span_log.kind log "lz_cpu.eret_from_el2";
        k_free = Span_log.kind log "lightzone.lz_free";
      }
    in
    for _ = 1 to zones do
      ignore (Span_log.span log st.k_alloc (fun () -> Api.lz_alloc t))
    done;
    Span_log.span log st.k_map (fun () -> Api.lz_map_gate_pgt t ~pgt:0 ~gate:0);
    sp "lightzone.load_and_register" (fun () ->
        Api.load_and_register t (program ()) ~va:code_va);
    let n = ref 0 in
    while Asid_alloc.rollovers t.Kmod.asids = 0 do
      if !n = asids then failwith "churn4096: no ASID rollover in set-up";
      if not (connection log st (gen rng)).ok then
        failwith "churn4096: set-up connection failed";
      incr n
    done;
    st

  let spec =
    {
      name = "churn4096";
      setup_batch = 1;
      setup;
      setup_digest = (fun st -> Switch_bench.zone_digest st.t);
      gen;
      input_hash = fold 0;
      op = connection;
      counters = (fun st -> kmod_counters st.t);
      final_check;
    }
end

(* ------------------------------------------------------------------ *)
(* fuzz *)

module Fuzz = struct
  let domains = 128
  let kinds = Fuzz_case.all_kinds

  type st = {
    env : Oracle.env;
    k_case : Span_log.kind array;  (** one per kind, [kinds] order. *)
    mutable c : counters;  (** accumulated from oracle results. *)
    mutable unshares_base : int;
        (** the current image store's unshare count already in [c]. *)
  }

  (* One case per kind, in [kinds] order. *)
  let gen rng =
    Array.map
      (fun kind ->
        { (Fuzz_case.generate ~domains rng) with
          Fuzz_case.kind;
          budget = Fuzz_case.budget_for kind })
      kinds

  let input_hash cases =
    Array.fold_left
      (fun h c -> List.fold_left fold_string h (Fuzz_case.to_lines c))
      0 cases

  let unshares (z : Kmod.t) = (Phys.stats z.Kmod.core.Core.phys).Phys.unshares

  let round log st input =
    let ok = ref true and out = ref 0 and insns = ref 0 in
    Array.iteri
      (fun i (case : Fuzz_case.t) ->
        let z0 = st.env.Oracle.z in
        let r =
          Span_log.span log st.k_case.(i) (fun () ->
              Oracle.run_case st.env case)
        in
        let z = st.env.Oracle.z in
        if z != z0 then begin
          (* The oracle rebuilt its warm image: close the old store's
             unshare count. *)
          st.c <-
            { st.c with
              phys_unshares =
                st.c.phys_unshares + unshares z0 - st.unshares_base;
              image_rebuilds = st.c.image_rebuilds + 1 };
          st.unshares_base <- 0
        end;
        if r.Oracle.divergence <> None then ok := false;
        (* smp-race cases run on fresh machines; the others on forks
           of the warm image, whose counters they start from. *)
        let base_i, base_c =
          if case.Fuzz_case.kind = Fuzz_case.Smp_race then (0, 0)
          else (z.Kmod.core.Core.insns, z.Kmod.core.Core.cycles)
        in
        let c = st.c in
        let c =
          List.fold_left
            (fun (c : counters) (run : Oracle.run) ->
              let fp = run.Oracle.fp in
              let di = run.Oracle.insns - base_i in
              let dc = run.Oracle.cycles - base_c in
              insns := !insns + di;
              out :=
                List.fold_left fold
                  (fold_string (fold_string !out run.Oracle.outcome)
                     run.Oracle.digest)
                  [ di; dc; List.length run.Oracle.ev_json ];
              { c with
                insns = c.insns + di;
                cycles = c.cycles + dc;
                blk_entries = c.blk_entries + fp.Fastpath.blk_entries;
                blk_hits = c.blk_hits + fp.Fastpath.blk_hits;
                blk_builds = c.blk_builds + fp.Fastpath.blk_builds;
                blk_insns = c.blk_insns + fp.Fastpath.blk_insns;
                chain_follows = c.chain_follows + fp.Fastpath.chain_follows;
                fuzz_events = c.fuzz_events + List.length run.Oracle.ev_json })
            c r.Oracle.runs
        in
        out := fold_string !out (Oracle.signature r.Oracle.keys);
        st.c <- { c with fuzz_cases = c.fuzz_cases + 1 })
      input;
    { ok = !ok; op_insns = !insns; out = !out }

  let setup log _rng =
    let k_create = Span_log.kind log "lz_fuzz.oracle_create" in
    let env =
      Span_log.span log k_create (fun () -> Oracle.create ~domains cm)
    in
    {
      env;
      k_case =
        Array.map
          (fun k ->
            Span_log.kind ~gc:true log
              ("lz_fuzz.run_case." ^ Fuzz_case.kind_name k))
          kinds;
      c = no_counters;
      unshares_base = unshares env.Oracle.z;
    }

  let counters st =
    let ps = Phys.stats st.env.Oracle.z.Kmod.core.Core.phys in
    { st.c with
      phys_unshares = st.c.phys_unshares + ps.Phys.unshares - st.unshares_base;
      phys_store_slots = ps.Phys.store_slots }

  let spec =
    {
      name = "fuzz";
      setup_batch = 25;
      setup;
      setup_digest = (fun st -> Switch_bench.zone_digest st.env.Oracle.z);
      gen;
      input_hash;
      op = round;
      counters;
      final_check = (fun ~ops:_ _ -> true);
    }
end

let all = [ W Switch128.spec; W Churn4096.spec; W Fuzz.spec ]

let names = List.map (fun (W s) -> s.name) all

let find name = List.find_opt (fun (W s) -> s.name = name) all
