(* Tests for the observability subsystem: the PMUv3 model (exactness
   against the core's own totals, enable/freeze semantics, guest
   MSR/MRS access), the bounded trace ring, flush/refill event wiring,
   span attribution over a real gate run, and the qcheck property that
   attaching a tracer leaves architectural state bit-identical. *)

open Lz_arm
open Lz_mem
open Lz_cpu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let q = QCheck_alcotest.to_alcotest

module Trace = Lz_trace.Trace
module Span = Lz_trace.Span

(* ------------------------------------------------------------------ *)
(* PMU counter semantics (pure model) *)

let ccntr_bit = 1 lsl Pmu.cycle_counter_bit

let test_pmu_freeze () =
  let p = Pmu.create () in
  Pmu.write_pmcr p ~cycles:0 ~insns:0 0b1;
  check_int "disabled counter stays 0" 0 (Pmu.read_ccntr p ~cycles:90);
  Pmu.write_cntenset p ~cycles:100 ~insns:0 ccntr_bit;
  check_int "counts from enable" 50 (Pmu.read_ccntr p ~cycles:150);
  Pmu.write_cntenclr p ~cycles:150 ~insns:0 ccntr_bit;
  check_int "frozen while disabled" 50 (Pmu.read_ccntr p ~cycles:400);
  Pmu.write_cntenset p ~cycles:400 ~insns:0 ccntr_bit;
  check_int "resumes without gap" 70 (Pmu.read_ccntr p ~cycles:420);
  (* PMCR.C resets the cycle counter; PMCR.E=0 freezes everything. *)
  Pmu.write_pmcr p ~cycles:420 ~insns:0 0b101;
  check_int "PMCR.C resets" 0 (Pmu.read_ccntr p ~cycles:420);
  Pmu.write_pmcr p ~cycles:430 ~insns:0 0b0;
  check_int "PMCR.E=0 freezes" 10 (Pmu.read_ccntr p ~cycles:500)

let test_pmu_discrete_events () =
  let p = Pmu.create () in
  Pmu.write_evtyper p ~cycles:0 ~insns:0 0 Pmu.Event.tlb_flush;
  Pmu.write_cntenset p ~cycles:0 ~insns:0 0b1;
  Pmu.write_pmcr p ~cycles:0 ~insns:0 0b1;
  Pmu.record p Pmu.Event.tlb_flush;
  Pmu.record p Pmu.Event.tlb_flush;
  Pmu.record p Pmu.Event.exc_taken;
  check_int "counter sees its event only" 2
    (Pmu.read_evcntr p ~cycles:10 ~insns:5 0);
  check_int "totals independent of programming" 1
    (Pmu.event_total p Pmu.Event.exc_taken);
  (* Retargeting freezes the old count and follows the new source. *)
  Pmu.write_evtyper p ~cycles:10 ~insns:5 0 Pmu.Event.exc_taken;
  Pmu.record p Pmu.Event.exc_taken;
  check_int "retarget restarts from current total" 3
    (Pmu.read_evcntr p ~cycles:20 ~insns:9 0)

let test_pmu_overflow_wrap () =
  let p = Pmu.create () in
  Pmu.write_evtyper p ~cycles:0 ~insns:0 0 Pmu.Event.tlb_flush;
  Pmu.write_cntenset p ~cycles:0 ~insns:0 0b1;
  Pmu.write_pmcr p ~cycles:0 ~insns:0 0b1;
  (* Park the 32-bit counter just below the top and push it over. *)
  Pmu.write_evcntr p ~cycles:0 ~insns:0 0 0xFFFF_FFFE;
  Pmu.record p Pmu.Event.tlb_flush;
  Pmu.record p Pmu.Event.tlb_flush;
  Pmu.record p Pmu.Event.tlb_flush;
  check_int "counter wraps modulo 2^32, no pinning" 1
    (Pmu.read_evcntr p ~cycles:10 ~insns:0 0);
  check_int "wrap latches the overflow bit" 0b1
    (Pmu.read_ovs p ~cycles:10 ~insns:0);
  Pmu.write_ovsclr p ~cycles:10 ~insns:0 0b1;
  check_int "PMOVSCLR clears the bit" 0 (Pmu.read_ovs p ~cycles:10 ~insns:0);
  Pmu.write_ovsset p ~cycles:10 ~insns:0 0b10;
  check_int "PMOVSSET sets bits directly" 0b10
    (Pmu.read_ovs p ~cycles:10 ~insns:0)

let test_pmu_cycle_overflow () =
  let p = Pmu.create () in
  Pmu.write_cntenset p ~cycles:0 ~insns:0 ccntr_bit;
  Pmu.write_pmcr p ~cycles:0 ~insns:0 0b1;
  Pmu.write_ccntr p ~cycles:0x100 0xFFFF_FF00;
  (* 0x200 more cycles carry out of bit 31: with PMCR.LC clear the
     cycle counter's overflow bit fires; the 64-bit value keeps
     counting (no 32-bit truncation of PMCCNTR). *)
  check_int "cycle counter keeps its 64-bit value" 0x1_0000_0100
    (Pmu.read_ccntr p ~cycles:0x300);
  check_int "bit-31 carry sets OVS bit 31" ccntr_bit
    (Pmu.read_ovs p ~cycles:0x300 ~insns:0);
  (* With LC set, 32-bit carries no longer latch the flag. *)
  Pmu.write_ovsclr p ~cycles:0x300 ~insns:0 ccntr_bit;
  Pmu.write_pmcr p ~cycles:0x300 ~insns:0 0b100_0001;
  Pmu.write_ccntr p ~cycles:0x300 0xFFFF_FF00;
  check_int "LC=1 suppresses the 32-bit overflow flag" 0
    (Pmu.read_ovs p ~cycles:0x600 ~insns:0)

(* ------------------------------------------------------------------ *)
(* PMU exactness over the microbench programs (host API) *)

let test_pmu_exact name () =
  let open Lz_workloads.Microbench in
  let env = build ~iters:500 name in
  let core = env.core in
  let p = Core.attach_pmu core in
  let cycles = core.Core.cycles and insns = core.Core.insns in
  Pmu.write_evtyper p ~cycles ~insns 0 Pmu.Event.cpu_cycles;
  Pmu.write_evtyper p ~cycles ~insns 1 Pmu.Event.inst_retired;
  Pmu.write_evtyper p ~cycles ~insns 2 Pmu.Event.l1d_tlb_refill;
  Pmu.write_evtyper p ~cycles ~insns 3 Pmu.Event.l1i_tlb_refill;
  Pmu.write_cntenset p ~cycles ~insns (ccntr_bit lor 0b1111);
  Pmu.write_pmcr p ~cycles ~insns 0b1;
  let c0 = core.Core.cycles and i0 = core.Core.insns in
  run_to_brk env;
  let cycles = core.Core.cycles and insns = core.Core.insns in
  check_int "PMCCNTR == elapsed core cycles" (cycles - c0)
    (Pmu.read_ccntr p ~cycles);
  check_int "PMEVCNTR0 (CPU_CYCLES) == elapsed core cycles" (cycles - c0)
    (Pmu.read_evcntr p ~cycles ~insns 0);
  check_int "PMEVCNTR1 (INST_RETIRED) == retired instructions" (insns - i0)
    (Pmu.read_evcntr p ~cycles ~insns 1);
  (* Every miss in these programs translates successfully, so D+I
     refills must equal the TLB's own miss count exactly. *)
  check_int "TLB refill counters == TLB misses"
    (Tlb.misses core.Core.tlb)
    (Pmu.read_evcntr p ~cycles ~insns 2
    + Pmu.read_evcntr p ~cycles ~insns 3)

(* ------------------------------------------------------------------ *)
(* Guest-visible PMU access via MSR/MRS *)

let code_va = 0x10000

let build_bare program =
  let phys = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root phys in
  let code_pa = Phys.alloc_frame phys in
  Stage1.map_page phys ~root ~va:code_va ~pa:code_pa
    { Pte.user = false; read_only = true; uxn = true; pxn = false; ng = true };
  List.iteri
    (fun i insn -> Phys.write32 phys (code_pa + (4 * i)) (Encoding.encode insn))
    program;
  let core = Core.create phys tlb Cost_model.cortex_a55 Pstate.EL1 in
  Sysreg.write core.Core.sys Sysreg.TTBR0_EL1 (Mmu.ttbr_value ~root ~asid:1);
  core.Core.pc <- code_va;
  core

let test_pmu_guest_msr_mrs () =
  let open Insn in
  let core =
    build_bare
      [ Movz (0, 1, 0);
        Msr (Sysreg.PMCR_EL0, 0);            (* PMCR.E *)
        Movz (1, 0, 0);
        Movk (1, 0x8000, 16);                (* bit 31: cycle counter *)
        Msr (Sysreg.PMCNTENSET_EL0, 1);
        Mrs (2, Sysreg.PMCR_EL0);
        Mrs (3, Sysreg.PMCCNTR_EL0);
        Mrs (4, Sysreg.PMCCNTR_EL0);
        Brk 0 ]
  in
  (match Core.run core with
  | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
  | s -> Alcotest.failf "expected brk, got %a" Core.pp_stop s);
  let x n = Core.reg core n in
  check_int "MRS PMCR reads E back" 1 (x 2 land 1);
  check_int "PMCR.N advertises 6 counters" Pmu.n_counters
    ((x 2 lsr 11) land 0x1F);
  check_bool "PMCCNTR live after MSR enable" true (x 3 > 0);
  check_bool "PMCCNTR monotone between reads" true (x 4 > x 3);
  (* The MSR lazily attached a PMU that the host API can also read. *)
  (match Core.pmu core with
  | Some p ->
      let host = Pmu.read_ccntr p ~cycles:core.Core.cycles in
      check_bool "host read continues the guest's counter" true
        (host >= x 4 && host <= core.Core.cycles)
  | None -> Alcotest.fail "guest MSR did not attach a PMU")

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_ring_overflow () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit tr ~cycles:(i * 10) (Trace.Syscall { nr = i })
  done;
  check_int "len capped at capacity" 4 (Trace.len tr);
  check_int "total counts every emission" 10 (Trace.total tr);
  check_int "dropped counts the overflow" 6 (Trace.dropped tr);
  List.iteri
    (fun i ev ->
      check_int "seq preserved" i ev.Trace.seq;
      check_int "cycles preserved" (i * 10) ev.Trace.cycles;
      match ev.Trace.payload with
      | Trace.Syscall { nr } -> check_int "payload preserved" i nr
      | p -> Alcotest.failf "unexpected payload %s" (Trace.payload_name p))
    (Trace.events tr);
  Trace.clear tr;
  check_int "clear empties the ring" 0 (Trace.len tr);
  check_int "clear resets drops" 0 (Trace.dropped tr)

(* The ring grows on demand up to its capacity; a capacity-N ring fed
   N+k events, across one or more growth steps, keeps the first N with
   their sequence numbers and counts k dropped, before and after a
   [clear]. *)
let prop_ring_grows =
  QCheck2.Test.make ~name:"growing ring drops newest" ~count:100
    QCheck2.Gen.(pair (int_range 1 300) (int_range 0 300))
    (fun (n, k) ->
      let tr = Trace.create ~capacity:n () in
      let fill () =
        for i = 0 to n + k - 1 do
          Trace.emit tr ~cycles:(3 * i) (Trace.Syscall { nr = i })
        done;
        let evs = Trace.events tr in
        Trace.len tr = n && Trace.dropped tr = k && Trace.total tr = n + k
        && List.length evs = n
        && List.for_all2
             (fun i (e : Trace.event) ->
               e.Trace.seq = i && e.Trace.cycles = 3 * i
               && e.Trace.payload = Trace.Syscall { nr = i })
             (List.init n Fun.id) evs
      in
      let first = fill () in
      Trace.clear tr;
      let cleared = Trace.len tr = 0 && Trace.events tr = [] in
      first && cleared && fill ())

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_event_json () =
  let ev =
    { Trace.seq = 3; cycles = 41;
      payload = Trace.Tlb_flush { scope = Trace.Flush_asid; vmid = 2 } }
  in
  let s = Trace.event_to_json ev in
  check_bool "json names the event" true (contains s "tlb_flush");
  check_bool "json carries the timestamp" true (contains s "41")

(* Typed event equality agrees with polymorphic [=] on pairs drawn
   over all 16 payload constructors: an event and either a copy of it,
   a copy with one field changed (sequence number, cycles or any
   payload field), or an event of another constructor. Fields come
   from a small range so unrelated draws can also be equal. *)
let arity = [| 3; 2; 1; 1; 1; 1; 2; 1; 2; 2; 2; 2; 1; 2; 3; 1 |]

let event_of k f =
  let b i = f.(i + 2) land 1 = 1 and n i = f.(i + 2) in
  let scope =
    match f.(2) land 3 with
    | 0 -> Trace.Flush_all
    | 1 -> Trace.Flush_vmid
    | 2 -> Trace.Flush_asid
    | _ -> Trace.Flush_va
  in
  let payload =
    match k with
    | 0 -> Trace.Trap_enter { ec = n 0; from_el = n 1; to_el = n 2 }
    | 1 -> Trace.Trap_exit { from_el = n 0; to_el = n 1 }
    | 2 -> Trace.Gate_entry { gate = n 0 }
    | 3 -> Trace.Gate_check { gate = n 0 }
    | 4 -> Trace.Gate_exit { gate = n 0 }
    | 5 -> Trace.Domain_switch { asid = n 0 }
    | 6 -> Trace.Sanitizer_scan { pa = n 0; ok = b 1 }
    | 7 -> Trace.Wx_bbm { fake = n 0 }
    | 8 -> Trace.Stage_fault { stage = n 0; va = n 1 }
    | 9 -> Trace.World_switch { enter = b 0; vmid = n 1 }
    | 10 -> Trace.Retention { nr = n 0; hit = b 1 }
    | 11 -> Trace.Tlb_flush { scope; vmid = n 1 }
    | 12 -> Trace.Syscall { nr = n 0 }
    | 13 -> Trace.Nested_forward { enter = b 0; repoint = b 1 }
    | 14 -> Trace.Irq_enter { intid = n 0; from_el = n 1; to_el = n 2 }
    | _ -> Trace.Preempt { task = n 0 }
  in
  { Trace.seq = f.(0); cycles = f.(1); payload }

let gen_event_pair =
  let open QCheck2.Gen in
  let* k = int_range 0 15 in
  let* f = array_size (return 5) (int_range 0 3) in
  let* other = oneof [ map Option.some (int_range 0 15); return None ] in
  let+ field = int_range (-1) (1 + arity.(k)) in
  let b =
    match other with
    | Some k' when k' <> k -> event_of k' f
    | _ ->
        (* [field] -1 copies; +1 flips a bool and moves a scope too. *)
        event_of k
          (Array.mapi (fun i v -> if i = field then v + 1 else v) f)
  in
  (event_of k f, b)

let prop_equal_event =
  QCheck2.Test.make ~name:"equal_event is structural equality" ~count:2000
    ~print:(fun (a, b) ->
      Trace.event_to_json a ^ " / " ^ Trace.event_to_json b)
    gen_event_pair
    (fun (a, b) -> Trace.equal_event a b = (a = b))

(* ------------------------------------------------------------------ *)
(* TLB flush wiring *)

let test_tlb_flush_events () =
  let tlb = Tlb.create () in
  let tr = Trace.create () in
  let p = Pmu.create () in
  Tlb.set_tracer tlb (Some tr);
  Tlb.set_pmu tlb (Some p);
  Tlb.flush_all tlb;
  Tlb.flush_vmid tlb 3;
  Tlb.flush_asid tlb ~vmid:1 ~asid:7;
  Tlb.flush_va tlb ~vmid:1 ~va:0x4000;
  check_int "PMU saw every flush" 4 (Pmu.event_total p Pmu.Event.tlb_flush);
  let scopes =
    List.map
      (fun ev ->
        match ev.Trace.payload with
        | Trace.Tlb_flush { scope; _ } -> scope
        | p -> Alcotest.failf "unexpected payload %s" (Trace.payload_name p))
      (Trace.events tr)
  in
  check_bool "one event per flush kind" true
    (scopes
     = [ Trace.Flush_all; Trace.Flush_vmid; Trace.Flush_asid;
         Trace.Flush_va ])

(* ------------------------------------------------------------------ *)
(* Span attribution over a real 16-domain gate run *)

let test_traced_run_coverage () =
  let r =
    Lz_eval.Switch_bench.traced_run Cost_model.cortex_a55
      ~env:Lz_eval.Switch_bench.Host ~domains:16 ~n:300
  in
  let rep = r.Lz_eval.Switch_bench.report in
  check_int "no drops" 0 rep.Span.dropped;
  check_bool "coverage >= 0.95" true (rep.Span.coverage >= 0.95);
  let row name =
    try (List.find (fun (r : Span.row) -> r.name = name) rep.Span.rows).count
    with Not_found -> 0
  in
  check_int "every switch passed phase 1" 300 (row "gate.switch");
  check_int "every switch passed phase 2" 300 (row "gate.check");
  check_bool "gate phases carry cycles" true
    (List.for_all
       (fun (r : Span.row) -> r.cycles > 0)
       (List.filter
          (fun (r : Span.row) ->
            r.name = "gate.switch" || r.name = "gate.check")
          rep.Span.rows));
  check_int "one domain switch per gate pass" 300
    (try List.assoc "domain_switch" rep.Span.points with Not_found -> 0)

(* ------------------------------------------------------------------ *)
(* Superblock engine under trace: traced runs stay on the block-aware
   dispatcher, and switching the process default engine between it and
   the per-insn engine must leave a traced 128-domain Table 5 run
   completely untouched — byte-identical event stream, identical
   architectural digest, full span coverage. The default is restored
   even if a run raises, so later tests keep the engine they expect. *)

let test_blocks_invisible_under_trace () =
  let run engine =
    Core.default_engine := engine;
    (* Pin the global VMID allocator so the flush events of two
       complete runs can be compared byte-for-byte. *)
    Lightzone.Api.next_vmid := 0x100;
    Lz_eval.Switch_bench.traced_run Cost_model.cortex_a55
      ~env:Lz_eval.Switch_bench.Host ~domains:128 ~n:300
  in
  let saved = !Core.default_engine in
  let on, off =
    Fun.protect
      ~finally:(fun () -> Core.default_engine := saved)
      (fun () ->
        let on = run Core.Blocks in
        (on, run Core.Per_insn))
  in
  let bytes (r : Lz_eval.Switch_bench.traced) =
    String.concat "\n" (List.map Trace.event_to_json (Trace.events r.trace))
  in
  check_bool "event stream byte-identical" true (bytes on = bytes off);
  check_bool "architectural digest identical" true
    (on.Lz_eval.Switch_bench.digest = off.Lz_eval.Switch_bench.digest);
  check_int "no drops" 0 on.Lz_eval.Switch_bench.report.Span.dropped;
  check_bool "span coverage stays 100%" true
    (on.Lz_eval.Switch_bench.report.Span.coverage >= 0.999
    && off.Lz_eval.Switch_bench.report.Span.coverage >= 0.999)

(* ------------------------------------------------------------------ *)
(* Exclusive vs inclusive accounting on a synthetic nested stream *)

let test_exclusive_inclusive () =
  let ev cycles payload = { Trace.seq = 0; cycles; payload } in
  (* A gate pass, then a forwarded fault: dabort into the EL1 stub,
     HVC into EL2, EL2 ERET plus the stub-retiring balancing exit. *)
  let events =
    [ ev 100 (Trace.Gate_entry { gate = 0 });
      ev 150 (Trace.Gate_check { gate = 0 });
      ev 200 (Trace.Gate_exit { gate = 0 });
      ev 300 (Trace.Trap_enter { ec = 0x24; from_el = 1; to_el = 1 });
      ev 340 (Trace.Trap_enter { ec = 0x16; from_el = 1; to_el = 2 });
      ev 700 (Trace.Trap_exit { from_el = 2; to_el = 1 });
      ev 700 (Trace.Trap_exit { from_el = 1; to_el = 1 }) ]
  in
  let rep = Span.analyze ~total_cycles:1000 ~dropped:0 events in
  let row name =
    List.find (fun (x : Span.row) -> x.Span.name = name) rep.Span.rows
  in
  check_int "mainline exclusive" 500 (row "mainline").Span.cycles;
  check_int "gate.switch exclusive" 50 (row "gate.switch").Span.cycles;
  check_int "gate.check exclusive" 50 (row "gate.check").Span.cycles;
  check_int "dabort exclusive is the stub only" 40
    (row "trap.dabort").Span.cycles;
  check_int "dabort inclusive spans the forward" 400
    (row "trap.dabort").Span.inclusive_cycles;
  check_int "hvc exclusive" 360 (row "trap.hvc").Span.cycles;
  check_int "hvc inclusive" 360 (row "trap.hvc").Span.inclusive_cycles;
  check_int "no dangling frames" 0 rep.Span.unbalanced;
  check_bool "full coverage" true (rep.Span.coverage >= 0.999)

(* ------------------------------------------------------------------ *)
(* Span attribution of forwarded traps (regression).

   A stage-1 fault in a LightZone process takes two Trap_enters — the
   EL1 vector stub, then the stub's HVC into EL2 — but the EL2 ERET
   returns straight to the interrupted context, so only one Trap_exit
   was emitted.  The analyzer's frame stack grew a dangling frame per
   forwarded exception and attributed inter-fault mainline cycles to
   the innermost trap class. *)

let test_forwarded_trap_attribution () =
  let r =
    Lz_eval.Switch_bench.traced_run Cost_model.cortex_a55
      ~env:Lz_eval.Switch_bench.Host ~domains:16 ~n:300
  in
  let rep = r.Lz_eval.Switch_bench.report in
  let enters, exits, dabort_enters =
    List.fold_left
      (fun (en, ex, da) (e : Trace.event) ->
        match e.Trace.payload with
        | Trace.Trap_enter { ec; _ } ->
            (en + 1, ex, if Span.ec_name ec = "dabort" then da + 1 else da)
        | Trace.Trap_exit _ -> (en, ex + 1, da)
        | _ -> (en, ex, da))
      (0, 0, 0)
      (Trace.events r.Lz_eval.Switch_bench.trace)
  in
  (* The final BRK never returns (the process exits inside the
     handler), so its stub + HVC enters legitimately lack exits. *)
  check_bool
    (Printf.sprintf "trap enters balanced by exits (%d vs %d)" enters exits)
    true
    (enters - exits <= 2);
  let row name =
    List.find_opt (fun (x : Span.row) -> x.Span.name = name) rep.Span.rows
  in
  match row "trap.dabort" with
  | None -> Alcotest.fail "no trap.dabort row in a demand-faulting run"
  | Some d ->
      check_int "one exclusive trap.dabort span per dabort" dabort_enters
        d.Span.count

(* ------------------------------------------------------------------ *)
(* Tracing is architecturally invisible *)

let observe ?engine ~traced ~iters name =
  let open Lz_workloads.Microbench in
  let env = build ?engine ~iters name in
  if traced then Core.set_tracer env.core (Some (Trace.create ()));
  run_to_brk env;
  Differential.observe ~pages:env.data_pas env.core

let prop_tracing_invisible =
  QCheck2.Test.make
    ~name:"trace: attaching a tracer leaves architectural state bit-identical"
    ~count:15
    QCheck2.Gen.(
      pair (oneofl Lz_workloads.Microbench.names) (int_range 1 400))
    (fun (name, iters) ->
      let off = observe ~traced:false ~iters name in
      match Differential.diff off (observe ~traced:true ~iters name) with
      | None -> true
      | Some d -> QCheck2.Test.fail_report d)

(* ------------------------------------------------------------------ *)
let prop_fast_slow_with_tracing =
  QCheck2.Test.make
    ~name:"trace: fast path stays invisible with tracing on" ~count:15
    QCheck2.Gen.(
      pair (oneofl Lz_workloads.Microbench.names) (int_range 1 400))
    (fun (name, iters) ->
      ignore
        (Differential.across_engines (fun engine ->
             observe ~engine ~traced:true ~iters name));
      true)

let () =
  Alcotest.run "lz_trace"
    [ ( "pmu",
        [ Alcotest.test_case "enable/disable freeze" `Quick test_pmu_freeze;
          Alcotest.test_case "discrete events" `Quick
            test_pmu_discrete_events;
          Alcotest.test_case "32-bit wrap latches overflow" `Quick
            test_pmu_overflow_wrap;
          Alcotest.test_case "cycle-counter overflow flag" `Quick
            test_pmu_cycle_overflow;
          Alcotest.test_case "exact: aes" `Quick (test_pmu_exact "aes");
          Alcotest.test_case "exact: mysql" `Quick (test_pmu_exact "mysql");
          Alcotest.test_case "exact: nginx" `Quick (test_pmu_exact "nginx");
          Alcotest.test_case "guest MSR/MRS" `Quick test_pmu_guest_msr_mrs ]
      );
      ( "ring",
        [ Alcotest.test_case "overflow drops newest, keeps earliest" `Quick
            test_ring_overflow;
          Alcotest.test_case "json export" `Quick test_event_json;
          q prop_ring_grows;
          q prop_equal_event ] );
      ( "wiring",
        [ Alcotest.test_case "tlb flush events" `Quick test_tlb_flush_events ]
      );
      ( "spans",
        [ Alcotest.test_case "gate-run attribution" `Quick
            test_traced_run_coverage;
          Alcotest.test_case "exclusive vs inclusive accounting" `Quick
            test_exclusive_inclusive;
          Alcotest.test_case "forwarded-trap attribution (regression)"
            `Quick test_forwarded_trap_attribution;
          Alcotest.test_case "superblocks invisible under trace (128 dom)"
            `Quick test_blocks_invisible_under_trace ] );
      ( "invisibility",
        [ q prop_tracing_invisible; q prop_fast_slow_with_tracing ] ) ]
