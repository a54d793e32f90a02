(* Tests for the multi-core machine (lib/smp): the sequential-oracle ≡
   parallel-domains determinism property across core counts, quantum
   sizes and engines; the SGI-driven TLB shootdown protocol (a stale
   translation on a remote core survives exactly until the DVM
   completion, then faults); IRM broadcast vs targeted SGIs; whole-
   machine snapshot/restore; and two cores running the Table 5 gate
   workload concurrently with per-core PMU and span attribution. *)

open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel
open Lightzone

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let q = QCheck_alcotest.to_alcotest

module Gic = Lz_irq.Gic
module Irq = Lz_irq.Irq
module Smp = Lz_smp.Smp
module Trace = Lz_trace.Trace
module Span = Lz_trace.Span

(* ------------------------------------------------------------------ *)
(* Workload: an independent per-core compute process. Eight data pages
   cycled by a store/load/xor loop; page 0 is pre-populated (so the
   leaf table exists), pages 1..7 demand-fault at runtime from the
   slot's private frame pool — exercising deterministic parallel
   demand paging, not just pre-populated memory. *)

let code_va = 0x400000
let data_va = 0x600000
let stack_top = 0x7F0000010000

let compute_program ~iters ~mark =
  let open Insn in
  [ Movz (4, 7, 0);
    Movz (1, iters, 0);
    Movz (9, 0, 0);
    Movz (0, data_va lsr 16, 16);
    (* loop: rotate across the 8 pages, store the counter, read it
       back, fold into x9. *)
    And_reg (3, 1, 4);
    Lsl_imm (3, 3, 12);
    Add (3, 0, Reg 3);
    Str (1, 3, 0);
    Ldr (5, 3, 0);
    Eor_reg (9, 9, 5);
    Subs (1, 1, Imm 1);
    Bcond (NE, -28);
    Movz (8, Kernel.Nr.exit, 0);
    Movz (0, mark, 0);
    Svc 0 ]

let build_compute ?engine ~cores ~quantum ~iters () =
  let t = Smp.create ?engine ~cores ~quantum () in
  for i = 0 to cores - 1 do
    let kernel = Kernel.create (Smp.slot_machine t i) Kernel.Host_vhe in
    let proc = Kernel.create_process kernel in
    ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x8000 Vma.rw);
    ignore
      (Kernel.map_anon kernel proc ~at:(stack_top - 0x10000) ~len:0x10000
         Vma.rw);
    Kernel.load_program kernel proc ~va:code_va
      (compute_program ~iters:(iters + (29 * i)) ~mark:(40 + i));
    Kernel.populate kernel proc ~start:data_va ~len:0x1000;
    Smp.assign ~pool:16 t i kernel proc ~entry:code_va ~sp:stack_top
  done;
  t

let outcome_str = function
  | Kernel.Exited c -> Printf.sprintf "exited:%d" c
  | Kernel.Segv why -> "segv:" ^ why
  | Kernel.Limit_reached -> "limit"

let outcomes_str os =
  String.concat ","
    (List.map (fun (i, o) -> Printf.sprintf "%d=%s" i (outcome_str o)) os)

(* ------------------------------------------------------------------ *)
(* Tentpole property: the parallel drive (one host domain per core)
   is bit-identical to the sequential oracle — same outcomes, same
   per-core architectural digests, same merged traced event stream —
   across 1/2/4 cores, two quantum sizes and every engine. *)

let prop_seq_par_identical =
  QCheck2.Test.make
    ~name:"parallel domains ≡ sequential oracle (digest + trace)"
    ~count:12
    QCheck2.Gen.(
      quad (oneofl [ 1; 2; 4 ]) (oneofl [ 2_000; 7_919 ]) (oneofl Core.engines)
        (int_range 60 400))
    (fun (cores, quantum, engine, iters) ->
      let a = build_compute ~engine ~cores ~quantum ~iters () in
      let b = build_compute ~engine ~cores ~quantum ~iters () in
      let oa = Smp.run ~parallel:false a in
      let ob = Smp.run ~parallel:true b in
      oa = ob
      && Smp.digests a = Smp.digests b
      && Smp.merged_trace a = Smp.merged_trace b)

(* The three-way engine differential, per core: the slow,
   per-instruction and superblock engines agree on core 0's full
   observation and on every core's final architectural digest (cycles
   and retired counts included). *)
let prop_engine_differential =
  QCheck2.Test.make ~name:"slow ≡ per-insn ≡ blocks, per core" ~count:6
    QCheck2.Gen.(
      triple (oneofl [ 2; 4 ]) (oneofl [ 2_000; 7_919 ]) (int_range 60 300))
    (fun (cores, quantum, iters) ->
      let observe engine =
        let t = build_compute ~engine ~cores ~quantum ~iters () in
        let os = Smp.run t in
        let digests = String.concat " " (Array.to_list (Smp.digests t)) in
        Differential.observe (Smp.slot t 0).Smp.core
          ~extra:[ ("outcomes", outcomes_str os); ("digests", digests) ]
      in
      ignore (Differential.across_engines observe);
      true)

(* ------------------------------------------------------------------ *)
(* Shootdown regression: core 0 munmaps a page both cores share; core
   1 keeps loading it through its (now stale) TLB entry and must keep
   succeeding until the DVM shootdown reaches it — and fault on the
   first access after. Sequential mode, pinned counters. *)

let quantum = 1_000
let victim_va = data_va (* page A: unmapped by core 0 *)
let flag_va = data_va + 0x1000 (* page B: core 1's progress counter *)
let code1_va = 0x410000

(* Core 0: spin well past two quanta, munmap page A, exit 0. *)
let unmapper_program ~delay ~munmap =
  let open Insn in
  [ Movz (1, delay, 0); Subs (1, 1, Imm 1); Bcond (NE, -4) ]
  @ (if munmap then
       [ Movz (0, victim_va lsr 16, 16);
         Movz (1, 0x1000, 0);
         Movz (8, Kernel.Nr.munmap, 0);
         Svc 0 ]
     else [])
  @ [ Movz (8, Kernel.Nr.exit, 0); Movz (0, 0, 0); Svc 0 ]

(* Core 1: load page A forever, bumping a counter in page B. *)
let reader_program =
  let open Insn in
  [ Movz (0, victim_va lsr 16, 16);
    Movz (11, 0x1000, 0);
    Add (10, 0, Reg 11);
    Movz (9, 0, 0);
    Ldr (5, 0, 0);
    Add (9, 9, Imm 1);
    Str (9, 10, 0);
    B (-12) ]

let build_shootdown ~munmap () =
  let t = Smp.create ~cores:2 ~quantum () in
  let kernel = Kernel.create (Smp.slot_machine t 0) Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  (* Separate one-page VMAs: the munmap must remove page A's mapping
     outright, not leave a larger VMA to demand-page it back in. *)
  ignore (Kernel.map_anon kernel proc ~at:victim_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:flag_va ~len:0x1000 Vma.rw);
  Kernel.load_program kernel proc ~va:code_va
    (unmapper_program ~delay:1_500 ~munmap);
  Kernel.load_program kernel proc ~va:code1_va reader_program;
  Kernel.populate kernel proc ~start:data_va ~len:0x2000;
  (* Thread-style: both cores share the kernel, the process and its
     page tables; each has its own TLB. *)
  Smp.assign ~pool:0 t 0 kernel proc ~entry:code_va ~sp:stack_top;
  Smp.assign ~pool:0 t 1 kernel proc ~entry:code1_va ~sp:stack_top;
  t

let test_shootdown_stale_tlb () =
  let t = build_shootdown ~munmap:true () in
  let os = Smp.run ~max_insns:60_000 t in
  (match List.assoc 0 os with
  | Kernel.Exited 0 -> ()
  | o -> Alcotest.failf "core 0: %s" (outcome_str o));
  (match List.assoc 1 os with
  | Kernel.Segv _ -> ()
  | o -> Alcotest.failf "core 1 should fault after shootdown: %s"
           (outcome_str o));
  let s0 = Smp.slot t 0 and s1 = Smp.slot t 1 in
  (* Exactly one shootdown: initiated by core 0, applied by core 1,
     with core 0 stalled on the DVM completion for >= 1 barrier. *)
  check_int "core 0 initiated one shootdown" 1 s0.Smp.sd_sent;
  check_int "core 1 applied one remote invalidation" 1 s1.Smp.sd_received;
  check_bool "core 0 stalled on completion" true (s0.Smp.stall_barriers >= 1);
  check_bool "core 0 resumed (no residual stall)" true
    (not s0.Smp.core.Core.stall && s0.Smp.awaiting = 0);
  (* The stale window: core 0's delay spans > 2 quanta, so the munmap
     lands in quantum 3+; core 1 keeps loading through its stale entry
     to the end of that quantum and only faults after taking the
     shootdown IPI in the next one. *)
  check_bool "core 1 survived past three quanta" true
    (s1.Smp.core.Core.cycles > 3 * quantum);
  let reads = Core.reg s1.Smp.core 9 in
  check_bool "core 1 made progress through the stale entry" true (reads > 100);
  check_int "counter page saw every successful iteration" reads
    (match Proc.mapped_pa (Option.get s1.Smp.proc) ~va:flag_va with
     | Some pa -> Phys.read64 s1.Smp.view pa
     | None -> Alcotest.fail "flag page unmapped")

(* Control: without the munmap there is no shootdown and core 1 never
   faults — the fault above is caused by the shootdown alone. *)
let test_shootdown_control () =
  let t = build_shootdown ~munmap:false () in
  let os = Smp.run ~max_insns:60_000 t in
  (match List.assoc 1 os with
  | Kernel.Limit_reached -> ()
  | o -> Alcotest.failf "core 1 without munmap: %s" (outcome_str o));
  let s0 = Smp.slot t 0 and s1 = Smp.slot t 1 in
  check_int "no shootdowns" 0 s0.Smp.sd_sent;
  check_int "none received" 0 s1.Smp.sd_received

(* The stale-window run is itself deterministic across drive modes. *)
let test_shootdown_seq_par_identical () =
  let a = build_shootdown ~munmap:true () in
  let b = build_shootdown ~munmap:true () in
  let oa = Smp.run ~parallel:false ~max_insns:60_000 a in
  let ob = Smp.run ~parallel:true ~max_insns:60_000 b in
  check_bool "outcomes identical" true (oa = ob);
  check_bool "digests identical" true (Smp.digests a = Smp.digests b);
  check_bool "traces identical" true
    (Smp.merged_trace a = Smp.merged_trace b)

(* ------------------------------------------------------------------ *)
(* ICC_SGI1R_EL1 routing across >= 3 cores: targeted SGIs follow the
   target list; the IRM bit (bit 40) broadcasts to every core except
   the sender, ignoring the target list. *)

let test_sgi_irm_broadcast () =
  let d = Gic.create_dist () in
  let cpus = List.init 3 (fun _ -> Gic.attach_cpu d) in
  Gic.set_group_enable d true;
  List.iter
    (fun c ->
      Gic.unmask c;
      Gic.enable c 5;
      Gic.set_priority c 5 0x80)
    cpus;
  let c0, c1, c2 =
    match cpus with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let drain c = match Gic.signaled c with
    | Some i -> ignore (Gic.acknowledge c); Gic.eoi c i; true
    | None -> false
  in
  (* Targeted: core 0 -> core 2 only. *)
  Gic.write_sgi1r c0 ((5 lsl 24) lor 0b100);
  check_bool "targeted: not self" false (drain c0);
  check_bool "targeted: not core 1" false (drain c1);
  check_bool "targeted: core 2" true (drain c2);
  (* Broadcast (IRM, bit 40): core 1 -> everyone but core 1, even with
     a target list naming only the sender. *)
  Gic.write_sgi1r c1 ((1 lsl 40) lor (5 lsl 24) lor 0b010);
  check_bool "irm: core 0" true (drain c0);
  check_bool "irm: never self" false (drain c1);
  check_bool "irm: core 2" true (drain c2)

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshot/restore: capture a 2-core machine mid-run,
   finish it, restore, finish again — and compare against a machine
   that ran uninterrupted. *)

let test_snapshot_restore_run () =
  let build () = build_compute ~cores:2 ~quantum:2_000 ~iters:500 () in
  let a = build () in
  (match Smp.run ~max_insns:2_000 a with
  | os when List.for_all (fun (_, o) -> o = Kernel.Limit_reached) os -> ()
  | os -> Alcotest.failf "expected mid-run stop, got %s" (outcomes_str os));
  let img = Smp.capture a in
  let o1 = Smp.run a in
  let d1 = Smp.digests a in
  Smp.restore a img;
  let o2 = Smp.run a in
  let d2 = Smp.digests a in
  Smp.release a img;
  check_bool "restored run: same outcomes" true (o1 = o2);
  check_bool "restored run: same digests" true (d1 = d2);
  let c = build () in
  let oc = Smp.run c in
  check_bool "uninterrupted run: same outcomes" true (o1 = oc);
  check_bool "uninterrupted run: same digests" true (d1 = Smp.digests c)

(* The image holds each process's output too: a machine restored to
   an image taken before a write prints nothing, and running it again
   prints the write once, not on top of the abandoned timeline's. *)
let test_snapshot_rewinds_output () =
  let t = Smp.create ~cores:2 ~quantum:2_000 () in
  let procs =
    List.init 2 (fun i ->
        let kernel = Kernel.create (Smp.slot_machine t i) Kernel.Host_vhe in
        let proc = Kernel.create_process kernel in
        ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
        ignore
          (Kernel.map_anon kernel proc ~at:(stack_top - 0x10000)
             ~len:0x10000 Vma.rw);
        Kernel.write_user kernel proc ~va:data_va
          (Bytes.of_string (Printf.sprintf "core %d\n" i));
        Kernel.load_program kernel proc ~va:code_va
          Insn.
            [ Movz (0, 1, 0); Movz (1, data_va lsr 16, 16); Movz (2, 7, 0);
              Movz (8, Kernel.Nr.write, 0); Svc 0;
              Movz (8, Kernel.Nr.exit, 0); Movz (0, 0, 0); Svc 0 ];
        Smp.assign ~pool:16 t i kernel proc ~entry:code_va ~sp:stack_top;
        proc)
  in
  let outputs () =
    List.map (fun p -> Buffer.contents p.Proc.output) procs
  in
  let check what want =
    Alcotest.(check (list string)) what want (outputs ())
  in
  let img = Smp.capture t in
  ignore (Smp.run t);
  check "first run" [ "core 0\n"; "core 1\n" ];
  Smp.restore t img;
  check "restored" [ ""; "" ];
  ignore (Smp.run t);
  check "run again" [ "core 0\n"; "core 1\n" ];
  Smp.release t img

(* ------------------------------------------------------------------ *)
(* Two cores running the Table 5 gate workload concurrently (shared
   zone, two threads via Kmod.new_thread, interleaved slices): each
   core's tracer reports ~100% span coverage over its own cycles, the
   per-core gate-pass counts don't bleed into each other, and each
   core's PMU counts exactly its own retired instructions. *)

let test_table5_two_cores () =
  let dataA = 0x600000 and dataB = 0x601000 in
  let stack0 = 0x7F0000000000 and stack1 = 0x7F0000020000 in
  Api.next_vmid := 0x2600;
  let machine = Machine.create () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore
    (Kernel.map_anon kernel proc ~at:(stack0 - 0x10000) ~len:0x10000 Vma.rw);
  ignore
    (Kernel.map_anon kernel proc ~at:(stack1 - 0x10000) ~len:0x10000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:dataA ~len:0x2000 Vma.rw);
  let t0 =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va ~sp:stack0
      kernel proc
  in
  let p1 = Api.lz_alloc t0 and p2 = Api.lz_alloc t0 in
  (* A gate holds a single legal return entry, so each thread gets its
     own gate pair onto the same two domains: thread 0 uses gates 0/1,
     thread 1 uses gates 2/3. *)
  Api.lz_map_gate_pgt t0 ~pgt:p1 ~gate:0;
  Api.lz_map_gate_pgt t0 ~pgt:p2 ~gate:1;
  Api.lz_map_gate_pgt t0 ~pgt:p1 ~gate:2;
  Api.lz_map_gate_pgt t0 ~pgt:p2 ~gate:3;
  Api.lz_prot t0 ~addr:dataA ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t0 ~addr:dataB ~len:4096 ~pgt:p2
    ~perm:(Perm.read lor Perm.write);
  let tr0 = Trace.create ~capacity:16384 () in
  Api.set_tracer t0 (Some tr0);
  (* Two routines in one code region: [iters] switch-store passes
     through gate 0 then gate 1 per iteration, distinct counts per
     thread so attribution mistakes are visible as count bleed. *)
  let sites = ref [] in
  let b = Builder.create ~base:code_va in
  let routine ~gates:(ga, gb) ~iters ~mark =
    let entry = Builder.here b in
    Builder.emit b [ Insn.Movz (20, iters, 0) ];
    let loop = Builder.here b in
    Builder.switch_gate b ~gate:ga;
    sites := (ga, Builder.here b) :: !sites;
    Builder.mov_imm64 b 0 dataA;
    Builder.emit b [ Insn.Movz (1, mark, 0); Insn.Str (1, 0, 0) ];
    Builder.switch_gate b ~gate:gb;
    sites := (gb, Builder.here b) :: !sites;
    Builder.mov_imm64 b 0 dataB;
    Builder.emit b [ Insn.Str (1, 0, 0) ];
    Builder.emit b [ Insn.Subs (20, 20, Insn.Imm 1) ];
    Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
    Builder.emit b [ Insn.Brk 0 ];
    entry
  in
  let iters0 = 40 and iters1 = 60 in
  let entry0 = routine ~gates:(0, 1) ~iters:iters0 ~mark:1 in
  let entry1 = routine ~gates:(2, 3) ~iters:iters1 ~mark:2 in
  Api.load_and_register t0 b ~va:code_va;
  check_int "thread 0 entry" code_va entry0;
  let t1 = Kmod.new_thread t0 ~entry:entry1 ~sp:stack1 in
  let tr1 = Trace.create ~capacity:16384 () in
  Kmod.set_tracer t1 (Some tr1);
  (* Gate_exit markers land in whichever tracer is attached at
     registration; re-register thread 1's return sites (same legal
     entries, so the gate table is unchanged) to add them to tr1. *)
  List.iter
    (fun (gate, entry) ->
      if gate >= 2 then Kmod.register_gate_entry t1 ~gate ~entry)
    (List.rev !sites);
  let pmu0 = Core.attach_pmu t0.Kmod.core
  and pmu1 = Core.attach_pmu t1.Kmod.core in
  List.iter
    (fun p ->
      Pmu.write_evtyper p ~cycles:0 ~insns:0 0 Pmu.Event.inst_retired;
      Pmu.write_cntenset p ~cycles:0 ~insns:0 1;
      Pmu.write_pmcr p ~cycles:0 ~insns:0 1)
    [ pmu0; pmu1 ];
  (* Interleave: alternate short slices; rebinding the tracer before
     each slice points the (thread-shared) TLB at the running core's
     tracer, so flush attribution follows execution. *)
  let handles = [| t0; t1 |] and trs = [| tr0; tr1 |] in
  let outs = [| None; None |] in
  let steps = ref 0 in
  while Array.exists (( = ) None) outs && !steps < 4_000 do
    incr steps;
    for i = 0 to 1 do
      if outs.(i) = None then begin
        Core.set_tracer handles.(i).Kmod.core (Some trs.(i));
        match Kmod.run ~max_insns:600 handles.(i) with
        | Kmod.Limit_reached -> ()
        | o -> outs.(i) <- Some o
      end
    done
  done;
  Array.iteri
    (fun i o ->
      match o with
      | Some (Kmod.Exited 0) -> ()
      | Some o -> Alcotest.failf "thread %d: %a" i Kmod.pp_outcome o
      | None -> Alcotest.failf "thread %d never finished" i)
    outs;
  let report i tr =
    let core = handles.(i).Kmod.core in
    Span.of_trace ~total_cycles:core.Core.cycles tr
  in
  let r0 = report 0 tr0 and r1 = report 1 tr1 in
  check_int "thread 0: no dropped events" 0 r0.Span.dropped;
  check_int "thread 1: no dropped events" 0 r1.Span.dropped;
  check_bool "thread 0: full span coverage" true (r0.Span.coverage >= 0.999);
  check_bool "thread 1: full span coverage" true (r1.Span.coverage >= 0.999);
  let count (r : Span.report) name =
    try (List.find (fun (x : Span.row) -> x.Span.name = name) r.Span.rows)
          .Span.count
    with Not_found -> 0
  in
  (* No cross-core bleed: each tracer counts exactly its own thread's
     gate passes (2 per iteration), not the union. *)
  check_int "thread 0 gate.switch count" (2 * iters0)
    (count r0 "gate.switch");
  check_int "thread 1 gate.switch count" (2 * iters1)
    (count r1 "gate.switch");
  check_int "thread 0 gate.check count" (2 * iters0) (count r0 "gate.check");
  check_int "thread 1 gate.check count" (2 * iters1) (count r1 "gate.check");
  (* Per-core PMU: counter 0 (INST_RETIRED, enabled from 0) equals the
     core's own retired count — not the sum across cores. *)
  let retired i p =
    let core = handles.(i).Kmod.core in
    Pmu.read_evcntr p ~cycles:core.Core.cycles ~insns:core.Core.insns 0
  in
  check_int "thread 0 PMU counts own instructions"
    (t0.Kmod.core.Core.insns land 0xFFFFFFFF)
    (retired 0 pmu0);
  check_int "thread 1 PMU counts own instructions"
    (t1.Kmod.core.Core.insns land 0xFFFFFFFF)
    (retired 1 pmu1);
  check_bool "the two cores did different amounts of work" true
    (t0.Kmod.core.Core.insns <> t1.Kmod.core.Core.insns)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lz_smp"
    [ ( "determinism",
        [ q prop_seq_par_identical; q prop_engine_differential ] );
      ( "shootdown",
        [ Alcotest.test_case "stale TLB until DVM completion" `Quick
            test_shootdown_stale_tlb;
          Alcotest.test_case "control: no munmap, no fault" `Quick
            test_shootdown_control;
          Alcotest.test_case "storm deterministic seq vs par" `Quick
            test_shootdown_seq_par_identical ] );
      ( "gic",
        [ Alcotest.test_case "irm broadcast vs targeted" `Quick
            test_sgi_irm_broadcast ] );
      ( "snapshot",
        [ Alcotest.test_case "capture/restore/run" `Quick
            test_snapshot_restore_run;
          Alcotest.test_case "restore rewinds output" `Quick
            test_snapshot_rewinds_output ] );
      ( "table5",
        [ Alcotest.test_case "two cores, per-core attribution" `Quick
            test_table5_two_cores ] ) ]
