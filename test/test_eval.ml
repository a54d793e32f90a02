(* Integration tests over the evaluation harness: the measured Table 4
   and Table 5 values must stay within tolerance of the paper, the
   figures must preserve the paper's ordering, and the penetration
   tests must all come out as the paper claims. *)

let check_bool = Alcotest.(check bool)

let within pct ~paper measured =
  let p = float_of_int paper and m = float_of_int measured in
  abs_float (m -. p) /. p <= pct

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let test_table4_calibration () =
  List.iter
    (fun cm ->
      let rows = Lz_eval.Trap_bench.table cm in
      List.iter2
        (fun r (label, carmel, a55) ->
          let plo, phi =
            if cm.Lz_cpu.Cost_model.platform = Lz_cpu.Cost_model.Carmel then
              carmel
            else a55
          in
          check_bool
            (Printf.sprintf "%s %s lo" (Lz_cpu.Cost_model.name cm) label)
            true
            (within 0.15 ~paper:plo r.Lz_eval.Trap_bench.lo);
          check_bool
            (Printf.sprintf "%s %s hi" (Lz_cpu.Cost_model.name cm) label)
            true
            (within 0.15 ~paper:phi r.Lz_eval.Trap_bench.hi))
        rows Lz_eval.Trap_bench.paper)
    Lz_cpu.Cost_model.all

(* The calibration check above allows 15% either way; these are the
   exact simulated Table 4 rows, (lo, hi) in table order, so a change
   to any trap path's cycle charges shows. *)
let test_table4_exact () =
  List.iter
    (fun (cm, expected) ->
      let got =
        List.map
          (fun r -> (r.Lz_eval.Trap_bench.lo, r.Lz_eval.Trap_bench.hi))
          (Lz_eval.Trap_bench.table cm)
      in
      Alcotest.(check (list (pair int int)))
        (Lz_cpu.Cost_model.name cm) expected got)
    [ ( Lz_cpu.Cost_model.carmel,
        [ (3803, 3803); (1433, 1433); (3373, 3373); (29403, 32903);
          (28594, 28594); (1600, 1600); (1115, 1115) ] );
      ( Lz_cpu.Cost_model.cortex_a55,
        [ (303, 303); (289, 289); (537, 537); (1854, 2204); (1294, 1294);
          (88, 88); (37, 37) ] ) ]

(* Golden simulated outputs: the tolerance checks above would let
   the reproduction's figures drift by a few percent unnoticed, so
   two Table 5 runs are pinned exactly: the host module path and the
   Lowvisor-forwarded guest path. Both execute the same program, so
   only their cycle counts differ. A change to these values is a
   change to the cost model or the simulated semantics and must be
   deliberate. *)
let test_table5_golden () =
  List.iter
    (fun (cm, env, cycles) ->
      let r =
        Lz_eval.Switch_bench.run_lz_full cm ~env
          ~mech:(Lz_eval.Switch_bench.Mech Lz_eval.Switch_bench.Lz_ttbr)
          ~domains:128 ~n:1000
      in
      let core = r.Lz_eval.Switch_bench.t.Lightzone.Kmod.core in
      let check_int what =
        Alcotest.(check int) (Lz_cpu.Cost_model.name cm ^ " " ^ what)
      in
      check_int "cycles" cycles core.Lz_cpu.Core.cycles;
      check_int "insns" 46291 core.Lz_cpu.Core.insns;
      check_int "tlb hits" 52984 (Lz_mem.Tlb.hits core.Lz_cpu.Core.tlb);
      check_int "tlb misses" 438 (Lz_mem.Tlb.misses core.Lz_cpu.Core.tlb);
      check_int "kmod traps" 141
        r.Lz_eval.Switch_bench.t.Lightzone.Kmod.traps;
      Alcotest.(check string)
        "zone digest" "26ea2a392237faf10fb6e3370d23b592"
        (Lz_eval.Switch_bench.zone_digest r.Lz_eval.Switch_bench.t))
    [ (Lz_cpu.Cost_model.cortex_a55, Lz_eval.Switch_bench.Host, 264352);
      (Lz_cpu.Cost_model.carmel, Lz_eval.Switch_bench.Guest, 4758230) ]

(* The preempted 128-domain runs of [bench/main.exe table5 --preempt
   quick] (500 switches, a tick every 5,000 cycles), pinned exactly:
   each tick stops the zone at the EL2 module boundary and runs
   [Kmod.handle_irq]'s GIC service, so these totals pin that path's
   charges. Preemption must leave the architectural digest equal to
   the cooperative run's. *)
let test_table5_preempt_golden () =
  List.iter
    (fun (cm, env, label, coop_cycles, preemptions, cycles) ->
      let run ?preempt () =
        Lz_eval.Switch_bench.traced_run ?preempt cm ~env ~domains:128 ~n:500
      in
      let coop = run () and pre = run ~preempt:5_000 () in
      let check_int what = Alcotest.(check int) (label ^ " " ^ what) in
      check_int "cooperative cycles" coop_cycles
        coop.Lz_eval.Switch_bench.total_cycles;
      check_int "preemptions" preemptions pre.Lz_eval.Switch_bench.preemptions;
      check_int "preempted cycles" cycles pre.Lz_eval.Switch_bench.total_cycles;
      Alcotest.(check string)
        (label ^ " digest") coop.Lz_eval.Switch_bench.digest
        pre.Lz_eval.Switch_bench.digest)
    [ ( Lz_cpu.Cost_model.carmel, Lz_eval.Switch_bench.Host, "Carmel Host",
        795_800, 168, 1_230_920 );
      ( Lz_cpu.Cost_model.carmel, Lz_eval.Switch_bench.Guest, "Carmel Guest",
        4_339_380, 169, 4_777_090 );
      ( Lz_cpu.Cost_model.cortex_a55, Lz_eval.Switch_bench.Host, "Cortex",
        177_228, 34, 184_164 ) ]

(* The call gate's MSR TTBR0_EL1, ISB and MRS run inside one block, so
   a warm 128-domain slice enters 4 blocks per switch (main loop,
   access function up to the gate call, gate, access function tail)
   plus 3 for the program's prologue and exit, and the dispatcher's
   full interrupt polls do not grow with the switch count. Slices of
   50 and 100 switches take no demand faults once warm, so their
   polls are only the run's first and the exit trap's. *)
let test_table5_blocks_per_switch () =
  let warm_slice n =
    let r =
      Lz_eval.Switch_bench.prepare Lz_cpu.Cost_model.cortex_a55
        ~env:Lz_eval.Switch_bench.Host ~domains:128 ~n
    in
    let t = r.Lz_eval.Switch_bench.t in
    let fp = t.Lightzone.Kmod.core.Lz_cpu.Core.fp in
    Lz_cpu.Core.set_engine t.Lightzone.Kmod.core Lz_cpu.Core.Blocks;
    let rec warm budget =
      Lz_cpu.Fastpath.reset_stats fp;
      Lz_eval.Switch_bench.run_slice t;
      if (Lz_cpu.Fastpath.stats fp).Lz_cpu.Fastpath.blk_builds > 0 then
        if budget = 0 then Alcotest.fail "blocks still building"
        else warm (budget - 1)
    in
    warm 8;
    Lz_cpu.Fastpath.reset_stats fp;
    Lz_eval.Switch_bench.run_slice t;
    Lz_cpu.Fastpath.stats fp
  in
  let check_int = Alcotest.(check int) in
  let a = warm_slice 50 and b = warm_slice 100 in
  check_int "entries, 50 switches" ((4 * 50) + 3) a.Lz_cpu.Fastpath.blk_entries;
  check_int "entries, 100 switches" ((4 * 100) + 3)
    b.Lz_cpu.Fastpath.blk_entries;
  check_int "polls, 50 switches" 2 a.Lz_cpu.Fastpath.polls;
  check_int "polls, 100 switches" 2 b.Lz_cpu.Fastpath.polls

let test_lz_trap_beats_host_on_carmel () =
  (* The paper's headline: the Section 5.2 optimization makes a
     LightZone syscall cheaper than a host syscall on Carmel. *)
  let cm = Lz_cpu.Cost_model.carmel in
  check_bool "lz < host on carmel" true
    (Lz_eval.Trap_bench.lz_to_host_el2 cm
    < Lz_eval.Trap_bench.host_user_to_el2 cm);
  (* ... and more expensive on the A55, where traps are cheap. *)
  let a = Lz_cpu.Cost_model.cortex_a55 in
  check_bool "lz > host on a55" true
    (Lz_eval.Trap_bench.lz_to_host_el2 a
    > Lz_eval.Trap_bench.host_user_to_el2 a)

(* ------------------------------------------------------------------ *)
(* Table 5 *)

let test_table5_orderings () =
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let m mech d =
    Lz_eval.Switch_bench.measure cm ~env:Lz_eval.Switch_bench.Host
      ~mechanism:mech ~domains:d ~iterations:600 ()
  in
  let pan = m Lz_eval.Switch_bench.Lz_pan 1 in
  let ttbr = m Lz_eval.Switch_bench.Lz_ttbr 8 in
  let wp = m Lz_eval.Switch_bench.Wp_ioctl 8 in
  let lwc = m Lz_eval.Switch_bench.Lwc_switch 8 in
  check_bool "pan is a few cycles" true (pan < 30.);
  check_bool "pan << ttbr" true (pan *. 3. < ttbr);
  check_bool "ttbr << wp (trap-free wins)" true (ttbr *. 3. < wp);
  check_bool "wp < lwc" true (wp < lwc)

let test_table5_scales_past_16 () =
  (* LightZone keeps working at 128 domains where Watchpoint cannot
     even be configured. *)
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let v =
    Lz_eval.Switch_bench.measure cm ~env:Lz_eval.Switch_bench.Host
      ~mechanism:Lz_eval.Switch_bench.Lz_ttbr ~domains:128 ~iterations:600 ()
  in
  check_bool "128 domains functional and fast" true (v < 400.)

(* ------------------------------------------------------------------ *)
(* Figures *)

let setting =
  { Lz_eval.Figures.cm = Lz_cpu.Cost_model.cortex_a55;
    env = Lz_eval.Switch_bench.Host;
    label = "Cortex Host" }

let loss series mech =
  let s = List.find (fun s -> s.Lz_eval.Figures.mech = mech) series in
  s.Lz_eval.Figures.loss_pct

let test_fig3_ordering () =
  let series = Lz_eval.Figures.fig3 ~requests:200 setting in
  let pan = loss series Lz_eval.Profiles.Lz_pan in
  let ttbr = loss series Lz_eval.Profiles.Lz_ttbr in
  let wp = loss series Lz_eval.Profiles.Wp in
  let lwc = loss series Lz_eval.Profiles.Lwc in
  check_bool "pan < ttbr" true (pan < ttbr);
  check_bool "ttbr < wp" true (ttbr < wp);
  check_bool "wp < lwc" true (wp < lwc);
  check_bool "pan under 2%" true (pan < 2.0);
  check_bool "lwc over 8%" true (lwc > 8.0)

let test_fig5_shape () =
  let series = Lz_eval.Figures.fig5 ~operations:10_000 setting in
  let pan = loss series Lz_eval.Profiles.Lz_pan in
  let ttbr = loss series Lz_eval.Profiles.Lz_ttbr in
  check_bool "pan near zero" true (pan < 1.0);
  check_bool "ttbr small" true (ttbr < 8.0);
  (* Watchpoint series must stop at 16 buffers. *)
  let wp =
    List.find (fun s -> s.Lz_eval.Figures.mech = Lz_eval.Profiles.Wp) series
  in
  check_bool "wp capped at 16" true
    (List.for_all (fun (x, _) -> x <= 16) wp.Lz_eval.Figures.points)

(* ------------------------------------------------------------------ *)
(* Memory + Table 1 + pentest *)

let test_memory_shapes () =
  List.iter
    (fun r ->
      check_bool
        (r.Lz_eval.Memory_eval.app ^ ": TTBR tables cost more than PAN")
        true
        (r.Lz_eval.Memory_eval.ttbr_tables_pct
        > r.Lz_eval.Memory_eval.pan_tables_pct);
      check_bool
        (r.Lz_eval.Memory_eval.app ^ ": PAN tables cheap")
        true
        (r.Lz_eval.Memory_eval.pan_tables_pct < 5.0))
    (Lz_eval.Memory_eval.all Lz_cpu.Cost_model.cortex_a55)

(* The Section 9 rows exactly: every percentage is a frame count over
   a fixed page total, so any change to table accounting moves one. *)
let test_memory_rows () =
  Alcotest.(check (list string))
    "Section 9 rows"
    [ "Nginx (per-key domains): frag 2.0950 pan 0.7682 ttbr 13.8268";
      "MySQL (stacks + HP_PTRS): frag 0.0000 pan 0.2937 ttbr 7.4483";
      "NVM (2 MiB buffers): frag 0.0000 pan 0.2891 ttbr 1.3012" ]
    (List.map
       (fun (r : Lz_eval.Memory_eval.report) ->
         Printf.sprintf "%s: frag %.4f pan %.4f ttbr %.4f"
           r.Lz_eval.Memory_eval.app r.fragmentation_pct r.pan_tables_pct
           r.ttbr_tables_pct)
       (Lz_eval.Memory_eval.all Lz_cpu.Cost_model.cortex_a55))

(* Warm slices of the 128-domain Table 5 image still take a few stage-1
   faults. Each one maps one of the hot unprotected pages (main loop,
   the two access-function pages, the index array) into a table that
   never had it, and no mapping is ever removed: a table catches up on
   a global page once the TLB has evicted that page's global entry. *)
let hot_pages = [ 0x400000; 0x420000; 0x421000; 0x500000 ]

let hot_mappings (t : Lightzone.Kmod.t) =
  let mapped =
    Lightzone.Lz_table.mapped t.Lightzone.Kmod.machine.Lz_kernel.Machine.phys
      t.Lightzone.Kmod.fake
  in
  Lightzone.Zone_tab.fold
    (fun id tbl acc ->
      List.fold_left
        (fun acc va -> if mapped tbl ~va then (id, va) :: acc else acc)
        acc hot_pages)
    t.Lightzone.Kmod.pgts []

let warm_slice_faults ~n ~slices =
  let module Sb = Lz_eval.Switch_bench in
  let t =
    (Sb.prepare Lz_cpu.Cost_model.cortex_a55 ~env:Sb.Host ~domains:128 ~n)
      .Sb.t
  in
  let initial = hot_mappings t in
  let prev = ref initial in
  let faults =
    List.init slices (fun _ ->
        let f0 = t.Lightzone.Kmod.fault_traps in
        Sb.run_slice t;
        let now = hot_mappings t in
        let faults = t.Lightzone.Kmod.fault_traps - f0 in
        check_bool "no hot mapping is lost" true
          (List.for_all (fun m -> List.mem m now) !prev);
        Alcotest.(check int)
          "one new hot mapping per fault" faults
          (List.length now - List.length !prev);
        prev := now;
        faults)
  in
  (List.length initial, faults, List.length !prev)

let test_warm_slice_faults () =
  let check n want =
    Alcotest.(check (triple int (list int) int))
      (Printf.sprintf
         "hot mappings, faults per slice, hot mappings (%d-switch slices)" n)
      want
      (warm_slice_faults ~n ~slices:6)
  in
  check 100 (4, [ 0; 0; 0; 0; 0; 0 ], 4);
  check 200 (7, [ 0; 3; 2; 2; 3; 3 ], 20);
  check 300 (8, [ 4; 4; 4; 4; 4; 7 ], 35)

let test_table1_lightzone_row () =
  let rows = Lz_eval.Table1.rows () in
  let lz = List.find (fun r -> r.Lz_eval.Table1.name = "LightZone (this)") rows in
  check_bool "scalable" true lz.Lz_eval.Table1.scalable;
  check_bool "secure" true lz.Lz_eval.Table1.secure;
  Alcotest.(check string) "pcb" "yes" lz.Lz_eval.Table1.pcb;
  let panic = List.find (fun r -> r.Lz_eval.Table1.name = "PANIC") rows in
  check_bool "panic insecure" false panic.Lz_eval.Table1.secure

let test_pentest_all () =
  let rs = Lz_eval.Pentest.run_all ~domains:32 Lz_cpu.Cost_model.cortex_a55 in
  check_bool "all attacks handled as the paper claims" true
    (Lz_eval.Pentest.all_prevented rs);
  Alcotest.(check int) "eight scenarios" 8 (List.length rs)

let () =
  Alcotest.run "lz_eval"
    [ ( "table4",
        [ Alcotest.test_case "calibration vs paper" `Slow
            test_table4_calibration;
          Alcotest.test_case "exact rows" `Quick test_table4_exact;
          Alcotest.test_case "carmel headline" `Quick
            test_lz_trap_beats_host_on_carmel ] );
      ( "table5",
        [ Alcotest.test_case "golden 128-domain run" `Quick
            test_table5_golden;
          Alcotest.test_case "4 blocks per warm switch" `Quick
            test_table5_blocks_per_switch;
          Alcotest.test_case "orderings" `Slow test_table5_orderings;
          Alcotest.test_case "scales past 16" `Slow
            test_table5_scales_past_16;
          Alcotest.test_case "golden preempted runs" `Quick
            test_table5_preempt_golden ] );
      ( "figures",
        [ Alcotest.test_case "fig3 ordering" `Slow test_fig3_ordering;
          Alcotest.test_case "fig5 shape" `Slow test_fig5_shape ] );
      ( "others",
        [ Alcotest.test_case "memory shapes" `Quick test_memory_shapes;
          Alcotest.test_case "memory rows" `Quick test_memory_rows;
          Alcotest.test_case "warm-slice faults" `Quick test_warm_slice_faults;
          Alcotest.test_case "table1" `Quick test_table1_lightzone_row;
          Alcotest.test_case "pentest" `Quick test_pentest_all ] ) ]
