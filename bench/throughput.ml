(* Host-throughput benchmark for the execution engines.

   Runs each Microbench program three ways — superblock engine,
   per-instruction fast path, forced slow path — on the same iteration
   count, measures host wall-clock, and emits BENCH_throughput.json
   with MIPS (millions of simulated instructions per host second), the
   speedups and the block-cache statistics per workload.  A fourth and
   fifth timing measure the traced configurations (tracer attached,
   a PC marker on the code page — the worst case for block-aware
   tracing, since every block then runs per-insn marker checks) with
   and without blocks, reporting the traced block speedup.

   Runs 300_000 iterations; `--smoke` runs 5_000 just to prove the
   harness works.

   `--check` compares against the committed report of the same mode
   (Report): each workload's fast-engine MIPS and block_speedup over
   the per-insn engine are [Higher] metrics, the instruction count and
   block-cache statistics [Exact] ones. Every run requires the PMU
   counters to agree with the core's totals, and a full run requires
   nginx's absolute floors (block_speedup >= 1.5, avg_block_len >= 10:
   the trace-tree formation gains must not silently reopen); smoke
   runs are too short to amortize timing noise. *)

open Lz_workloads
module Core = Lz_cpu.Core
module Fastpath = Lz_cpu.Fastpath
module Pmu = Lz_arm.Pmu
module Trace = Lz_trace.Trace

type run = {
  insns : int;
  seconds : float;
  mips : float;
  blk : Fastpath.stats;
}

(* Program INST_RETIRED and CPU_CYCLES onto PMU counters before the
   run, then cross-check the architectural counter reads against the
   core's own insn/cycle totals: the PMU model must agree with the
   execution engine exactly (event counters modulo their 32-bit
   width).  A mismatch means counter drift: the run fails. *)
let arm_pmu core =
  let p = Core.attach_pmu core in
  let cycles = core.Core.cycles and insns = core.Core.insns in
  Pmu.write_evtyper p ~cycles ~insns 0 Pmu.Event.inst_retired;
  Pmu.write_evtyper p ~cycles ~insns 1 Pmu.Event.cpu_cycles;
  Pmu.write_cntenset p ~cycles ~insns
    ((1 lsl Pmu.cycle_counter_bit) lor 0b11);
  Pmu.write_pmcr p ~cycles ~insns 0b1;
  p

let mask32 = 0xFFFF_FFFF
let pmu_failures = ref []

let cross_check name core p ~c0 ~i0 =
  let cycles = core.Core.cycles and insns = core.Core.insns in
  let ev_insns = Pmu.read_evcntr p ~cycles ~insns 0 in
  let ev_cycles = Pmu.read_evcntr p ~cycles ~insns 1 in
  let ccntr = Pmu.read_ccntr p ~cycles in
  let want_insns = (insns - i0) land mask32 in
  let want_cycles = (cycles - c0) land mask32 in
  pmu_failures :=
    !pmu_failures
    @ Report.need (ev_insns = want_insns)
        "%s: PMU INST_RETIRED %d disagrees with core.insns %d" name ev_insns
        want_insns
    @ Report.need
        (ev_cycles = want_cycles && ccntr = cycles - c0)
        "%s: PMU CPU_CYCLES %d / PMCCNTR %d disagree with core.cycles %d" name
        ev_cycles ccntr (cycles - c0)

let time_once ?(traced = false) ~engine ~iters name =
  let env = Microbench.build ~engine ~iters name in
  let core = env.Microbench.core in
  if traced then begin
    (* Marker on the code page: every block in the program must run
       its per-insn marker checks — the conservative bound on what
       always-on observability costs the block engine. The marker
       itself sits on the prologue pc, so it fires exactly once and
       the ring never drops. *)
    let tr = Trace.create ~capacity:1024 () in
    Core.set_tracer core (Some tr);
    Trace.add_marker tr ~pc:Microbench.code_va (Trace.Syscall { nr = 0 })
  end;
  let p = arm_pmu core in
  let c0 = core.Core.cycles and i0 = core.Core.insns in
  let t0 = Unix.gettimeofday () in
  Microbench.run_to_brk env;
  let dt = Unix.gettimeofday () -. t0 in
  cross_check name core p ~c0 ~i0;
  let insns = env.Microbench.core.insns in
  { insns; seconds = dt; mips = float_of_int insns /. dt /. 1e6;
    blk = Fastpath.stats core.Core.fp }

(* Best-of-[reps] wall clock: host scheduling noise only ever slows a
   run down, so the fastest repetition is the most faithful one — and
   the one stable enough for the --check regression gate. *)
let time_run ?(reps = 1) ?(traced = false) ~engine ~iters name =
  let best = ref (time_once ~traced ~engine ~iters name) in
  for _ = 2 to reps do
    let r = time_once ~traced ~engine ~iters name in
    if r.mips > !best.mips then best := r
  done;
  !best

let () =
  let smoke, check = Report.flags ~check:true "throughput" in
  let iters = if smoke then 5_000 else 300_000 in
  let reps = if smoke then 1 else 3 in
  let results =
    List.map
      (fun name ->
        (* Warm the OCaml heap/code paths once before timing. *)
        ignore (time_run ~engine:Core.Blocks ~iters:1_000 name);
        let fast = time_run ~reps ~engine:Core.Blocks ~iters name in
        let insn = time_run ~reps ~engine:Core.Per_insn ~iters name in
        let slow = time_run ~reps ~engine:Core.Slow ~iters name in
        let traced =
          time_run ~reps ~traced:true ~engine:Core.Blocks ~iters name
        in
        let traced_insn =
          time_run ~reps ~traced:true ~engine:Core.Per_insn ~iters name
        in
        let b = fast.blk in
        let speedup = fast.mips /. slow.mips in
        let blk_speedup = fast.mips /. insn.mips in
        let traced_speedup = traced.mips /. traced_insn.mips in
        Printf.printf
          "%-8s %9d insns   fast %8.2f MIPS   per-insn %8.2f MIPS   slow \
           %8.2f MIPS   speedup %.2fx (%.2fx over per-insn)\n%!"
          name fast.insns fast.mips insn.mips slow.mips speedup blk_speedup;
        Printf.printf
          "         blocks: %5.1f%% cache hits   %4.1f insns/block   %5.1f%% \
           chained entries   %d side exits   depth %d   %d retrains\n%!"
          (100. *. Fastpath.hit_rate b) (Fastpath.avg_block_len b)
          (100. *. Fastpath.chain_ratio b)
          b.Fastpath.side_exits b.Fastpath.depth_max b.Fastpath.retrains;
        Printf.printf
          "         traced: %8.2f MIPS   per-insn %8.2f MIPS   (%.2fx over \
           per-insn)\n%!"
          traced.mips traced_insn.mips traced_speedup;
        let floors =
          if name <> "nginx" || smoke then []
          else
            Report.need (blk_speedup >= 1.5)
              "nginx block_speedup %.3f below its floor 1.5" blk_speedup
            @ Report.need
                (Fastpath.avg_block_len b >= 10.)
                "nginx avg_block_len %.2f below its floor 10"
                (Fastpath.avg_block_len b)
        in
        let open Report in
        let timed prefix r =
          [ float ~dp:6 Info (prefix ^ "seconds") r.seconds;
            float Info (prefix ^ "mips") r.mips ]
        in
        ( row name
            ([ float Higher "mips" fast.mips;
               float Higher "block_speedup" blk_speedup;
               int Exact "insns" fast.insns;
               float ~dp:4 Exact "blk_hit_rate" (Fastpath.hit_rate b);
               float ~dp:2 Exact "avg_block_len" (Fastpath.avg_block_len b);
               float ~dp:4 Exact "chain_ratio" (Fastpath.chain_ratio b);
               int Exact "side_exits" b.Fastpath.side_exits;
               int Exact "folds" b.Fastpath.folds;
               int Exact "depth_max" b.Fastpath.depth_max;
               int Exact "retrains" b.Fastpath.retrains;
               float ~dp:6 Info "seconds" fast.seconds ]
            @ timed "per_insn_" insn @ timed "slow_" slow
            @ timed "traced_" traced
            @ timed "traced_per_insn_" traced_insn
            @ [ float Info "speedup" speedup;
                float Info "traced_block_speedup" traced_speedup ]),
          floors ))
      Microbench.names
  in
  let rows, floors = List.split results in
  Report.finish ~check
    (Report.make ~bench:"throughput" ~smoke
       (Report.row "params" [ Report.int Report.Info "iters" iters ] :: rows))
    (List.sort_uniq compare !pmu_failures @ List.concat floors)
