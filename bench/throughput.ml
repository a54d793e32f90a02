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

   LZ_BENCH_ITERS overrides the iteration count (default 300_000);
   `--smoke` runs a small count just to prove the harness works.

   `--check [FILE]` (default BENCH_throughput.json) additionally reads
   the previous results before overwriting them and exits 1 if any
   workload's fast-engine MIPS — or its block_speedup over the
   per-insn engine — regressed by more than the tolerance (20%,
   LZ_BENCH_TOLERANCE overrides), or if nginx misses its absolute
   floors (block_speedup >= 1.5, avg_block_len >= 10: the trace-tree
   formation gains must not silently reopen). Baselines taken at a
   different iteration count are skipped — smoke and full runs are
   not comparable — and the absolute floors only apply to full-size
   runs, where timing noise is amortized. *)

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
   width).  A mismatch means counter drift — fail loudly. *)
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

let cross_check name core p ~c0 ~i0 =
  let cycles = core.Core.cycles and insns = core.Core.insns in
  let ev_insns = Pmu.read_evcntr p ~cycles ~insns 0 in
  let ev_cycles = Pmu.read_evcntr p ~cycles ~insns 1 in
  let ccntr = Pmu.read_ccntr p ~cycles in
  let want_insns = (insns - i0) land mask32 in
  let want_cycles = (cycles - c0) land mask32 in
  if ev_insns <> want_insns then begin
    Printf.eprintf
      "throughput: %s: PMU INST_RETIRED %d disagrees with core.insns %d\n"
      name ev_insns want_insns;
    exit 1
  end;
  if ev_cycles <> want_cycles || ccntr <> cycles - c0 then begin
    Printf.eprintf
      "throughput: %s: PMU CPU_CYCLES %d / PMCCNTR %d disagree with \
       core.cycles %d\n"
      name ev_cycles ccntr (cycles - c0);
    exit 1
  end

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

(* JSON cannot carry nan (empty-run ratios). *)
let num x = if Float.is_nan x then 0. else x

(* ------------------------------------------------------------------ *)
(* Baseline parsing for --check: just enough string scanning to pull
   "iters" and each workload's fast-engine "mips" back out of the JSON
   this program writes — no JSON dependency. *)

let str_index s pat ~from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else go (i + 1)
  in
  if from >= n then None else go from

let number_after s ~from =
  let n = String.length s in
  let rec skip i =
    if i < n && (s.[i] = ' ' || s.[i] = '\n') then skip (i + 1) else i
  in
  let start = skip from in
  let rec stop i =
    if i < n
       && (match s.[i] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false)
    then stop (i + 1)
    else i
  in
  let fin = stop start in
  if fin = start then None
  else float_of_string_opt (String.sub s start (fin - start))

let baseline_iters json =
  match str_index json "\"iters\":" ~from:0 with
  | None -> None
  | Some at -> Option.map int_of_float (number_after json ~from:at)

(* The fast object is emitted first per workload, so the first "mips"
   after the workload key is the fast engine's; likewise the first
   occurrence of any per-workload scalar key belongs to that
   workload. *)
let baseline_field json name key =
  match str_index json (Printf.sprintf "\"workload\": %S" name) ~from:0 with
  | None -> None
  | Some at -> (
      match str_index json (Printf.sprintf "%S:" key) ~from:at with
      | None -> None
      | Some at -> number_after json ~from:at)

let baseline_fast_mips json name = baseline_field json name "mips"
let baseline_block_speedup json name = baseline_field json name "block_speedup"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" argv in
  let check =
    let rec find = function
      | "--check" :: path :: _ when String.length path > 0 && path.[0] <> '-'
        -> Some path
      | "--check" :: _ -> Some "BENCH_throughput.json"
      | _ :: tl -> find tl
      | [] -> None
    in
    find argv
  in
  let iters =
    match Sys.getenv_opt "LZ_BENCH_ITERS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ ->
            Printf.eprintf
              "throughput: LZ_BENCH_ITERS must be a positive integer, got %S\n"
              s;
            exit 2)
    | None -> if smoke then 5_000 else 300_000
  in
  (* Read the baseline before overwriting it. *)
  let baseline =
    match check with
    | Some path when Sys.file_exists path -> Some (path, read_file path)
    | Some path ->
        Printf.printf "throughput: no baseline %s yet, writing one\n%!" path;
        None
    | None -> None
  in
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
          (100. *. num (Fastpath.hit_rate fast.blk))
          (num (Fastpath.avg_block_len fast.blk))
          (100. *. num (Fastpath.chain_ratio fast.blk))
          fast.blk.Fastpath.side_exits fast.blk.Fastpath.depth_max
          fast.blk.Fastpath.retrains;
        Printf.printf
          "         traced: %8.2f MIPS   per-insn %8.2f MIPS   (%.2fx over \
           per-insn)\n%!"
          traced.mips traced_insn.mips traced_speedup;
        (name, fast, insn, slow, traced, traced_insn, speedup, blk_speedup,
         traced_speedup))
      Microbench.names
  in
  let json =
    let item
        (name, fast, insn, slow, traced, traced_insn, speedup, blk_speedup,
         traced_speedup) =
      Printf.sprintf
        {|    { "workload": %S, "insns": %d,
      "fast": { "seconds": %.6f, "mips": %.3f,
        "blk_hit_rate": %.4f, "avg_block_len": %.2f, "chain_ratio": %.4f,
        "side_exits": %d, "folds": %d, "depth_max": %d, "retrains": %d },
      "fast_per_insn": { "seconds": %.6f, "mips": %.3f },
      "slow": { "seconds": %.6f, "mips": %.3f },
      "traced": { "seconds": %.6f, "mips": %.3f },
      "traced_per_insn": { "seconds": %.6f, "mips": %.3f },
      "speedup": %.3f, "block_speedup": %.3f, "traced_block_speedup": %.3f }|}
        name fast.insns fast.seconds fast.mips
        (num (Fastpath.hit_rate fast.blk))
        (num (Fastpath.avg_block_len fast.blk))
        (num (Fastpath.chain_ratio fast.blk))
        fast.blk.Fastpath.side_exits fast.blk.Fastpath.folds
        fast.blk.Fastpath.depth_max fast.blk.Fastpath.retrains
        insn.seconds insn.mips slow.seconds slow.mips
        traced.seconds traced.mips traced_insn.seconds traced_insn.mips
        speedup blk_speedup traced_speedup
    in
    Printf.sprintf
      "{\n  \"bench\": \"throughput\",\n  \"iters\": %d,\n  \"results\": \
       [\n%s\n  ]\n}\n"
      iters
      (String.concat ",\n"
         (List.map item results))
  in
  let out = open_out "BENCH_throughput.json" in
  output_string out json;
  close_out out;
  Printf.printf "wrote BENCH_throughput.json\n%!";
  match baseline with
  | None -> ()
  | Some (path, base) -> (
      match baseline_iters base with
      | Some bi when bi <> iters ->
          Printf.printf
            "throughput: baseline %s ran %d iters, this run %d — check \
             skipped\n%!"
            path bi iters
      | _ ->
          let tolerance =
            match Sys.getenv_opt "LZ_BENCH_TOLERANCE" with
            | Some s -> (
                match float_of_string_opt s with
                | Some f when f > 0. && f < 1. -> f
                | _ ->
                    Printf.eprintf
                      "throughput: LZ_BENCH_TOLERANCE must be in (0,1), got \
                       %S\n"
                      s;
                    exit 2)
            | None -> 0.20
          in
          let regressed =
            List.concat_map
              (fun (name, fast, _, _, _, _, _, blk_speedup, _) ->
                let against key now = function
                  | None ->
                      Printf.printf
                        "throughput: %s %s not in baseline %s, skipped\n%!"
                        name key path;
                      []
                  | Some m0 when now < (1. -. tolerance) *. m0 ->
                      [ (name, key, now, m0) ]
                  | Some _ -> []
                in
                against "mips" fast.mips (baseline_fast_mips base name)
                @ against "block_speedup" blk_speedup
                    (baseline_block_speedup base name))
              results
          in
          (* Absolute floors (full-size runs only, where best-of-reps
             has amortized host noise): the nginx trace-tree gains
             must not silently reopen. *)
          let floors =
            if iters < 100_000 then []
            else
              List.concat_map
                (fun (name, fast, _, _, _, _, _, blk_speedup, _) ->
                  if name <> "nginx" then []
                  else
                    let len = num (Fastpath.avg_block_len fast.blk) in
                    (if blk_speedup < 1.5 then
                       [ (name, "block_speedup floor 1.5", blk_speedup, 1.5) ]
                     else [])
                    @
                    if len < 10. then
                      [ (name, "avg_block_len floor 10", len, 10.) ]
                    else [])
                results
          in
          if regressed = [] && floors = [] then
            Printf.printf "throughput: --check ok (within %.0f%% of %s)\n%!"
              (100. *. tolerance) path
          else begin
            List.iter
              (fun (name, key, now, m0) ->
                Printf.eprintf
                  "throughput: %s %s regressed: %.3f vs baseline %.3f \
                   (-%.0f%%)\n"
                  name key now m0 (100. *. (1. -. (now /. m0))))
              regressed;
            List.iter
              (fun (name, what, now, want) ->
                Printf.eprintf "throughput: %s below %s: %.3f < %.3f\n" name
                  what now want)
              floors;
            exit 1
          end)
