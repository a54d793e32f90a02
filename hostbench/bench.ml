(* One benchmark run: a set-up, then a closed loop of seeded ops for a
   time window or a fixed op count, then more set-ups, then the
   metrics.

   The first set-up serves the ops. After the window, [setup_samples]
   batches of the workload's [setup_batch] set-ups are timed, and
   dropped; setup_s is the median batch's time per set-up. Every
   set-up's simulated state must digest identically. Op inputs come
   from the seed alone, generated before each op's clock starts. Host
   speed is calibrated between ops and before each set-up batch
   ([Host_speed]) so times can be reported at reference speed. In a
   traced run every even op is traced and every odd op is not, so the
   two halves give the tracing overhead without a second process. *)

module W = Workloads

type config = {
  workload : W.t;
  seed : int;
  seconds : float;
  ops : int option;  (** run exactly this many ops instead of [seconds]. *)
  trace : bool;
}

type result = {
  name : string;
  config : config;
  attempted : int;
  failed : int;
  first_setup_s : float;  (** wall time of the set-up that served the ops *)
  setups : int;  (** set-ups made, the first included *)
  setup_wall : float array;  (** per set-up wall time of each sample *)
  setup_ref : float array;  (** the same at reference host speed *)
  sim_digest : string;
  input_digest : string;
  window_s : float;
  window_ref_s : float;  (** the window at reference host speed *)
  ops : Reservoir.t;  (** per-op samples *)
  delta : W.counters;  (** counters over the timed ops *)
  log : Span_log.t;
  peak_rss_kb : int;  (** VmHWM after [min_ops] ops, or after all *)
}

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

(* A timed run goes on past its window until it has this many ops, so
   that ten samples lie beyond its 90th percentile. *)
let min_ops = 100

(* Set-up samples taken after the window; setup_s is their median. *)
let setup_samples = 9

let run cfg =
  let (W.W spec) = cfg.workload in
  let log = Span_log.create ~capacity:(if cfg.trace then 1 lsl 16 else 0) () in
  let k_setup = Span_log.kind log "harness.setup" in
  let k_op = Span_log.kind log "harness.op" in
  let digests = ref [] in
  (* One set-up. Every set-up, of every seed, draws from its own copy
     of one fixed stream, so it does the same simulated work: with a
     seeded stream, switch128's warm-up took 2-4 slices by seed. *)
  let setup () =
    log.Span_log.op <- -1;
    log.Span_log.on <- cfg.trace;
    let rng = Random.State.make [| 1 |] in
    Span_log.enter log k_setup;
    let s = spec.W.setup log rng in
    Span_log.leave log;
    log.Span_log.on <- false;
    let counts = List.map string_of_int (W.counter_list (spec.W.counters s)) in
    digests :=
      Digest.to_hex
        (Digest.string (spec.W.setup_digest s ^ " " ^ String.concat "," counts))
      :: !digests;
    s
  in
  let t0 = Span_log.now_ns () in
  let st = setup () in
  let first_setup_s = float_of_int (Span_log.now_ns () - t0) *. 1e-9 in
  (* Timed ops. *)
  let rng = Random.State.make [| cfg.seed; 2 |] in
  let ops = Reservoir.create ~seed:cfg.seed in
  let speed = Host_speed.create () in
  let failed = ref 0 and out = ref 0 and inh = ref 0 in
  let c0 = spec.W.counters st in
  let budget_ns = int_of_float (cfg.seconds *. 1e9) in
  let start = Span_log.now_ns () in
  (* [paused]: calibration, kept off the window's clock. *)
  let paused = ref 0 and last = ref start in
  let elapsed () = !last - start - !paused in
  let ref_ns = ref 0. and counted = ref 0 in
  let continue i =
    match cfg.ops with
    | Some n -> i < n
    | None -> i < min_ops || elapsed () < budget_ns
  in
  (* The high-water mark after [min_ops] ops, a fixed amount of work:
     fuzz's creeps up through a run, so read at the window's end it
     would grow with the ops a faster host or simulator fits in. *)
  let peak_kb = ref 0 in
  let i = ref 0 in
  while continue !i do
    paused := !paused + Host_speed.refresh speed;
    let input = spec.W.gen rng in
    inh := W.fold !inh (spec.W.input_hash input);
    log.Span_log.op <- !i;
    log.Span_log.on <- cfg.trace && !i land 1 = 0;
    let t0 = Span_log.now_ns () in
    Span_log.enter log k_op;
    let r = spec.W.op log st input in
    Span_log.leave log;
    let t1 = Span_log.now_ns () in
    log.Span_log.on <- false;
    (* The window at reference speed: this op and the harness time
       since the previous one, over the current scale. *)
    let k = speed.Host_speed.slowdown in
    let active = t1 - start - !paused in
    ref_ns :=
      !ref_ns +. (float_of_int (active - !counted) /. Host_speed.scale k);
    counted := active;
    Reservoir.add ops ~op:!i ~ns:(t1 - t0) ~insns:r.W.op_insns ~slowdown:k;
    if not r.W.ok then incr failed;
    out := W.fold !out r.W.out;
    last := t1;
    incr i;
    if !i = min_ops then peak_kb := peak_rss_kb ()
  done;
  if !i < min_ops then peak_kb := peak_rss_kb ();
  let window_s = float_of_int (elapsed ()) *. 1e-9 in
  let delta = W.diff (spec.W.counters st) c0 in
  (* Set-up samples: from a collected heap, [setup_batch] set-ups back
     to back, timed together, so that each sample lasts some hundreds
     of milliseconds; calibrated just before. *)
  let batch = spec.W.setup_batch in
  let setup_wall = Array.make setup_samples 0. in
  let setup_ref = Array.make setup_samples 0. in
  for j = 0 to setup_samples - 1 do
    Gc.compact ();
    Host_speed.recalibrate speed;
    let t0 = Span_log.now_ns () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (setup ()))
    done;
    let s =
      float_of_int (Span_log.now_ns () - t0) *. 1e-9 /. float_of_int batch
    in
    setup_wall.(j) <- s;
    setup_ref.(j) <- s /. Host_speed.scale speed.Host_speed.slowdown
  done;
  let attempted = !i in
  let setup_digest = List.hd !digests in
  (* A set-up digest mismatch or a failed whole-run check fails every
     op of the run. *)
  let failed =
    if List.for_all (String.equal setup_digest) !digests
       && spec.W.final_check ~ops:!i delta
    then !failed
    else attempted
  in
  let sim_digest =
    Digest.to_hex
      (Digest.string (Printf.sprintf "%s %d %x" setup_digest attempted !out))
  in
  {
    name = spec.W.name;
    config = cfg;
    attempted;
    failed;
    first_setup_s;
    setups = List.length !digests;
    setup_wall;
    setup_ref;
    sim_digest;
    input_digest = Printf.sprintf "%016x" (!inh land max_int);
    window_s;
    window_ref_s = !ref_ns *. 1e-9;
    ops;
    delta;
    log;
    peak_rss_kb = !peak_kb;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* Quantile by linear interpolation between closest ranks. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let s = Array.copy a in
    Array.sort compare s;
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (f *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

(* The end-to-end metrics. By default (what the result line reports)
   times are at reference host speed; [~raw:true] gives wall time. *)
let end_to_end ?(raw = false) r =
  let o = r.ops in
  let k i = if raw then 1. else Host_speed.scale o.Reservoir.slowdown.(i) in
  let lat_us =
    Array.init o.Reservoir.n (fun i -> fi o.Reservoir.ns.(i) /. 1e3 /. k i)
  in
  let window = if raw then r.window_s else r.window_ref_s in
  [
    m "setup_s" "s" (median (if raw then r.setup_wall else r.setup_ref));
    m "mips" "MIPS" (ratio (fi r.delta.W.insns) window /. 1e6);
    m "ops_per_s" "1/s" (ratio (fi r.attempted) window);
    m "op_p50_us" "us" (quantile lat_us 0.5);
    m "op_p90_us" "us" (quantile lat_us 0.9);
    m "peak_rss_mb" "MiB" (fi r.peak_rss_kb /. 1024.);
  ]

(* Reference-speed latencies of the traced (even) or untraced ops of a
   traced run. *)
let half r ~traced =
  let o = r.ops in
  let acc = ref [] in
  for i = 0 to o.Reservoir.n - 1 do
    if (o.Reservoir.op.(i) land 1 = 0) = traced then
      acc :=
        (fi o.Reservoir.ns.(i) /. Host_speed.scale o.Reservoir.slowdown.(i))
        :: !acc
  done;
  Array.of_list !acc

let fuzz_kind_names =
  Array.to_list (Array.map Lz_fuzz.Fuzz_case.kind_name W.Fuzz.kinds)

(* Layers whose self time the spans measure inside ops. *)
let layers = [ "lightzone"; "lz_kernel"; "lz_cpu"; "lz_fuzz" ]

(* The per-layer metrics: span times are wall time, counters are
   exact. *)
let per_layer r =
  let log = r.log in
  let d = r.delta in
  let ops = fi (max 1 r.attempted) in
  let op_t = Span_log.ops_totals log in
  let mean_us (t : Span_log.totals) =
    ratio (fi t.Span_log.total_ns) (fi t.Span_log.count) /. 1e3
  in
  let setup_us name = mean_us (Span_log.setup_totals log name) in
  let run = op_t "lightzone.run" in
  let cases =
    List.map (fun k -> op_t ("lz_fuzz.run_case." ^ k)) fuzz_kind_names
  in
  let sum f = List.fold_left (fun a t -> a +. f t) 0. cases in
  let case_count = sum (fun t -> fi t.Span_log.count) in
  let op_total = fi (op_t "harness.op").Span_log.total_ns in
  let self_pct ns = 100. *. ratio ns op_total in
  let by_layer = Span_log.ops_self_by_layer log in
  let layer_self l = fi (try List.assoc l by_layer with Not_found -> 0) in
  let traced = half r ~traced:true and untraced = half r ~traced:false in
  [
    m "lightzone.run.ns_per_insn" "ns/insn"
      (ratio (fi run.Span_log.total_ns) (fi run.Span_log.insns));
    m "lightzone.run.minor_words_per_insn" "words/insn"
      (ratio run.Span_log.minor_words (fi run.Span_log.insns));
    m "lightzone.run.us_per_call" "us" (mean_us run);
    m "lz_cpu.insns_per_block" "insns"
      (ratio (fi d.W.blk_insns) (fi d.W.blk_entries));
    m "lz_cpu.chain_ratio" "ratio"
      (ratio (fi d.W.chain_follows) (fi d.W.blk_entries));
    m "lz_cpu.block_hit_rate" "ratio"
      (ratio (fi d.W.blk_hits) (fi d.W.blk_entries));
    m "lz_cpu.block_builds_per_op" "count" (fi d.W.blk_builds /. ops);
    m "lz_cpu.sim_insns_per_op" "insns" (fi d.W.insns /. ops);
    m "lz_cpu.sim_cycles_per_op" "cycles" (fi d.W.cycles /. ops);
    m "lz_mem.tlb_misses_per_op" "count" (fi d.W.tlb_misses /. ops);
    m "lz_mem.tlb_hit_rate" "ratio"
      (ratio (fi d.W.tlb_hits) (fi (d.W.tlb_hits + d.W.tlb_misses)));
    m "lz_mem.phys_unshares_per_op" "count" (fi d.W.phys_unshares /. ops);
    m "lz_mem.phys_store_slots" "count" (fi d.W.phys_store_slots);
    m "lightzone.lz_alloc.us" "us" (mean_us (op_t "lightzone.lz_alloc"));
    m "lightzone.lz_map_gate_pgt.us" "us"
      (mean_us (op_t "lightzone.lz_map_gate_pgt"));
    m "lightzone.lz_free.us" "us" (mean_us (op_t "lightzone.lz_free"));
    m "lightzone.traps_per_op" "count" (fi d.W.traps /. ops);
    m "lightzone.fault_traps_per_op" "count" (fi d.W.fault_traps /. ops);
    m "lightzone.asid_rollovers_per_op" "count" (fi d.W.asid_rollovers /. ops);
    m "lightzone.asid_recycled_per_op" "count" (fi d.W.asid_recycled /. ops);
    m "lightzone.load_and_register.us" "us"
      (setup_us "lightzone.load_and_register");
    m "lz_kernel.machine_create.us" "us" (setup_us "lz_kernel.machine_create");
    m "lz_kernel.populate.us" "us" (setup_us "lz_kernel.populate");
    m "lz_eval.prepare.us" "us" (setup_us "lz_eval.prepare");
    m "lz_fuzz.oracle_create.us" "us" (setup_us "lz_fuzz.oracle_create");
  ]
  @ List.map2
      (fun k t -> m ("lz_fuzz.run_case." ^ k ^ ".us") "us" (mean_us t))
      fuzz_kind_names cases
  @ [
      m "lz_fuzz.run_case.promoted_words" "words"
        (ratio (sum (fun t -> t.Span_log.promoted_words)) case_count);
      m "lz_fuzz.run_case.major_gcs" "count"
        (ratio (sum (fun t -> fi t.Span_log.major_gcs)) case_count);
      m "lz_fuzz.events_per_case" "count"
        (ratio (fi d.W.fuzz_events) (fi d.W.fuzz_cases));
      m "lz_fuzz.image_rebuilds_per_op" "count" (fi d.W.image_rebuilds /. ops);
    ]
  @ List.map (fun l -> m (l ^ ".self_pct") "%" (self_pct (layer_self l))) layers
  @ [
      m "harness.self_pct" "%"
        (self_pct (fi (op_t "harness.op").Span_log.self_ns));
      m "harness.trace_overhead_pct" "%"
        (100. *. (ratio (median traced) (median untraced) -. 1.));
    ]

(* ------------------------------------------------------------------ *)
(* Host stamp *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (String.trim s)

(* The checkout's git revision, read from .git without running git;
   "unknown" outside a git work tree. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match read_file (Filename.concat ".git" r) with
        | Some rev -> rev
        | None -> (
            match read_file ".git/packed-refs" with
            | None -> "unknown"
            | Some packed ->
                List.fold_left
                  (fun acc l ->
                    match String.split_on_char ' ' l with
                    | [ rev; name ] when name = r -> rev
                    | _ -> acc)
                  "unknown"
                  (String.split_on_char '\n' packed))
      else head

let stamp r =
  [
    ("workload", Printf.sprintf "%S" r.name);
    ("seed", string_of_int r.config.seed);
    ("ops", string_of_int r.attempted);
    ("setups", string_of_int r.setups);
    ("first_setup_s", Printf.sprintf "%.4f" r.first_setup_s);
    ("trace", string_of_bool r.config.trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
    ("git_rev", Printf.sprintf "%S" (git_rev ()));
    ("host_slowdown",
     Printf.sprintf "%.4f"
       (median (Array.sub r.ops.Reservoir.slowdown 0 r.ops.Reservoir.n)));
  ]
