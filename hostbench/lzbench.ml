(* Host-time benchmark: the command line.

     lzbench --workload <switch128|churn4096|fuzz> --seed <n>
             --seconds <s> --trace <0|1> [--ops <n>]

   Runs one workload for [--seconds] of timed ops (or exactly [--ops]
   ops), prints a human-readable report, a JSON report line with the
   host stamp and sim_digest, and, as the last line, the result:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans are also written to _hostbench/. *)

let usage () =
  Printf.eprintf
    "usage: lzbench --workload <%s> --seed <n> --seconds <s> --trace <0|1> \
     [--ops <n>]\n"
    (String.concat "|" Hostbench.Workloads.names);
  exit 2

let parse argv =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
        go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k kv in
  let int k = Option.map (fun v -> try int_of_string v with _ -> usage ()) (get k) in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "ops" ])
      then usage ())
    kv;
  let workload =
    match Option.bind (get "workload") Hostbench.Workloads.find with
    | Some w -> w
    | None -> usage ()
  in
  let seconds =
    match get "seconds" with
    | Some s -> ( try float_of_string s with _ -> usage ())
    | None -> 10.
  in
  let trace =
    match get "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  {
    Hostbench.Bench.workload;
    seed = Option.value (int "seed") ~default:1;
    seconds;
    ops = int "ops";
    trace;
  }

(* JSON has no nan or infinity. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (x : Hostbench.Bench.metric) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}"
           x.Hostbench.Bench.m_name (num x.value) x.unit_)
       ms)

let write_trace (r : Hostbench.Bench.result) layer =
  let dir = "_hostbench" in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d.trace.jsonl" r.name r.config.seed)
  in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    let log = r.log in
    Printf.fprintf oc "{\"stamp\": {%s}, \"stored_spans\": %d, \"dropped_spans\": %d}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v)
            (Hostbench.Bench.stamp r)))
      log.Hostbench.Span_log.nspans log.Hostbench.Span_log.dropped;
    Hostbench.Span_log.write_spans log oc;
    for i = 0 to log.Hostbench.Span_log.nkinds - 1 do
      let k = log.Hostbench.Span_log.kinds.(i) in
      List.iter
        (fun (phase, (t : Hostbench.Span_log.totals)) ->
          if t.count > 0 then
            Printf.fprintf oc
              "{\"totals\": %S, \"phase\": %S, \"count\": %d, \"total_ns\": \
               %d, \"self_ns\": %d, \"minor_words\": %.0f, \
               \"promoted_words\": %.0f, \"major_gcs\": %d, \"insns\": %d}\n"
              k.name phase t.count t.total_ns t.self_ns t.minor_words
              t.promoted_words t.major_gcs t.insns)
        [ ("setup", k.in_setup); ("ops", k.in_ops) ]
    done;
    Printf.fprintf oc "{\"per_layer\": {%s}}\n" (metrics_json layer);
    close_out oc;
    Printf.printf "hostbench: spans written to %s\n" path
  with Sys_error e -> Printf.eprintf "hostbench: trace not written: %s\n" e

let () =
  let cfg = parse Sys.argv in
  let r =
    try Hostbench.Bench.run cfg
    with e ->
      Printf.eprintf "hostbench: run failed: %s\n" (Printexc.to_string e);
      exit 1
  in
  let e2e = Hostbench.Bench.end_to_end r in
  let wall = Hostbench.Bench.end_to_end ~raw:true r in
  let layer = Hostbench.Bench.per_layer r in
  let stamp = Hostbench.Bench.stamp r in
  List.iter (fun (k, v) -> Printf.printf "hostbench: %-10s %s\n" k v) stamp;
  Printf.printf "hostbench: sim_digest %s  input_digest %s\n" r.sim_digest
    r.input_digest;
  Printf.printf "hostbench: set-up samples (s per set-up, wall) %s\n"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setup_wall)));
  Printf.printf "hostbench: %d ops attempted, %d failed, %.2f s window\n"
    r.attempted r.failed r.window_s;
  List.iter2
    (fun (x : Hostbench.Bench.metric) (w : Hostbench.Bench.metric) ->
      Printf.printf "hostbench: %-38s %14.4f %-5s (wall time: %.4f)\n"
        x.m_name x.value x.unit_ w.value)
    e2e wall;
  if cfg.trace then
    List.iter
      (fun (x : Hostbench.Bench.metric) ->
        Printf.printf "hostbench: %-38s %14.4f %s\n" x.m_name x.value x.unit_)
      layer;
  if cfg.trace then write_trace r layer;
  let correct = r.failed = 0 in
  Printf.printf
    "{\"report\": {%s, \"sim_digest\": %S, \"input_digest\": %S, \
     \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"end_to_end\": \
     {%s}, \"wall_end_to_end\": {%s}%s}}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) stamp))
    r.sim_digest r.input_digest correct r.attempted r.failed
    (metrics_json e2e) (metrics_json wall)
    (if cfg.trace then
       Printf.sprintf ", \"per_layer\": {%s}" (metrics_json layer)
     else "");
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (metrics_json (if cfg.trace then layer else e2e))
