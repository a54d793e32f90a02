(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 1, 4, 5; Figures 3, 4, 5; the Section 9
   memory-overhead numbers and the Section 7.2 penetration tests).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table4  # one artifact
     dune exec bench/main.exe -- quick   # reduced iteration counts
     dune exec bench/main.exe -- bechamel  # wall-clock micro-measurements

   Measured numbers come from the simulator; the paper's numbers are
   printed alongside. Do not expect exact equality — the goal is the
   shape: who wins, by what factor, where the crossovers are. *)

let quick = ref false

let hr title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)

let table1 () =
  hr "Table 1: in-process isolation frameworks for ARM64 (qualitative)";
  Format.printf "%-32s %-18s %-42s %-8s %s@." "Framework" "Scalability"
    "Efficiency" "Security" "PCB";
  List.iter
    (fun r ->
      Format.printf "%-32s %-18s %-42s %-8s %s@." r.Lz_eval.Table1.name
        r.Lz_eval.Table1.scalability r.Lz_eval.Table1.efficient
        (if r.Lz_eval.Table1.secure then "yes" else "NO")
        r.Lz_eval.Table1.pcb)
    (Lz_eval.Table1.rows ())

let table4 () =
  hr "Table 4: cycles spent on empty trap-and-return roundtrips";
  List.iter
    (fun cm ->
      Format.printf "@.-- %s --@." (Lz_cpu.Cost_model.name cm);
      Format.printf "%-50s %15s %15s@." "" "measured" "paper";
      List.iter2
        (fun r (_, carmel, a55) ->
          let plo, phi =
            if cm.Lz_cpu.Cost_model.platform = Lz_cpu.Cost_model.Carmel then
              carmel
            else a55
          in
          let show lo hi =
            if lo = hi then Printf.sprintf "%d" lo
            else Printf.sprintf "%d~%d" lo hi
          in
          Format.printf "%-50s %15s %15s@." r.Lz_eval.Trap_bench.label
            (show r.Lz_eval.Trap_bench.lo r.Lz_eval.Trap_bench.hi)
            (show plo phi))
        (Lz_eval.Trap_bench.table cm)
        Lz_eval.Trap_bench.paper)
    Lz_cpu.Cost_model.all

(* The paper's three Table 5 configurations: cost model, environment
   and the label [Switch_bench.paper_table5] is keyed by. *)
let table5_configs =
  [ (Lz_cpu.Cost_model.carmel, Lz_eval.Switch_bench.Host, "Carmel Host");
    (Lz_cpu.Cost_model.carmel, Lz_eval.Switch_bench.Guest, "Carmel Guest");
    (Lz_cpu.Cost_model.cortex_a55, Lz_eval.Switch_bench.Host, "Cortex") ]

let table5 () =
  hr "Table 5: average cycles per domain switch (with secure call gate)";
  let iterations = if !quick then 1_000 else 10_000 in
  List.iter
    (fun (cm, env, label) ->
      let paper = List.assoc label Lz_eval.Switch_bench.paper_table5 in
      Format.printf "@.-- %s --@." label;
      Format.printf "%8s %24s %24s@." "domains" "Watchpoint meas/paper"
        "LightZone meas/paper";
      List.iter2
        (fun (d, wp, lz) (_, pwp, plz) ->
          let s = function
            | Some v -> Printf.sprintf "%.0f" v
            | None -> "-"
          in
          Format.printf "%8d %12s /%10s %12s /%10s@." d (s wp) (s pwp) (s lz)
            (s plz))
        (Lz_eval.Switch_bench.table5 ~iterations cm env)
        paper)
    table5_configs

(* table5 --preempt: the 128-domain Table 5 workload under the
   preemptive timer. The generic timer fires PPI 30 every [slice]
   cycles through the GIC, preempting the zone at the EL2 module
   boundary; asynchronous delivery must be architecturally invisible,
   so the run must end bit-identical (registers, memory, retired
   instructions, zone tables) to the cooperative run. *)
let table5_preempt () =
  hr "Table 5 preemptive smoke: 128 domains under the timer tick";
  let iterations = if !quick then 500 else 2_000 in
  let slice = 5_000 in
  let failures = ref 0 in
  List.iter
    (fun (cm, env, label) ->
      let coop =
        Lz_eval.Switch_bench.traced_run cm ~env ~domains:128 ~n:iterations
      in
      let pre =
        Lz_eval.Switch_bench.traced_run ~preempt:slice cm ~env ~domains:128
          ~n:iterations
      in
      let ok = coop.Lz_eval.Switch_bench.digest
               = pre.Lz_eval.Switch_bench.digest in
      if not ok then incr failures;
      Format.printf
        "-- %s --@.  %d preemptions (slice %d cycles), %d -> %d cycles@."
        label pre.Lz_eval.Switch_bench.preemptions slice
        coop.Lz_eval.Switch_bench.total_cycles
        pre.Lz_eval.Switch_bench.total_cycles;
      Format.printf "  trace span coverage: %.1f%%@."
        (100. *. pre.Lz_eval.Switch_bench.report.Lz_trace.Span.coverage);
      Format.printf "  architectural state: %s@."
        (if ok then "bit-identical to cooperative run"
         else
           Printf.sprintf "MISMATCH (%s vs %s)"
             coop.Lz_eval.Switch_bench.digest pre.Lz_eval.Switch_bench.digest))
    table5_configs;
  if !failures > 0 then begin
    Format.printf "@.verdict: FAILURE (%d configuration(s) diverged)@."
      !failures;
    exit 1
  end
  else Format.printf "@.verdict: preemption is architecturally invisible@."

let pp_series label paper_loss series =
  Format.printf "@.-- %s --@." label;
  let paper = try List.assoc label paper_loss with Not_found -> [] in
  List.iter
    (fun s ->
      let mech = s.Lz_eval.Figures.mech in
      let p =
        match List.assoc_opt mech paper with
        | Some v -> Printf.sprintf "%.2f%%" v
        | None -> "-"
      in
      Format.printf "  %-16s loss %6.2f%% (paper %s)  [%s]@."
        (Lz_eval.Profiles.mech_name mech)
        s.Lz_eval.Figures.loss_pct p
        (String.concat " "
           (List.map
              (fun (x, y) -> Printf.sprintf "%d:%.0f" x y)
              s.Lz_eval.Figures.points)))
    series

let fig3 () =
  hr "Figure 3: Nginx throughput (1 worker, 1 KiB file; x = concurrency)";
  let requests = if !quick then 500 else 10_000 in
  List.iter
    (fun s ->
      pp_series s.Lz_eval.Figures.label Lz_eval.Figures.paper_fig3_loss
        (Lz_eval.Figures.fig3 ~requests s))
    Lz_eval.Figures.settings

let fig4 () =
  hr "Figure 4: MySQL OLTP throughput (10 tables x 10k rows; x = threads)";
  let transactions = if !quick then 200 else 2_000 in
  List.iter
    (fun s ->
      pp_series s.Lz_eval.Figures.label Lz_eval.Figures.paper_fig4_loss
        (Lz_eval.Figures.fig4 ~transactions s))
    Lz_eval.Figures.settings

let fig5 () =
  hr "Figure 5: NVM data-structure overhead (x = 2 MiB buffers, y = %)";
  let operations = if !quick then 20_000 else 200_000 in
  List.iter
    (fun s ->
      Format.printf "@.-- %s --@." s.Lz_eval.Figures.label;
      let paper =
        try List.assoc s.Lz_eval.Figures.label Lz_eval.Figures.paper_fig5_loss
        with Not_found -> []
      in
      List.iter
        (fun sr ->
          let mech = sr.Lz_eval.Figures.mech in
          let p =
            match List.assoc_opt mech paper with
            | Some v -> Printf.sprintf "%.2f%%" v
            | None -> "-"
          in
          Format.printf
            "  %-16s overhead@16buf %6.2f%% (paper avg %s)  [%s]@."
            (Lz_eval.Profiles.mech_name mech)
            sr.Lz_eval.Figures.loss_pct p
            (String.concat " "
               (List.map
                  (fun (x, y) -> Printf.sprintf "%d:%.1f" x y)
                  sr.Lz_eval.Figures.points)))
        (Lz_eval.Figures.fig5 ~operations s))
    Lz_eval.Figures.settings

let memory () =
  hr "Section 9: memory overheads";
  Format.printf "%-28s %10s %18s %18s %18s@." "application" "baseline"
    "fragmentation" "PAN tables" "TTBR tables";
  List.iter
    (fun r ->
      Format.printf
        "%-28s %7.1fMiB %7.1f%% (p %4.1f%%) %7.1f%% (p %4.1f%%) %7.1f%% (p %4.1f%%)@."
        r.Lz_eval.Memory_eval.app r.Lz_eval.Memory_eval.baseline_mib
        r.Lz_eval.Memory_eval.fragmentation_pct
        r.Lz_eval.Memory_eval.paper_fragmentation_pct
        r.Lz_eval.Memory_eval.pan_tables_pct r.Lz_eval.Memory_eval.paper_pan_pct
        r.Lz_eval.Memory_eval.ttbr_tables_pct
        r.Lz_eval.Memory_eval.paper_ttbr_pct)
    (Lz_eval.Memory_eval.all Lz_cpu.Cost_model.cortex_a55)

let ablation () =
  hr "Ablations: the design choices, with vs without";
  List.iter
    (fun cm ->
      Format.printf "@.-- %s --@." (Lz_cpu.Cost_model.name cm);
      List.iter
        (fun r ->
          Format.printf "  %-58s %10.0f vs %10.0f %s@."
            r.Lz_eval.Ablation.what r.Lz_eval.Ablation.with_opt
            r.Lz_eval.Ablation.without_opt r.Lz_eval.Ablation.unit_)
        (Lz_eval.Ablation.rows cm))
    Lz_cpu.Cost_model.all

let pentest () =
  hr "Section 7.2: penetration tests (128 protected domains)";
  let domains = if !quick then 16 else 128 in
  let rs = Lz_eval.Pentest.run_all ~domains Lz_cpu.Cost_model.cortex_a55 in
  List.iter
    (fun r ->
      Format.printf "  [%s] %-52s %s@.        -> %s@."
        (if r.Lz_eval.Pentest.prevented then "STOPPED" else "allowed")
        r.Lz_eval.Pentest.attack r.Lz_eval.Pentest.mechanism
        r.Lz_eval.Pentest.detail)
    rs;
  Format.printf "@.verdict: %s@."
    (if Lz_eval.Pentest.all_prevented rs then
       "all LightZone defenses held; PANIC fell to W+X aliasing (as the paper argues)"
     else "UNEXPECTED: some defense failed")

(* trace: each configuration's 128-domain Table 5 run with the tracer
   attached, its cycle attribution written to BENCH_table5_trace.json.
   Exits 1 unless every run's spans cover at least 99.9% of its cycles
   and the ring dropped no event: an attribution with gaps or drops
   misstates where the cycles went. *)
let trace () =
  hr "Trace: Table 5 cycle attribution (BENCH_table5_trace.json)";
  let iterations = if !quick then 500 else 2_000 in
  let failures = ref 0 in
  let entries =
    List.map
      (fun (cm, env, label) ->
        let r =
          Lz_eval.Switch_bench.traced_run cm ~env ~domains:128 ~n:iterations
        in
        let report = r.Lz_eval.Switch_bench.report in
        if report.Lz_trace.Span.coverage < 0.999
           || report.Lz_trace.Span.dropped > 0
        then incr failures;
        Format.printf "@.-- %s (128 domains, %d switches) --@." label
          iterations;
        Format.printf "%a@." Lz_trace.Span.pp_report report;
        Printf.sprintf "  %S: %s" label
          (Lz_trace.Span.report_to_json report))
      table5_configs
  in
  let oc = open_out "BENCH_table5_trace.json" in
  Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" entries);
  close_out oc;
  Format.printf "@.wrote BENCH_table5_trace.json@.";
  if !failures > 0 then begin
    Format.printf
      "@.verdict: FAILURE (%d configuration(s) below 99.9%% span coverage \
       or dropping events)@."
      !failures;
    exit 1
  end
  else
    Format.printf
      "@.verdict: every configuration's spans cover >= 99.9%% of its \
       cycles, no events dropped@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-measurements: one Test.make per table /
   figure, each benchmarking that experiment's hot path. *)

let bechamel () =
  hr "Bechamel: wall-clock cost of each experiment's hot path";
  let open Bechamel in
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let t1 =
    Test.make ~name:"table1-sanitizer-scan"
      (Staged.stage
         (let phys = Lz_mem.Phys.create () in
          let pa = Lz_mem.Phys.alloc_frame phys in
          fun () ->
            ignore
              (Lightzone.Sanitizer.scan_page Lightzone.Sanitizer.Ttbr_mode
                 phys ~pa)))
  in
  let t4 =
    Test.make ~name:"table4-host-syscall-path"
      (Staged.stage (fun () ->
           ignore (Lz_eval.Trap_bench.host_user_to_el2 cm)))
  in
  let t5 =
    Test.make ~name:"table5-gate-switch-run"
      (Staged.stage (fun () ->
           ignore
             (Lz_eval.Switch_bench.measure cm
                ~env:Lz_eval.Switch_bench.Host
                ~mechanism:Lz_eval.Switch_bench.Lz_ttbr ~domains:4
                ~iterations:256 ())))
  in
  let key = Lz_workloads.Aes.expand_key "0123456789abcdef" in
  let buf = Bytes.make 16 'x' in
  let f3 =
    Test.make ~name:"fig3-aes-block"
      (Staged.stage (fun () -> Lz_workloads.Aes.encrypt_block key buf ~pos:0))
  in
  let heap = Lz_workloads.Mysql_sim.Hp_ptrs.create () in
  let h = Lz_workloads.Mysql_sim.Hp_ptrs.alloc heap (Bytes.make 64 'r') in
  let f4 =
    Test.make ~name:"fig4-hp-ptrs-read"
      (Staged.stage (fun () ->
           ignore (Lz_workloads.Mysql_sim.Hp_ptrs.read heap h)))
  in
  let f5 =
    Test.make ~name:"fig5-nvm-search"
      (Staged.stage
         (let p =
            { Lz_workloads.Nvm_bench.default_params with
              Lz_workloads.Nvm_bench.buffers = 2;
              operations = 50 }
          in
          let iso = Lz_workloads.Iso_profile.vanilla ~syscall_cycles:300. in
          fun () -> ignore (Lz_workloads.Nvm_bench.run cm ~iso p)))
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] -> Format.printf "  %-28s %14.0f ns/run@." name est
          | _ -> Format.printf "  %-28s (no estimate)@." name)
        ols)
    [ t1; t4; t5; f3; f4; f5 ]

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table4 ();
  table5 ();
  fig3 ();
  fig4 ();
  fig5 ();
  memory ();
  ablation ();
  pentest ()

let preempt = ref false

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter
      (fun a ->
        if a = "quick" || a = "--quick" then begin
          quick := true;
          false
        end
        else if a = "preempt" || a = "--preempt" then begin
          preempt := true;
          false
        end
        else true)
      args
  in
  match args with
  | [] -> all ()
  | cmds ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table4" -> table4 ()
          | "table5" -> if !preempt then table5_preempt () else table5 ()
          | "fig3" -> fig3 ()
          | "fig4" -> fig4 ()
          | "fig5" -> fig5 ()
          | "memory" -> memory ()
          | "ablation" -> ablation ()
          | "pentest" -> pentest ()
          | "trace" -> trace ()
          | "bechamel" -> bechamel ()
          | "all" -> all ()
          | c ->
              Format.printf
                "unknown command %s (try table1|table4|table5|fig3|fig4|fig5|memory|ablation|pentest|trace|bechamel|quick)@."
                c)
        cmds
