(* lzctl — ad-hoc driver for the LightZone reproduction.

     lzctl traps   [--platform carmel|cortex]
     lzctl switch  [--platform ...] [--env host|guest] [--mech pan|ttbr|wp|lwc]
                   [--domains N] [--iterations N]
     lzctl pentest [--domains N]
     lzctl profile [--platform ...] [--env ...]
     lzctl trace   summary|top-spans|export [--platform ...] [--env ...]
                   [--domains N] [--iterations N] [--top K] [--out FILE]

   The bench executable regenerates the full paper artifacts; lzctl is
   for poking at one configuration at a time. *)

open Cmdliner

let platform_conv =
  Arg.enum
    [ ("carmel", Lz_cpu.Cost_model.carmel);
      ("cortex", Lz_cpu.Cost_model.cortex_a55) ]

let env_conv =
  Arg.enum
    [ ("host", Lz_eval.Switch_bench.Host);
      ("guest", Lz_eval.Switch_bench.Guest) ]

let mech_conv =
  Arg.enum
    [ ("pan", Lz_eval.Switch_bench.Lz_pan);
      ("ttbr", Lz_eval.Switch_bench.Lz_ttbr);
      ("wp", Lz_eval.Switch_bench.Wp_ioctl);
      ("lwc", Lz_eval.Switch_bench.Lwc_switch) ]

let platform =
  Arg.(value & opt platform_conv Lz_cpu.Cost_model.cortex_a55
       & info [ "platform"; "p" ] ~doc:"carmel or cortex")

let env =
  Arg.(value & opt env_conv Lz_eval.Switch_bench.Host
       & info [ "env"; "e" ] ~doc:"host or guest")

let traps_cmd =
  let run cm =
    Format.printf "Table 4 trap costs on %s:@." (Lz_cpu.Cost_model.name cm);
    List.iter
      (fun r ->
        Format.printf "  %-50s %d%s@." r.Lz_eval.Trap_bench.label
          r.Lz_eval.Trap_bench.lo
          (if r.Lz_eval.Trap_bench.hi <> r.Lz_eval.Trap_bench.lo then
             Printf.sprintf "~%d" r.Lz_eval.Trap_bench.hi
           else ""))
      (Lz_eval.Trap_bench.table cm)
  in
  Cmd.v (Cmd.info "traps" ~doc:"measure the Table 4 trap roundtrips")
    Term.(const run $ platform)

let switch_cmd =
  let domains =
    Arg.(value & opt int 8 & info [ "domains"; "d" ] ~doc:"domain count")
  in
  let iterations =
    Arg.(value & opt int 2000 & info [ "iterations"; "n" ] ~doc:"switches")
  in
  let mech =
    Arg.(value & opt mech_conv Lz_eval.Switch_bench.Lz_ttbr
         & info [ "mech"; "m" ] ~doc:"pan, ttbr, wp or lwc")
  in
  let run cm env mech domains iterations =
    let v =
      Lz_eval.Switch_bench.measure cm ~env ~mechanism:mech ~domains
        ~iterations ()
    in
    Format.printf "%.1f cycles per switch+access@." v
  in
  Cmd.v (Cmd.info "switch" ~doc:"measure one domain-switch configuration")
    Term.(const run $ platform $ env $ mech $ domains $ iterations)

let pentest_cmd =
  let domains =
    Arg.(value & opt int 128 & info [ "domains"; "d" ] ~doc:"domain count")
  in
  let run cm domains =
    let rs = Lz_eval.Pentest.run_all ~domains cm in
    List.iter
      (fun r ->
        Format.printf "[%s] %s (%s)@.    %s@."
          (if r.Lz_eval.Pentest.prevented then "STOPPED" else "allowed")
          r.Lz_eval.Pentest.attack r.Lz_eval.Pentest.mechanism
          r.Lz_eval.Pentest.detail)
      rs;
    if Lz_eval.Pentest.all_prevented rs then
      Format.printf "verdict: as expected@."
    else begin
      Format.printf "verdict: FAILURE@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "pentest" ~doc:"run the Section 7.2 penetration tests")
    Term.(const run $ platform $ domains)

let trace_cmd =
  let domains =
    Arg.(value & opt int 128 & info [ "domains"; "d" ] ~doc:"domain count")
  in
  let iterations =
    Arg.(value & opt int 2000 & info [ "iterations"; "n" ] ~doc:"switches")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~doc:"spans to show")
  in
  let out =
    Arg.(value & opt string "trace.jsonl"
         & info [ "out"; "o" ] ~doc:"JSONL output file (export)")
  in
  let action =
    Arg.(value & pos 0 (enum [ ("summary", `Summary);
                               ("top-spans", `Top_spans);
                               ("export", `Export) ]) `Summary
         & info [] ~docv:"ACTION" ~doc:"summary, top-spans or export")
  in
  let run cm env action domains iterations top out =
    let r =
      Lz_eval.Switch_bench.traced_run cm ~env ~domains ~n:iterations
    in
    match action with
    | `Summary ->
        Format.printf "%d domains, %d switches, %d cycles@." r.domains
          r.switches r.total_cycles;
        Format.printf "%a@." Lz_trace.Span.pp_report r.report
    | `Top_spans ->
        List.iter
          (fun (s : Lz_trace.Span.span) ->
            Format.printf "%10d  %10d..%-10d  %s@."
              (s.stop_cycles - s.start_cycles) s.start_cycles s.stop_cycles
              s.name)
          (Lz_trace.Span.top_spans r.report top)
    | `Export ->
        let oc = open_out out in
        Lz_trace.Trace.export_jsonl r.trace oc;
        close_out oc;
        Format.printf "wrote %d events (%d dropped) to %s@."
          (Lz_trace.Trace.len r.trace)
          (Lz_trace.Trace.dropped r.trace)
          out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"trace an instrumented domain-switch run (cycle attribution)")
    Term.(const run $ platform $ env $ action $ domains $ iterations $ top
          $ out)

let profile_cmd =
  let run cm env =
    List.iter
      (fun m ->
        Format.printf "%a@." Lz_workloads.Iso_profile.pp
          (Lz_eval.Profiles.profile cm env m))
      Lz_eval.Profiles.all_mechs;
    (* PMU-measured counters (§5.2.1 retention, TLB maintenance) from
       an instrumented syscall-mix run of the zone. *)
    let c = Lz_eval.Profiles.pmu_counters cm env in
    let rate = Lz_eval.Profiles.retention_rate c in
    Format.printf "PMU counters (measured):@.";
    Format.printf "  context retention: %d hits / %d misses%s@."
      c.Lz_eval.Profiles.retention_hits c.Lz_eval.Profiles.retention_misses
      (if Float.is_nan rate then ""
       else Printf.sprintf " (%.1f%% hit rate)" (100. *. rate));
    Format.printf "  TLB flushes:       %d@." c.Lz_eval.Profiles.tlb_flushes;
    let b = c.Lz_eval.Profiles.blocks in
    if b.Lz_cpu.Fastpath.blk_entries = 0 then
      Format.printf "  superblocks:       off@."
    else
      Format.printf
        "  superblocks:       %.1f%% cache hits, %.1f insns/block, %.1f%% \
         chained entries, %d full polls@.  trace trees:       %d folds \
         (depth <= %d), %d side exits, %d retrains@."
        (100. *. Lz_cpu.Fastpath.hit_rate b)
        (Lz_cpu.Fastpath.avg_block_len b)
        (100. *. Lz_cpu.Fastpath.chain_ratio b)
        b.Lz_cpu.Fastpath.polls b.Lz_cpu.Fastpath.folds
        b.Lz_cpu.Fastpath.depth_max b.Lz_cpu.Fastpath.side_exits
        b.Lz_cpu.Fastpath.retrains;
    (* CoW frame-store economics of snapshot+fork (host machinery, so
       measured on a host image regardless of --env). *)
    let w = Lz_eval.Memory_eval.cow cm in
    Format.printf "CoW frame store (%d forks off one warm image):@."
      w.Lz_eval.Memory_eval.forks;
    Format.printf "  frames:            %d logical (%d shared / %d private)@."
      w.Lz_eval.Memory_eval.logical_frames
      w.Lz_eval.Memory_eval.shared_frames
      w.Lz_eval.Memory_eval.private_frames;
    Format.printf
      "  store:             %d slots, %d CoW breaks, %.1fx dedup (%.1f MiB \
       saved)@."
      w.Lz_eval.Memory_eval.store_slots w.Lz_eval.Memory_eval.unshares
      w.Lz_eval.Memory_eval.dedup_factor
      (Lz_eval.Memory_eval.cow_saved_mib w);
    Format.printf "  dirty pages:       %.1f mean per churned fork (%d ran)@."
      w.Lz_eval.Memory_eval.dirty_mean w.Lz_eval.Memory_eval.churned
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"print measured isolation profiles for a configuration")
    Term.(const run $ platform $ env)

let fuzz_cmd =
  let corpus_dir =
    Arg.(value & opt string "fuzz-corpus"
         & info [ "corpus"; "c" ] ~doc:"corpus directory")
  in
  let domains =
    Arg.(value & opt int 128 & info [ "domains"; "d" ] ~doc:"domain count")
  in
  let run_cmd =
    let cases =
      Arg.(value & opt int 2000 & info [ "cases"; "n" ] ~doc:"case count")
    in
    let seed =
      Arg.(value & opt int 0xF022 & info [ "seed"; "s" ] ~doc:"campaign seed")
    in
    let run cm cases seed dir domains =
      let cfg =
        {
          Lz_fuzz.Campaign.seed;
          cases;
          domains;
          dir = Some dir;
          log = (fun s -> Format.printf "%s@." s);
        }
      in
      let env = Lz_fuzz.Oracle.create ~domains cm in
      let stats = Lz_fuzz.Campaign.run ~env cfg in
      Format.printf "%d cases: %d corpus entries, %d coverage keys, %d \
                     divergences@."
        stats.Lz_fuzz.Campaign.cases_run
        (List.length stats.Lz_fuzz.Campaign.corpus_entries)
        (List.length stats.Lz_fuzz.Campaign.keys)
        (List.length stats.Lz_fuzz.Campaign.failures);
      List.iter
        (fun (f : Lz_fuzz.Campaign.failure) ->
          Format.printf "DIVERGENCE %s@.  shrunk: %a@."
            f.Lz_fuzz.Campaign.detail Lz_fuzz.Fuzz_case.pp
            f.Lz_fuzz.Campaign.case)
        stats.Lz_fuzz.Campaign.failures;
      if stats.Lz_fuzz.Campaign.failures <> [] then exit 1
    in
    Cmd.v (Cmd.info "run" ~doc:"run a coverage-guided campaign")
      Term.(const run $ platform $ cases $ seed $ corpus_dir $ domains)
  in
  let corpus_cmd =
    let run dir =
      let entries = Lz_fuzz.Corpus.list dir in
      List.iter
        (fun (e : Lz_fuzz.Corpus.entry) ->
          Format.printf "%s  %a  (%d keys)@."
            (String.sub e.Lz_fuzz.Corpus.signature 0 12)
            Lz_fuzz.Fuzz_case.pp e.Lz_fuzz.Corpus.case
            (List.length e.Lz_fuzz.Corpus.keys))
        entries;
      Format.printf "%d entries, %d distinct coverage keys@."
        (List.length entries)
        (List.length (Lz_fuzz.Corpus.all_keys entries))
    in
    Cmd.v (Cmd.info "corpus" ~doc:"list the on-disk corpus")
      Term.(const run $ corpus_dir)
  in
  let repro_cmd =
    let file =
      Arg.(required & pos 0 (some file) None
           & info [] ~docv:"CASE" ~doc:"a .case file to replay")
    in
    let run cm file domains =
      match Lz_fuzz.Corpus.load_file file with
      | None -> Format.printf "could not parse %s@." file; exit 2
      | Some e ->
          let env = Lz_fuzz.Oracle.create ~domains cm in
          let r = Lz_fuzz.Campaign.repro ~env ~domains e.Lz_fuzz.Corpus.case in
          Format.printf "case: %a@." Lz_fuzz.Fuzz_case.pp
            e.Lz_fuzz.Corpus.case;
          List.iter
            (fun (run : Lz_fuzz.Oracle.run) ->
              Format.printf "  %-8s %s (%d insns, %d cycles)@."
                (Lz_cpu.Core.engine_name run.Lz_fuzz.Oracle.engine)
                run.Lz_fuzz.Oracle.outcome run.Lz_fuzz.Oracle.insns
                run.Lz_fuzz.Oracle.cycles)
            r.Lz_fuzz.Oracle.runs;
          List.iter (Format.printf "  %s@.") r.Lz_fuzz.Oracle.keys;
          (match r.Lz_fuzz.Oracle.divergence with
          | Some d ->
              Format.printf "DIVERGES: %a@." Lz_fuzz.Oracle.pp_divergence d;
              exit 1
          | None -> Format.printf "engines agree@.")
    in
    Cmd.v (Cmd.info "repro" ~doc:"replay one corpus case under the oracle")
      Term.(const run $ platform $ file $ domains)
  in
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:"differential fuzzing of the gate/sanitizer/trap surface")
    [ run_cmd; corpus_cmd; repro_cmd ]

let () =
  let info = Cmd.info "lzctl" ~doc:"LightZone reproduction driver" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ traps_cmd; switch_cmd; pentest_cmd; profile_cmd; trace_cmd;
            fuzz_cmd ]))
