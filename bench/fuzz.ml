(* Coverage-guided differential fuzzing campaign over the gate /
   sanitizer / trap surface: seed 0xF022, 6000 cases (`--smoke`: the
   CI-sized 2000), corpus under fuzz-corpus/. Reports cases/sec, the
   coverage curve, the corpus size and the full sorted coverage-key
   set. Any engine divergence fails the run; `--check` also fails on
   losing a coverage key of the committed report of the same mode
   (Report). `lzctl fuzz run` takes another seed, count or corpus.

   Everything but the stamp and the timing fields is deterministic
   for a fixed (seed, cases, domains) triple — two runs produce the
   same key set and corpus. *)

module Campaign = Lz_fuzz.Campaign
module Oracle = Lz_fuzz.Oracle

let now () = Unix.gettimeofday ()

let () =
  let smoke, check = Report.flags ~check:true "fuzz" in
  let cases = if smoke then 2000 else 6000 in
  let seed = 0xF022 in
  let dir = "fuzz-corpus" in
  let domains = 128 in
  let cfg =
    {
      Campaign.default_config with
      Campaign.seed;
      cases;
      domains;
      dir = Some dir;
      log = (fun s -> Printf.printf "fuzz: %s\n%!" s);
    }
  in
  Printf.printf
    "fuzz: campaign seed 0x%X, %d cases, %d domains, corpus %s/\n%!" seed
    cases domains dir;
  let t0 = now () in
  let env = Oracle.create ~recycle_every:cfg.Campaign.recycle_every ~domains
      Lz_cpu.Cost_model.cortex_a55 in
  let warm_seconds = now () -. t0 in
  Printf.printf "fuzz: warm image built in %.2fs\n%!" warm_seconds;
  let t1 = now () in
  let stats = Campaign.run ~env cfg in
  let seconds = now () -. t1 in
  let cases_per_sec = float_of_int cases /. seconds in
  let corpus_size = List.length stats.Campaign.corpus_entries in
  let nkeys = List.length stats.Campaign.keys in
  let divergences = List.length stats.Campaign.failures in
  Printf.printf
    "fuzz: %d cases in %.1fs (%.1f cases/s): %d corpus entries, %d coverage \
     keys, %d divergences\n%!"
    cases seconds cases_per_sec corpus_size nkeys divergences;
  List.iter
    (fun (k, n) -> Printf.printf "fuzz:   %-12s %5d cases\n%!" k n)
    stats.Campaign.kind_counts;
  List.iter
    (fun (f : Campaign.failure) ->
      Printf.printf "fuzz: DIVERGENCE %s\n  shrunk: %s\n%!" f.Campaign.detail
        (Format.asprintf "%a" Lz_fuzz.Fuzz_case.pp f.Campaign.case))
    stats.Campaign.failures;
  Report.finish ~check
    Report.(
      make ~bench:"fuzz" ~smoke ~keys:stats.Campaign.keys
       (row "params"
          [ int Info "seed" seed; int Info "cases" cases;
            int Info "domains" domains ]
       :: row "campaign"
            [ float ~dp:2 Info "seconds" seconds;
              float ~dp:1 Info "cases_per_sec" cases_per_sec;
              int Info "corpus_size" corpus_size;
              int Info "divergences" divergences;
              int Info "coverage_keys" nkeys ]
       :: List.map
            (fun (i, k) ->
              row (Printf.sprintf "cases=%d" i) [ int Info "keys" k ])
            stats.Campaign.curve))
    (Report.need (divergences = 0) "%d divergence(s) found" divergences)
