(* Coverage-guided differential fuzzing campaign over the gate /
   sanitizer / trap surface: seed 0xF022, 6000 cases (`--smoke`: the
   CI-sized 2000), corpus under fuzz-corpus/. Reports cases/sec, the
   coverage curve, the corpus size and a digest of its entries, the
   cases run per kind, the full sorted coverage-key set, and the GC's
   promoted words and major collections per case. Any engine
   divergence fails the run; `--check` also fails on losing a
   coverage key of the committed report of the same mode, or on any
   change to its Exact rows (Report). `lzctl fuzz run` takes another
   seed, count or corpus.

   Everything but the stamp, the timing fields and the GC rows is
   deterministic for a fixed (seed, cases, domains) triple — two runs
   produce the same key set and corpus — so those are Exact. The GC
   rows move with the code, not the host, but are recorded only. *)

module Campaign = Lz_fuzz.Campaign
module Oracle = Lz_fuzz.Oracle

let now () = Unix.gettimeofday ()

(* The first 60 bits of an MD5 over every kept entry's signature and
   case text, in insertion order: equal for equal corpora. *)
let corpus_digest entries =
  let b = Buffer.create 65536 in
  List.iter
    (fun (e : Lz_fuzz.Corpus.entry) ->
      List.iter
        (fun l -> Buffer.add_string b l; Buffer.add_char b '\n')
        (e.Lz_fuzz.Corpus.signature
        :: Lz_fuzz.Fuzz_case.to_lines e.Lz_fuzz.Corpus.case))
    entries;
  let hex = Digest.to_hex (Digest.string (Buffer.contents b)) in
  int_of_string ("0x" ^ String.sub hex 0 15)

let () =
  let smoke, check = Report.flags ~check:true "fuzz" in
  let cases = if smoke then 2000 else 6000 in
  let seed = 0xF022 in
  let dir = "fuzz-corpus" in
  let domains = 128 in
  let cfg =
    {
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
  let env = Oracle.create ~domains Lz_cpu.Cost_model.cortex_a55 in
  let warm_seconds = now () -. t0 in
  Printf.printf "fuzz: warm image built in %.2fs\n%!" warm_seconds;
  let t1 = now () and gc0 = Gc.quick_stat () in
  let stats = Campaign.run ~env cfg in
  let seconds = now () -. t1 and gc1 = Gc.quick_stat () in
  let per_case x = x /. float_of_int cases in
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
              int Exact "corpus_size" corpus_size;
              int Exact "corpus_digest"
                (corpus_digest stats.Campaign.corpus_entries);
              int Exact "divergences" divergences;
              int Exact "coverage_keys" nkeys ]
       :: row "gc"
            [ float ~dp:1 Info "promoted_words_per_case"
                (per_case (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
              float ~dp:4 Info "major_gcs_per_case"
                (per_case
                   (float_of_int
                      (gc1.Gc.major_collections - gc0.Gc.major_collections)))
            ]
       :: row "kinds"
            (List.map (fun (k, n) -> int Exact k n) stats.Campaign.kind_counts)
       :: List.map
            (fun (i, k) ->
              row (Printf.sprintf "cases=%d" i) [ int Exact "keys" k ])
            stats.Campaign.curve))
    (Report.need (divergences = 0) "%d divergence(s) found" divergences)
