(* The bench report format and its baseline check (bench/report.ml). *)

open Report

(* The committed reports, declared as this test's dependencies. *)
let committed =
  [ "BENCH_throughput.json"; "BENCH_scale.json"; "BENCH_fleet.json";
    "BENCH_smp.json"; "BENCH_fuzz.smoke.json"; "BENCH_scale.smoke.json" ]

let round_trip file () =
  let text =
    In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all
  in
  let r = of_string text in
  Alcotest.(check bool) "has rows" true (r.rows <> []);
  Alcotest.(check string) "written back byte for byte" text (to_string r);
  Alcotest.(check bool) "read back equal" true (of_string (to_string r) = r)

let base =
  {
    bench = "t";
    mode = "full";
    build_profile = "release";
    host_cpus = 2;
    ocaml = "5.1.1";
    git_rev = "unknown";
    rows =
      [ row "w"
          [ float Higher "mips" 100.; int Exact "insns" 42;
            float ~dp:2 Exact "cycles" 179.88; float Info "seconds" 1. ] ];
    keys = [ "a"; "b" ];
  }

(* [base] with its metric of [m]'s name replaced by [m]. *)
let with_metric m =
  {
    base with
    rows =
      List.map
        (fun r ->
          { r with
            metrics =
              List.map (fun x -> if x.name = m.name then m else x) r.metrics })
        base.rows;
  }

let fails t = fst (check ~baseline:base t) <> []
let bool = Alcotest.(check bool)

let higher () =
  bool "-19% passes" false (fails (with_metric (float Higher "mips" 81.)));
  bool "-21% fails" true (fails (with_metric (float Higher "mips" 79.)));
  bool "faster passes" false (fails (with_metric (float Higher "mips" 150.)))

let exact () =
  bool "equal passes" false (fails base);
  bool "insns +1 fails" true (fails (with_metric (int Exact "insns" 43)));
  bool "insns -1 fails" true (fails (with_metric (int Exact "insns" 41)));
  bool "cycles +0.01 fails" true
    (fails (with_metric (float ~dp:2 Exact "cycles" 179.89)));
  bool "info never compared" false
    (fails (with_metric (float Info "seconds" 1000.)))

let keys () =
  bool "lost key fails" true (fails { base with keys = [ "a" ] });
  bool "extra key passes" false (fails { base with keys = [ "a"; "b"; "c" ] })

let profile () =
  bool "profile mismatch fails" true
    (fails { base with build_profile = "dev" })

let mode () =
  let t = with_metric (float Higher "mips" 1.) in
  let f, notes = check ~baseline:{ base with mode = "smoke" } t in
  Alcotest.(check (list string)) "no failure" [] f;
  Alcotest.(check (list string))
    "says why"
    [ "baseline is a smoke run, this is full: baseline check skipped" ]
    notes

let missing () =
  let t = { base with rows = row "new" [ int Exact "insns" 1 ] :: base.rows } in
  let f, notes = check ~baseline:base t in
  Alcotest.(check (list string)) "no failure" [] f;
  bool "says so" true (List.mem "new insns not in baseline, skipped" notes)

(* A passing [--check] run leaves the baseline it read alone and writes
   its own report beside it. *)
let check_run_keeps_baseline () =
  let cwd = Sys.getcwd () in
  let dir = Filename.temp_dir "lz-bench-report" "" in
  Sys.chdir dir;
  let tidy () =
    Array.iter Sys.remove (Sys.readdir ".");
    Sys.chdir cwd;
    Sys.rmdir dir
  in
  Fun.protect ~finally:tidy @@ fun () ->
  let text path = In_channel.with_open_bin path In_channel.input_all in
  write (file base) base;
  let before = text (file base) in
  let run = with_metric (float Higher "mips" 90.) in
  finish ~check:true run [];
  Alcotest.(check string) "baseline byte-identical" before (text (file base));
  Alcotest.(check string)
    "check report beside it" "BENCH_t.check.json" (file ~check:true run);
  bool "check report holds the run" true (read (file ~check:true run) = run)

(* A report recorded on uncommitted changes names its revision as
   dirty; a clean tree, or no git, leaves the revision plain. *)
let stamp () =
  let rev = "69a77a6ff42eb433680987af7d5d2a866dbcbbdb" in
  Alcotest.(check string) "dirty" (rev ^ "+dirty")
    (rev_stamp rev ~dirty:(Some true));
  Alcotest.(check string) "clean" rev (rev_stamp rev ~dirty:(Some false));
  Alcotest.(check string) "no git" "unknown" (rev_stamp "unknown" ~dirty:None)

let () =
  Alcotest.run "bench report"
    [ ( "committed",
        List.map (fun f -> Alcotest.test_case f `Quick (round_trip f)) committed
      );
      ( "check",
        [ Alcotest.test_case "higher at 20%" `Quick higher;
          Alcotest.test_case "exact" `Quick exact;
          Alcotest.test_case "coverage keys" `Quick keys;
          Alcotest.test_case "build profile" `Quick profile;
          Alcotest.test_case "mode skips" `Quick mode;
          Alcotest.test_case "missing row skips" `Quick missing;
          Alcotest.test_case "check run keeps its baseline" `Quick
            check_run_keeps_baseline ] );
      ("stamp", [ Alcotest.test_case "dirty tree" `Quick stamp ]) ]
