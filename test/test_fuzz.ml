(* The differential fuzzer itself: per-kind oracle agreement on a
   small warm image, campaign determinism, the corpus round-trip, and
   an end-to-end shrink of a deliberately-injected cost divergence. *)

module Fuzz_case = Lz_fuzz.Fuzz_case
module Oracle = Lz_fuzz.Oracle
module Campaign = Lz_fuzz.Campaign
module Corpus = Lz_fuzz.Corpus
module Shrink = Lz_fuzz.Shrink

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let domains = 6
let cm = Lz_cpu.Cost_model.cortex_a55

(* One warm image for the whole binary — building it dominates test
   time, forking off it is cheap. *)
let env = lazy (Oracle.create ~domains cm)

(* Every kind must run divergence-free on a handful of seeded cases;
   [run_case] restores the baseline between engines, so agreement here
   is the whole oracle working end to end. *)
let test_kind_agreement kind () =
  let env = Lazy.force env in
  let rng = Random.State.make [| 0xBEEF; Hashtbl.hash kind |] in
  for _ = 1 to 4 do
    let c = { (Fuzz_case.generate ~domains rng) with Fuzz_case.kind } in
    let c =
      { c with Fuzz_case.budget = Fuzz_case.budget_for kind;
        gate = c.Fuzz_case.gate mod domains }
    in
    let r = Oracle.run_case env c in
    (match r.Oracle.divergence with
    | Some d ->
        Alcotest.failf "%s diverged: %a on %a" (Fuzz_case.kind_name kind)
          Oracle.pp_divergence d Fuzz_case.pp c
    | None -> ());
    check_bool "collected coverage keys" true (r.Oracle.keys <> [])
  done

(* Two campaigns over the same (seed, cases, domains) triple must
   visit the same cases and report identical coverage. *)
let test_campaign_determinism () =
  let run () =
    let cfg =
      { Campaign.default_config with Campaign.cases = 30; domains;
        seed = 0xD0D0 }
    in
    let stats = Campaign.run ~env:(Lazy.force env) cfg in
    ( stats.Campaign.keys,
      List.map (fun e -> e.Corpus.signature) stats.Campaign.corpus_entries,
      stats.Campaign.curve,
      stats.Campaign.failures )
  in
  let k1, s1, c1, f1 = run () in
  let k2, s2, c2, f2 = run () in
  check_bool "found coverage" true (List.length k1 > 10);
  check_bool "no divergences" true (f1 = [] && f2 = []);
  Alcotest.(check (list string)) "same key set" k1 k2;
  Alcotest.(check (list string)) "same corpus signatures" s1 s2;
  check_bool "same curve" true (c1 = c2)

let test_case_roundtrip () =
  let rng = Random.State.make [| 0xCAFE |] in
  for _ = 1 to 50 do
    let c = Fuzz_case.generate ~domains:128 rng in
    match Fuzz_case.of_lines (Fuzz_case.to_lines c) with
    | Some c' -> check_bool "case round-trips" true (c = c')
    | None -> Alcotest.failf "unparseable: %a" Fuzz_case.pp c
  done;
  (* Corpus entries too — coverage keys are free-form text (sanitizer
     messages carry commas), which once split a key in two on load. *)
  let rng = Random.State.make [| 0xCAFE; 1 |] in
  let e =
    { Corpus.signature = "roundtrip-test";
      case = Fuzz_case.generate ~domains rng;
      keys =
        [ "kind:stream";
          "out:terminated:sanitizer: x (cache/AT maintenance (op0=1, \
           CRn=7))"; "trap:hvc" ] }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lz-fuzz-rt" in
  Corpus.save dir e;
  match Corpus.load_file (Filename.concat dir "roundtrip-test.case") with
  | Some e' ->
      check_bool "entry round-trips" true
        (e'.Corpus.case = e.Corpus.case && e'.Corpus.keys = e.Corpus.keys)
  | None -> Alcotest.fail "corpus entry did not load"

(* Satellite (d): break the cost model on purpose — the skew knob
   charges the superblock engine extra cycles for any case that still
   carries a payload word — and check the shrinking machinery walks an
   11-word monster down to a minimal (<= 8 words, here exactly 1)
   reproducer, deterministically. *)
let test_shrink_to_minimal () =
  let env = Lazy.force env in
  Oracle.debug_cost_skew :=
    Some (fun c -> if Array.length c.Fuzz_case.words > 0 then 13 else 0);
  Fun.protect ~finally:(fun () -> Oracle.debug_cost_skew := None)
  @@ fun () ->
  let rng = Random.State.make [| 0x5EED |] in
  let big =
    { (Fuzz_case.generate ~domains rng) with
      Fuzz_case.kind = Fuzz_case.Stream;
      words = Array.make 11 0xD503201F (* nops *);
      budget = Fuzz_case.default_budget }
  in
  let r = Oracle.run_case env big in
  check_bool "skewed case diverges" true (r.Oracle.divergence <> None);
  (match r.Oracle.divergence with
  | Some d -> check_bool "cycles field" true (d.Oracle.field = "cycles")
  | None -> ());
  let still_fails c = (Oracle.run_case env c).Oracle.divergence <> None in
  let m1 = Shrink.minimize ~still_fails big in
  let m2 = Shrink.minimize ~still_fails big in
  check_bool "minimal reproducer <= 8 words" true
    (Array.length m1.Fuzz_case.words <= 8);
  check_int "shrinks to a single word" 1 (Array.length m1.Fuzz_case.words);
  check_bool "still fails" true (still_fails m1);
  check_bool "shrinking is deterministic" true (m1 = m2);
  (* And with the knob back off, the same case must agree again. *)
  Oracle.debug_cost_skew := None;
  check_bool "agrees without the skew" true (not (still_fails m1))

(* The budget must bound the host loop even when the guest retires
   nothing — the irq-storm livelock regression (timer slice below the
   exception entry/return cost re-pends before the first guest
   instruction). *)
let test_storm_livelock_bounded () =
  let env = Lazy.force env in
  let c =
    { Fuzz_case.kind = Fuzz_case.Irq_storm;
      words = [||]; gate = 0; param = 2; slice = 1 (* always expired *);
      budget = 2_000 }
  in
  let r = Oracle.run_case env c in
  check_bool "no divergence" true (r.Oracle.divergence = None);
  check_bool "terminates (limit)" true
    (List.for_all
       (fun (run : Oracle.run) -> run.Oracle.outcome = "limit")
       r.Oracle.runs)

(* The smp-race digest covers each core's stack pointers and PSTATE:
   cores identical except for one of them must digest differently. *)
let test_smp_core_state () =
  let core () =
    Lz_cpu.Core.create (Lz_mem.Phys.create ()) (Lz_mem.Tlb.create ()) cm
      Lz_arm.Pstate.EL0
  in
  let base = Oracle.core_state (core ()) in
  List.iter
    (fun (name, poke) ->
      let c = core () in
      poke c;
      check_bool (name ^ " reaches the digest") true
        (Oracle.core_state c <> base))
    [ ("SP_EL0", fun c -> c.Lz_cpu.Core.sp_el0 <- c.Lz_cpu.Core.sp_el0 + 16);
      ("SP_EL1", fun c -> c.Lz_cpu.Core.sp_el1 <- c.Lz_cpu.Core.sp_el1 + 16);
      ("PSTATE", fun c -> c.Lz_cpu.Core.pstate.Lz_arm.Pstate.z <- true) ]

(* One case of every kind, as a hostbench fuzz round draws them. *)
let round_of seed =
  let rng = Random.State.make [| seed |] in
  Array.map
    (fun kind ->
      let c = Fuzz_case.generate ~domains rng in
      { c with Fuzz_case.kind; budget = Fuzz_case.budget_for kind;
        gate = c.Fuzz_case.gate mod domains })
    Fuzz_case.all_kinds

let run_round env round =
  Array.to_list
    (Array.map (fun c -> (Oracle.run_case env c).Oracle.runs) round)

(* What the engines are compared on, per run. *)
let observed (r : Oracle.run) =
  (r.Oracle.engine, r.Oracle.outcome, r.Oracle.digest, r.Oracle.cycles,
   r.Oracle.insns, r.Oracle.ev_json)

(* A case leaves nothing behind that a later case could see: the same
   round, run twice on one env that has run other cases, gives the
   runs a fresh env gives, smp-race included. Forks reuse the slots
   earlier forks gave back, smp-race machines the blank store's. *)
let test_rounds_independent () =
  let env = Lazy.force env in
  ignore (run_round env (round_of 11));
  let round = round_of 12 in
  let first = run_round env round in
  let second = run_round env round in
  let fresh = run_round (Oracle.create ~domains cm) round in
  let same a b =
    List.map (List.map observed) a = List.map (List.map observed) b
  in
  check_bool "second run of the round equals the first" true
    (same first second);
  check_bool "a used env equals a fresh one" true (same first fresh)

(* Retired forks and smp-race machines give their memory back: after
   50 rounds the image's store holds what it held after the first, and
   the blank store nothing. *)
let test_store_stays_flat () =
  let env = Oracle.create ~domains cm in
  let slots p = (Lz_mem.Phys.stats p).Lz_mem.Phys.store_slots in
  let image_slots () =
    slots env.Oracle.z.Lightzone.Kmod.machine.Lz_kernel.Machine.phys
  in
  ignore (run_round env (round_of 100));
  let after_first = image_slots () in
  for i = 2 to 50 do
    ignore (run_round env (round_of (100 + i)))
  done;
  check_int "image store slots after 50 rounds" after_first (image_slots ());
  check_int "blank store slots" 0 (slots (Lazy.force env.Oracle.blank))

(* The oracle's digest against a memo-free reference: the same header,
   then the MD5 of each domain page as a user read returns it. On a
   fork of the warm image, random byte stores into the domain pages
   must keep the two equal, and move the digest exactly when a stored
   byte differs from the one it replaces. Each test case first runs an
   oracle case, whose retired fork gives its slots back, so the fork
   under test writes into slots an earlier fork's pages held while the
   page memo lives on. *)

let reference_digest (f : Lightzone.Kmod.t) =
  let b = Buffer.create 4096 in
  Lz_eval.Switch_bench.add_zone_header b f;
  for d = 0 to domains - 1 do
    Buffer.add_string b
      (Digest.bytes
         (Lz_kernel.Kernel.read_user f.Lightzone.Kmod.kernel
            f.Lightzone.Kmod.proc ~va:(0x600000 + (d * 4096)) ~len:4096))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let prop_digest_matches_reference =
  QCheck2.Test.make ~name:"oracle digest matches a memo-free reference"
    ~count:40
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (triple (int_range 0 (domains - 1)) (int_range 0 4095)
           (int_range 0 255)))
    (fun stores ->
      let env = Lazy.force env in
      let nop =
        { Fuzz_case.kind = Fuzz_case.Stream; words = [||]; gate = 0;
          param = 0; slice = 100; budget = 100 }
      in
      ignore (Oracle.run_case env nop);
      let f = Lz_snap.Snapshot.fork env.Oracle.z env.Oracle.image in
      Fun.protect ~finally:(fun () -> Lz_snap.Snapshot.retire_fork f)
      @@ fun () ->
      let kernel = f.Lightzone.Kmod.kernel and proc = f.Lightzone.Kmod.proc in
      let agrees () = Oracle.digest env f = reference_digest f in
      agrees ()
      && List.for_all
           (fun (d, off, v) ->
             let va = 0x600000 + (d * 4096) + off in
             let was = Lz_kernel.Kernel.read_user kernel proc ~va ~len:1 in
             let before = Oracle.digest env f in
             Lz_kernel.Kernel.write_user kernel proc ~va
               (Bytes.make 1 (Char.chr v));
             let after = Oracle.digest env f in
             agrees ()
             && (after <> before) = (Char.code (Bytes.get was 0) <> v))
           stores)

let () =
  let kind_cases =
    Array.to_list Fuzz_case.all_kinds
    |> List.map (fun k ->
           Alcotest.test_case (Fuzz_case.kind_name k) `Quick
             (test_kind_agreement k))
  in
  Alcotest.run "fuzz"
    [ ("oracle agreement", kind_cases);
      ( "campaign",
        [ Alcotest.test_case "determinism" `Quick test_campaign_determinism;
          Alcotest.test_case "case round-trip" `Quick test_case_roundtrip ] );
      ( "shrinking",
        [ Alcotest.test_case "minimal reproducer" `Quick
            test_shrink_to_minimal ] );
      ( "regressions",
        [ Alcotest.test_case "irq-storm livelock bounded" `Quick
            test_storm_livelock_bounded;
          Alcotest.test_case "smp-race digest covers SPs and PSTATE" `Quick
            test_smp_core_state ] );
      ( "digest",
        [ QCheck_alcotest.to_alcotest prop_digest_matches_reference ] );
      ( "reuse",
        [ Alcotest.test_case "rounds are independent of the env's past"
            `Quick test_rounds_independent;
          Alcotest.test_case "stores stay flat over 50 rounds" `Quick
            test_store_stays_flat ] ) ]
