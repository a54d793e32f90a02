(* The coverage-guided campaign driver.

   Seed-pinned and wall-clock-free: one [Random.State.t] drives
   generation and corpus-entry selection, the oracle is
   deterministic, and coverage-guided mutation picks parents by
   insertion order — so two runs of the same (seed, cases, domains)
   triple visit the same cases, keep the same corpus and report the
   same coverage curve. Divergent cases are shrunk on the spot and
   recorded (optionally under <dir>/failures/). *)

type config = {
  seed : int;
  cases : int;
  domains : int;
  dir : string option;  (** corpus directory (None = in-memory only). *)
  log : string -> unit;
}

let default_config =
  {
    seed = 0xF022;
    cases = 2000;
    domains = 128;
    dir = None;
    log = ignore;
  }

type failure = {
  case : Fuzz_case.t;  (** the shrunk reproducer. *)
  original : Fuzz_case.t;
  detail : string;
}

type stats = {
  cases_run : int;
  corpus_entries : Corpus.entry list;  (** insertion order. *)
  keys : string list;  (** distinct coverage keys, sorted. *)
  curve : (int * int) list;  (** (cases run, distinct keys) checkpoints. *)
  failures : failure list;
  kind_counts : (string * int) list;
}

(* Checkpoint the coverage curve on a coarse log scale plus the final
   case — enough to plot saturation without recording every case. *)
let checkpoint i total =
  i = total
  || List.mem i [ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 ]
  || (i mod 2000 = 0)

let run ?(env : Oracle.env option) (cfg : config) =
  let env =
    match env with
    | Some e -> e
    | None ->
        Oracle.create ~domains:cfg.domains Lz_cpu.Cost_model.cortex_a55
  in
  let rng = Random.State.make [| cfg.seed; 0x1279; cfg.domains |] in
  let corpus_tbl : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let corpus_order = ref [] (* reversed insertion order *) in
  let corpus_count = ref 0 in
  let corpus_arr = Array.make (max 16 cfg.cases) None in
  let keyset : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let curve = ref [] in
  let failures = ref [] in
  let kind_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  for i = 1 to cfg.cases do
    let c =
      if !corpus_count > 0 && Random.State.int rng 4 < 3 then
        (* coverage-guided: mutate a corpus parent. *)
        match corpus_arr.(Random.State.int rng !corpus_count) with
        | Some (e : Corpus.entry) ->
            Fuzz_case.mutate ~domains:cfg.domains rng e.Corpus.case
        | None -> Fuzz_case.generate ~domains:cfg.domains rng
      else Fuzz_case.generate ~domains:cfg.domains rng
    in
    Hashtbl.replace kind_counts
      (Fuzz_case.kind_name c.Fuzz_case.kind)
      (1
      + Option.value ~default:0
          (Hashtbl.find_opt kind_counts (Fuzz_case.kind_name c.Fuzz_case.kind)));
    let r = Oracle.run_case env c in
    (match r.Oracle.divergence with
    | Some d ->
        let detail = Format.asprintf "%a" Oracle.pp_divergence d in
        cfg.log
          (Printf.sprintf "case %d DIVERGES (%s); shrinking..." i detail);
        let still_fails c' =
          (Oracle.run_case env c').Oracle.divergence <> None
        in
        let shrunk = Shrink.minimize ~still_fails c in
        let f = { case = shrunk; original = c; detail } in
        failures := f :: !failures;
        (match cfg.dir with
        | Some dir ->
            Corpus.save_failure dir ~index:(List.length !failures) shrunk
              ~detail
        | None -> ())
    | None -> ());
    let signature = Oracle.signature r.Oracle.keys in
    if not (Hashtbl.mem corpus_tbl signature) then begin
      Hashtbl.replace corpus_tbl signature ();
      let entry = { Corpus.signature; case = c; keys = r.Oracle.keys } in
      if !corpus_count < Array.length corpus_arr then begin
        corpus_arr.(!corpus_count) <- Some entry;
        incr corpus_count
      end;
      corpus_order := entry :: !corpus_order;
      match cfg.dir with
      | Some dir -> Corpus.save dir entry
      | None -> ()
    end;
    List.iter (fun k -> Hashtbl.replace keyset k ()) r.Oracle.keys;
    if checkpoint i cfg.cases then
      curve := (i, Hashtbl.length keyset) :: !curve
  done;
  {
    cases_run = cfg.cases;
    corpus_entries = List.rev !corpus_order;
    keys =
      List.sort_uniq compare
        (Hashtbl.fold (fun k () acc -> k :: acc) keyset []);
    curve = List.rev !curve;
    failures = List.rev !failures;
    kind_counts =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kind_counts []);
  }

(* Replay one case (corpus inspection / `lzctl fuzz repro`). *)
let repro ?(env : Oracle.env option) ~domains case =
  let env =
    match env with
    | Some e -> e
    | None -> Oracle.create ~domains Lz_cpu.Cost_model.cortex_a55
  in
  Oracle.run_case env case
