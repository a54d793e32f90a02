(** The coverage-guided campaign driver.

    Seed-pinned and wall-clock-free: a fixed [(seed, cases, domains)]
    triple always visits the same cases, keeps the same corpus and
    reports the same coverage curve. Divergent cases are shrunk on
    the spot via {!Shrink.minimize}. *)

type config = {
  seed : int;
  cases : int;
  domains : int;
  dir : string option;  (** corpus directory ([None] = in-memory only). *)
  log : string -> unit;
}

val default_config : config
(** seed 0xF022, 2000 cases, 128 domains, no directory. *)

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

val run : ?env:Oracle.env -> config -> stats

val repro : ?env:Oracle.env -> domains:int -> Fuzz_case.t -> Oracle.result
(** Replay one case under the differential oracle. *)
