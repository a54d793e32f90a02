(** Greedy first-improvement shrinking of divergent cases, built on
    QCheck's shrinking iterators ([Shrink.list ~shrink:Shrink.int]
    over the payload words, [Shrink.int] over the scalar knobs).
    Candidate order and the oracle are both deterministic, so a given
    failing case always shrinks to the same minimal reproducer. *)

val minimize : still_fails:(Fuzz_case.t -> bool) -> Fuzz_case.t -> Fuzz_case.t
