(** The three-engine differential.

    {!Core.Slow} is the reference semantics; {!Core.Per_insn} and
    {!Core.Blocks} must be indistinguishable from it. An observation
    records the architectural state of one core after a run, plus
    whatever a test names on top of it; {!across_engines} runs a setup
    once per {!Core.engines} entry and names the first engine, and the
    first field, that differs from [Slow].

    A property that legitimately ignores a field masks it on the
    record before comparing, e.g. [{ o with cycles = 0 }]. *)

type t = {
  regs : int array;  (** x0..x30. *)
  pc : int;
  sp_el0 : int;
  sp_el1 : int;
  pstate : int;  (** as {!Lz_arm.Pstate.to_spsr} encodes it. *)
  cycles : int;
  insns : int;
  tlb_hits : int;
  tlb_misses : int;
  mem : string;  (** hex digest of the named pages, in order. *)
  extra : (string * string) list;
      (** named per-test observations (tick counts, event streams),
          compared after the fields above. *)
}

val observe : ?pages:int list -> ?extra:(string * string) list -> Core.t -> t
(** [pages] are physical addresses of 4 KiB frames to digest. *)

val fields : t -> (string * string) list
(** Every field as (name, rendered value), in comparison order:
    x0..x30, pc, sp_el0, sp_el1, pstate, cycles, insns, tlb_hits,
    tlb_misses, mem, then [extra]. *)

val diff : t -> t -> string option
(** The first field in which the two observations differ, with both
    values (for a multi-line value, the first differing line). *)

val across_engines : (Core.engine -> t) -> t
(** The [Slow] observation, once every other engine has agreed with
    it. Raises [Failure] naming the first engine that differs and
    {!diff}'s report. *)
