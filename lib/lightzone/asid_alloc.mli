(** Generation-based ASID allocation with recycling (Linux-style).

    Freed ASIDs are parked dirty — no per-free TLB flush — and become
    reusable in bulk when exhaustion bumps the generation and fires
    one whole-context [flush]. Live holders survive rollover and
    refill the TLB lazily. See the implementation header for the
    reuse invariant. *)

type t

val create : ?bits:int -> flush:(unit -> unit) -> unit -> t
(** [bits] (default 14, the TTBR ASID field width) bounds the space at
    [2^bits - 1] allocatable ASIDs; ASID 0 is reserved (TTBR1 /
    global). [flush] must invalidate every stage-1 TLB entry of the
    owning VM; it runs once per rollover. Tests pass a small [bits]
    to force rollover quickly. *)

val alloc : t -> int
(** O(1) amortized. Raises [Failure] only when every ASID in the
    space is simultaneously live. *)

val free : t -> int -> unit
(** Mark an ASID dead. Does not flush — its stale TLB entries are
    unreachable until a rollover flush precedes any reuse. *)

val is_live : t -> int -> bool

val generation : t -> int

val rollovers : t -> int
(** Generation bumps (one whole-context flush each) so far. *)

val recycled : t -> int
(** Allocations that handed out a previously-used ASID. *)

(** {1 Snapshot support} *)

type state

val capture : t -> state

val restore : t -> state -> unit
(** [t] must have the captured allocator's width: a forked machine
    creates its allocator with {!state_bits} under its own flush
    callback (its own VMID / TLB), then restores into it. *)

val state_bits : state -> int
