(** Per-core interrupt bundle: a {!Gic.cpu} view of a (possibly shared)
    {!Gic.dist} plus the core's private generic {!Timer}.

    The simulated core polls {!pending} at instruction boundaries;
    the poll drives the level-sensitive timer and PMU PPI inputs and
    returns the INTID the CPU interface is signaling, if any. Whether
    the core then takes the interrupt depends on PSTATE.DAIF and
    HCR_EL2 routing — that logic lives in the core, not here. *)

type t = { gic : Gic.cpu; timer : Timer.t }

val create : ?dist:Gic.dist -> unit -> t
(** Attach a fresh redistributor to [dist] (fresh distributor when
    omitted) and a private timer. Cores sharing a distributor see each
    other's SGIs. *)

val shared_dist : t -> Gic.dist

val init : t -> unit
(** Kernel-init convenience: unmask the CPU interface and enable the
    timer and PMU PPIs at priority 0x80. *)

val pending : t -> now:int -> pmu_line:bool -> int option
(** Refresh level inputs (timer condition at cycle [now], PMU overflow
    line) and return the signaled INTID, if any. *)

val horizon : t -> now:int -> pmu_hot:bool -> int
(** Lower bound on the cycle count at which {!pending} could first
    return [Some _], assuming it returned [None] at [now] and that
    nothing in between takes or returns from an exception, writes
    DAIF or HCR, or accesses a GIC/timer/PMU register (those can
    reconfigure delivery and invalidate the bound). [max_int] when no
    attached source can ever assert.
    [pmu_hot] flags a PMU with overflow interrupts enabled, whose
    assert time is instruction-dependent: the bound then collapses to
    [now]. Drives the block engine's interrupt-horizon guard. *)

val ack : t -> int
(** Host-side ICC_IAR1_EL1: acknowledge ({!Gic.spurious} if nothing is
    signaled). *)

val eoi : t -> int -> unit
(** Host-side ICC_EOIR1_EL1: retire. *)
