(** GICv3-shaped interrupt controller model.

    A shared {!dist} (distributor) owns the group enable and the SGI
    staging switch; each simulated core attaches a {!cpu}
    (redistributor + CPU interface) owning banked SGI/PPI state and the
    ICC_* interface state. Only SGIs (INTIDs 0..15) and PPIs (16..31)
    exist: host calls with any other INTID raise [Invalid_argument].
    The model is pure latched state and never charges cycles, so
    attaching a GIC does not perturb core timing until an interrupt is
    actually taken.

    Life cycle per INTID: inactive -> pending (edge latch or level
    input) -> active (on {!acknowledge}) -> inactive (on {!eoi}).
    Active interrupts are not re-signaled; a level input still asserted
    at EOI re-pends immediately. *)

type dist
(** Distributor: the group enable and the cores attached to it. *)

type cpu
(** Per-core redistributor + CPU interface. *)

val spurious : int
(** 1023, returned by {!acknowledge} when nothing is signaled. *)

val ppi_pmu : int
(** PPI INTID 23: PMU overflow interrupt line. *)

val ppi_el1_timer : int
(** PPI INTID 30: EL1 physical generic-timer line. *)

val idle_priority : int
(** 0xFF, the lowest priority; the running priority when no interrupt
    is active. *)

val create_dist : unit -> dist
val cpu_dist : cpu -> dist
val attach_cpu : dist -> cpu
(** Attach a new core's redistributor; cores are numbered in attach
    order (SGI target lists address these ids). *)

val cpu_id : cpu -> int
(** The interface's attach-order id — the bit position a
    {!write_sgi1r} target list uses to address it. *)

(** {1 Distributor configuration (host view of the GICD registers)} *)

val set_group_enable : dist -> bool -> unit

(** {1 Per-core configuration and inputs} *)

val enable : cpu -> int -> unit
val set_priority : cpu -> int -> int -> unit
val set_pending : cpu -> int -> unit
(** Edge-latch an SGI or PPI pending on this core. *)

val set_level : cpu -> int -> bool -> unit
(** Drive a level-sensitive local input (e.g. the timer or PMU PPI).
    The line is sampled by {!signaled}; deasserting clears the
    pending condition unless an edge latch is also set. *)

val unmask : cpu -> unit
(** Open the CPU interface: PMR to lowest mask, group 1 enabled —
    what early kernel init does via ICC_PMR_EL1/ICC_IGRPEN1_EL1. *)

(** {1 CPU interface (the ICC system registers)} *)

val deliverable : cpu -> int -> bool
(** [deliverable cpu intid]: would the local INTID pass every static
    delivery filter (group enables, per-INTID enable, not active,
    priority vs PMR and running priority) if its line asserted now?
    All inputs change only at instruction boundaries (ICC_*/GICD
    writes, acknowledge, EOI), so the answer is stable across a
    straight-line block — the core's interrupt-horizon computation
    relies on this. A [true] result does not promise delivery (a
    masked higher-priority candidate can shadow it in {!signaled});
    it only bounds when delivery is possible. *)

val signaled : cpu -> int option
(** The INTID the interface is currently signaling to its core: the
    highest-priority enabled pending inactive interrupt, if it beats
    both ICC_PMR_EL1 and the running priority and group 1 is enabled at
    both distributor and interface. *)

val acknowledge : cpu -> int
(** ICC_IAR1_EL1 read: pending -> active, raises the running priority;
    {!spurious} when nothing is signaled. *)

val eoi : cpu -> int -> unit
(** ICC_EOIR1_EL1 write: retire an acknowledged INTID. Any other INTID
    retires nothing. *)

val running_priority : cpu -> int

val write_sgi1r : cpu -> int -> unit
(** ICC_SGI1R_EL1 write: INTID in bits 27:24, target-list bitmap of
    attached-cpu ids in bits 15:0, IRM in bit 40 ("all but self"
    broadcast — the target list is ignored). Cross-core SGIs stage
    until {!publish_staged} when the distributor is in sync-quantum
    mode; self-SGIs are always delivered immediately. *)

(** {1 SMP sync-quantum mode}

    With staging on, a cross-core SGI raised during a quantum is
    latched aside and only becomes pending on the target when the
    machine driver calls {!publish_staged} at the sync barrier. This
    makes cross-core signal visibility independent of intra-quantum
    host scheduling — the keystone of the sequential ≡ parallel
    determinism argument (DESIGN.md §15). *)

val set_staging : dist -> bool -> unit

val publish_staged : cpu -> unit
(** Merge this interface's staged SGIs into its pending latches
    (barrier-time, single-threaded). *)

val raise_sgi : cpu -> int -> unit
(** Host-side: latch SGI [intid] (0..15) pending directly, bypassing
    staging — for barrier-time delivery decided by the driver. *)

val read_pmr : cpu -> int
val write_pmr : cpu -> int -> unit
val read_igrpen1 : cpu -> int
val write_igrpen1 : cpu -> int -> unit
val read_bpr1 : cpu -> int
val write_bpr1 : cpu -> int -> unit
val read_rpr : cpu -> int
val read_hppir1 : cpu -> int

(** {1 Snapshot} *)

type state
(** One CPU interface's banked SGI/PPI and ICC state (staged SGI
    latches included) plus its distributor's group enable. *)

val capture : cpu -> state

val restore : cpu -> state -> unit
(** Restores the interface {e and} its distributor — meant for
    single-core machines where the snapshotted core owns the
    distributor. *)
