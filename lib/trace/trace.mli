(** Typed, cycle-timestamped event tracing with a bounded ring buffer.

    Emission sites throughout the simulator are guarded by
    [option] matches, so with no tracer attached tracing costs one
    null check and allocates nothing.  The ring is drop-newest: when
    full, new events increment {!dropped} and previously buffered
    events are untouched. *)

type flush_scope = Flush_all | Flush_vmid | Flush_asid | Flush_va

type payload =
  | Trap_enter of { ec : int; from_el : int; to_el : int }
      (** Exception taken; [ec] is the ESR exception class. *)
  | Trap_exit of { from_el : int; to_el : int }  (** ERET. *)
  | Gate_entry of { gate : int }  (** Fig. 2 phase ① begins. *)
  | Gate_check of { gate : int }  (** Fig. 2 phase ② begins. *)
  | Gate_exit of { gate : int }  (** Back at the legitimate return site. *)
  | Domain_switch of { asid : int }  (** TTBR0_EL1 written by guest code. *)
  | Sanitizer_scan of { pa : int; ok : bool }
  | Wx_bbm of { fake : int }  (** W^X break-before-make on a frame. *)
  | Stage_fault of { stage : int; va : int }
  | World_switch of { enter : bool; vmid : int }
  | Retention of { nr : int; hit : bool }
      (** §5.2.1 host-context retention: [hit] = switch skipped. *)
  | Tlb_flush of { scope : flush_scope; vmid : int }
  | Syscall of { nr : int }
  | Nested_forward of { enter : bool; repoint : bool }
      (** Lowvisor forward of a nested-virt trap (§5.3). *)
  | Irq_enter of { intid : int; from_el : int; to_el : int }
      (** Asynchronous interrupt taken; [intid] is the GIC INTID of the
          highest-priority pending interrupt at delivery. Matched by a
          {!Trap_exit} from the handler's EL, like a synchronous trap. *)
  | Preempt of { task : int }
      (** Scheduler timeslice rotation: [task] is the task switched
          to. *)

type event = { seq : int; cycles : int; payload : payload }

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes an empty tracer. [capacity] bounds the ring
    (default 65,536 events); further events are dropped and counted.
    Raises [Invalid_argument] if [capacity <= 0]. *)

val clone_config : ?total:int -> t -> t
(** A fresh, empty tracer with the same capacity and registered
    markers, which it shares by pointer (O(1)). [total] (default 0)
    seeds the sequence counter — pass the value captured at snapshot
    time and a deterministic re-execution emits events byte-identical
    to the original ring's suffix. The clock is not copied; attach the
    clone to a core to install one. *)

val set_clock : t -> (unit -> int) -> unit
(** Clock used by {!emit_now} for emitters that do not carry a cycle
    counter (e.g. the TLB). The core installs [fun () -> core.cycles]
    when a tracer is attached. *)

val emit : t -> cycles:int -> payload -> unit
val emit_now : t -> payload -> unit

val events : t -> event list
(** Buffered events in emission order. *)

val len : t -> int
val total : t -> int
(** Events ever emitted, including dropped ones. *)

val dropped : t -> int
val clear : t -> unit

val add_marker : t -> pc:int -> payload -> unit
(** Register a PC marker: when an attached core is about to execute
    the instruction at [pc], it emits the payload. A tracer's markers
    are one immutable value that {!clone_config} shares: a marker
    added to a clone never reaches its source or a sibling clone, and
    the other way round. *)

type markers
(** An immutable set of PC markers, built once and shared by
    pointer. *)

val marker_set : (int * payload) list -> markers
(** The markers of the [(pc, payload)] list; a later pair replaces an
    earlier one at the same PC. *)

val add_markers : t -> markers -> unit
(** [add_markers t s] registers every marker of [s], replacing [t]'s
    at the same PCs. It costs O(1) in two cases: [t] has no markers
    (it takes [s] by pointer), or [t] already carries all of [s]
    (say, [t] is a {!clone_config} of a tracer [s] was added to, and
    no marker at a PC of [s] was replaced since), when it does
    nothing. Otherwise it adds [s]'s markers one by one. *)

val marker_at : t -> int -> payload option
(** The marker at a PC: an int-keyed tree lookup, no hashing. *)

val page_marked : t -> int -> bool
(** [page_marked t pc] is [true] iff any marker is registered in
    [pc]'s 4 KiB VA page. The block dispatcher asks this once per
    block entry: superblocks never cross a page, so a [false] answer
    proves no in-block instruction can have a marker and the whole
    block may run without per-instruction marker checks. *)

val equal_event : event -> event -> bool
(** [equal_event a b] is [a = b], compared field by field: sequence
    number, cycles, and the payload by constructor. *)

val payload_name : payload -> string
val event_to_json : event -> string
val export_jsonl : t -> out_channel -> unit
