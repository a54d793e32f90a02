(** The physical-address randomization layer (paper Section 5.1.2).

    Stage-1 PTEs of TTBR-mode LightZone processes never contain real
    physical addresses: each real frame is assigned a *fake* physical
    (intermediate physical) address, allocated sequentially (the
    paper's example: the frames behind the first and second page
    faults get fake addresses 0x1000 and 0x2000). Stage-2 then maps
    fake → real. This stops a process that reads its own PTEs from
    learning DRAM layout (the Rowhammer hardening argument).

    PAN-mode processes use the [Identity] mode: fake = real, stage-2
    is an identity overlay. *)

type mode = Identity | Sequential

type t

val create : mode -> t

val assign : t -> real:int -> int
(** Fake address for a real frame (stable: assigning the same frame
    twice returns the same fake address). Frame-aligned. *)

val real_of_fake : t -> int -> int option
val fake_of_real : t -> int -> int option

val assigned : t -> int
(** Number of frames with fake addresses (table memory accounting). *)

val clone : t -> t
(** A new handle over the same assignments (machine forking). O(1):
    the assignments are one immutable value, so the clone and the
    original diverge from the first assignment either makes. *)

(** {1 Snapshot} *)

type state

val capture : t -> state
(** O(1): the assignments as of now, an immutable value. *)

val restore : t -> state -> unit
(** O(1): make [state] the assignments again, whatever timeline the
    handle was on. Tables sharing the handle see the restored
    assignments. *)
