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
(** Independent copy of the assignment tables (machine forking). *)

(** {1 Snapshot} *)

type state

val capture : t -> state
(** O(1): assignments are only ever added, so the state is the
    assignment log as of now. *)

val restore : t -> state -> unit
(** Rewind the assignments to [state]. Restoring along the timeline
    the state was captured in removes only the assignments added
    since; restoring across timelines (the tables hold assignments the
    state never saw) rebuilds the tables from the state. *)
