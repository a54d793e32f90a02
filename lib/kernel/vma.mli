(** Virtual memory areas — the kernel's per-process view of what is
    mapped where with which user-visible permissions. Page-fault
    handling and LightZone's permission intersection (paper
    Section 6.1) both consult VMAs. *)

type prot = { r : bool; w : bool; x : bool }

type t = {
  start : int;
  len : int;
  mutable prot : prot;
}

val rw : prot
val rx : prot
val r : prot
val rwx : prot

val make : start:int -> len:int -> prot -> t
(** [start] and [len] are rounded out to page boundaries. *)

val end_ : t -> int
val contains : t -> int -> bool
val overlaps : t -> start:int -> len:int -> bool
