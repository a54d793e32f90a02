(** A simulated user process: its VMAs, its Linux-managed stage-1 page
    table, and bookkeeping the LightZone kernel module hooks into. *)

type t = {
  pid : int;
  machine : Machine.t;
  mutable vmas : Vma.t list;
  root : int;  (** Linux-managed stage-1 root (physical address). *)
  asid : int;
  output : Buffer.t;  (** bytes written to stdout/stderr. *)
  mutable exit_code : int option;
  mutable killed : string option;
      (** set by trap extensions to force a Segv-style termination. *)
  mutable fault_count : int;
  mutable mmap_hint : int;  (** next address for hint-less mmap. *)
  (* Page-table synchronization hooks (paper Section 5.1.2: "their
     page tables are synchronized with the kernel-managed page
     tables"). The LightZone kernel module installs these to keep
     shadow stage-1 trees and stage-2 tables in sync. *)
  mutable on_map : (va:int -> pa:int -> prot:Vma.prot -> unit) option;
  mutable on_unmap : (va:int -> unit) option;
  mutable on_protect : (va:int -> prot:Vma.prot -> unit) option;
}

val create : Machine.t -> pid:int -> asid:int -> t

val find_vma : t -> int -> Vma.t option

val add_vma : t -> Vma.t -> unit
(** Raises [Invalid_argument] on overlap with an existing VMA. *)

val remove_vma_range : t -> start:int -> len:int -> Vma.t list
(** Remove and return the VMAs fully inside the range. *)

val mapped_pa : t -> va:int -> int option
(** Physical address currently backing [va] in the Linux-managed
    table, if resident. *)

(** {1 Snapshot support} *)

type state
(** The process's bookkeeping as an immutable value: its VMAs, exit
    and kill status, fault count, mmap hint and output. *)

val capture : t -> state

val restore : t -> state -> unit
(** Make [t]'s bookkeeping equal the captured one, output included.
    The identity fields ([pid], [machine], [root], [asid]) and the
    synchronization hooks are left alone. *)
