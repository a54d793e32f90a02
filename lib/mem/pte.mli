(** Page-table entry bit layouts (VMSAv8-64, 4 KiB granule).

    Stage-1 descriptors carry the attribute bits LightZone manipulates:
    AP[1] ("user" — EL0 accessible, the bit PAN keys on), AP[2]
    (read-only), UXN/PXN (unprivileged / privileged execute never), and
    nG (not-global; global PTEs survive ASID switches in the TLB, which
    is what makes LightZone's TTBR switch cheap for unprotected
    memory). Stage-2 descriptors use S2AP read/write bits and XN. *)

type s1_attrs = {
  user : bool;      (** AP\[1\]: accessible from EL0 — a "user page". *)
  read_only : bool; (** AP\[2\]. *)
  uxn : bool;       (** Unprivileged execute never. *)
  pxn : bool;       (** Privileged execute never. *)
  ng : bool;        (** not-Global: true = ASID-specific TLB entry. *)
}

val valid : int -> bool
val is_table : level:int -> int -> bool
(** A table descriptor (levels 0..2 only; level-3 entries are pages). *)

val out_addr : int -> int
(** Output address, bits 47..12. *)

(** {1 Stage 1} *)

val make_s1_table : pa:int -> int
val make_s1_page : pa:int -> s1_attrs -> int
val make_s1_block : pa:int -> s1_attrs -> int
(** Level-2 block descriptor mapping 2 MiB (huge pages, used by the
    NVM workload). *)

val s1_attrs : int -> s1_attrs
val with_s1_attrs : int -> s1_attrs -> int
(** Replace the attribute bits, preserving address and descriptor
    type. *)

(** {1 Stage 2} *)

val make_s2_table : pa:int -> int
val make_s2_page : pa:int -> read:bool -> write:bool -> exec:bool -> int
val s2_read : int -> bool
val s2_write : int -> bool
val s2_exec : int -> bool
