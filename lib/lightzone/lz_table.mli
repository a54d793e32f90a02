(** LightZone-managed stage-1 page tables.

    Unlike the kernel's own tables ({!Lz_mem.Stage1}), every address a
    LightZone table contains — the TTBR root, table descriptors and
    leaf outputs — is a *fake* physical address resolved through the
    process's stage-2 tree (see {!Fake_phys}). Table frames themselves
    are stage-2-mapped read-only so the process can walk but never
    write them; the kernel module writes through its direct physical
    view. *)

type t = {
  id : int;  (** the lz_alloc page-table identifier. *)
  asid : int;
  root_real : int;
  root_fake : int;
  phys : Lz_mem.Phys.t;
  fake : Fake_phys.t;
  s2_root : int;
  mutable table_frames : int;  (** memory-overhead accounting. *)
}

val create :
  Lz_mem.Phys.t -> Fake_phys.t -> s2_root:int -> id:int -> asid:int -> t

val ttbr : t -> int
(** TTBR0_EL1 value: fake root address + ASID — what TTBRTab holds. *)

val map_page :
  t -> va:int -> fake_pa:int -> Lz_mem.Pte.s1_attrs -> unit
(** Map [va] to a (fake) output address, allocating intermediate
    tables (each new table frame gets its own fake address and a
    read-only stage-2 mapping). *)

val last_level_table_fake : t -> va:int -> int option
(** Fake physical address of the level-3 table page whose entries
    translate [va], or [None] if the walk to level 3 is incomplete.
    Table frames are stage-2 read-only: aliasing this address into a
    writable stage-1 mapping (the PTE-poking attack) must still fault
    at stage 2. Used by the pentest and fuzzing scenarios. *)

val unmap : t -> va:int -> unit
val mapped : t -> va:int -> bool
val destroy : t -> unit
(** Free table frames (stage-2 leaf targets are not owned). *)
