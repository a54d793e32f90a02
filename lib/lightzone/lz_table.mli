(** LightZone-managed stage-1 page tables.

    Unlike the kernel's own tables ({!Lz_mem.Stage1}), every address a
    LightZone table contains — the TTBR root, table descriptors and
    leaf outputs — is a *fake* physical address resolved through the
    process's stage-2 tree (see {!Fake_phys}). Table frames themselves
    are stage-2-mapped read-only so the process can walk but never
    write them; the kernel module writes through its direct physical
    view.

    A table is a plain value: its identity and root. The tree lives
    in the memory and fake-address assignments the caller passes, so
    a snapshot, its source and every fork of it share one record and
    each reads it through its own memory view and fake-address
    handle. *)

type t = {
  id : int;  (** the lz_alloc page-table identifier. *)
  asid : int;
  root_real : int;
  root_fake : int;
}

val create :
  Lz_mem.Phys.t -> Fake_phys.t -> s2_root:int -> id:int -> asid:int -> t
(** Allocate the root frame, give it a fake address and map that
    read-only at stage 2. *)

val ttbr : t -> int
(** TTBR0_EL1 value: fake root address + ASID — what TTBRTab holds. *)

val map_page :
  Lz_mem.Phys.t -> Fake_phys.t -> s2_root:int -> t -> va:int -> fake_pa:int ->
  Lz_mem.Pte.s1_attrs -> unit
(** Map [va] to a (fake) output address, allocating intermediate
    tables (each new table frame gets its own fake address and a
    read-only stage-2 mapping). *)

val last_level_table_fake : Lz_mem.Phys.t -> Fake_phys.t -> t -> va:int ->
  int option
(** Fake physical address of the level-3 table page whose entries
    translate [va], or [None] if the walk to level 3 is incomplete.
    Table frames are stage-2 read-only: aliasing this address into a
    writable stage-1 mapping (the PTE-poking attack) must still fault
    at stage 2. *)

val unmap : Lz_mem.Phys.t -> Fake_phys.t -> t -> va:int -> unit
val mapped : Lz_mem.Phys.t -> Fake_phys.t -> t -> va:int -> bool

val frames : Lz_mem.Phys.t -> Fake_phys.t -> t -> int
(** Table frames in the tree, root included (memory-overhead
    accounting). Only {!destroy} frees an intermediate table, so this
    is every frame the table has allocated. *)

val destroy : Lz_mem.Phys.t -> Fake_phys.t -> s2_root:int -> t -> unit
(** Free the table frames, children before their parent in
    descriptor-index order, and drop their stage-2 mappings (stage-2
    leaf targets are not owned). *)
