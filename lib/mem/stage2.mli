(** Stage-2 translation tables: 3-level, 4 KiB granule, 39-bit IPA
    (VTCR_EL2 with a 39-bit input region, concatenation-free start at
    level 1), matching the paper's evaluation configuration
    ("three-level stage-2 page tables"). *)

type perms = { read : bool; write : bool; exec : bool }

type walk_ok = {
  pa : int;
  perms : perms;
  level : int;
  page_bytes : int;
  pte_addr : int;
}

type walk_err = { fault_level : int }

val create_root : Phys.t -> int

val walk : Phys.t -> root:int -> ipa:int -> (walk_ok, walk_err) result

val map_page : Phys.t -> root:int -> ipa:int -> pa:int -> perms -> unit

val unmap : Phys.t -> root:int -> ipa:int -> unit

val set_perms : Phys.t -> root:int -> ipa:int -> perms -> bool

val map_identity_range :
  Phys.t -> root:int -> ipa:int -> len:int -> perms -> unit
(** Identity-map [ipa, ipa+len) page by page (host kernel-mode
    processes use an identity stage 2, paper Section 5.1.2). *)
