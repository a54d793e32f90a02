(** Permission bits for {!Api.lz_prot} (paper Table 2: "readable,
    writable, executable, and user"). *)

type t = int

val read : t
val write : t
val exec : t
val user : t
(** Mark the pages as user pages in LightZone PTEs — the PAN-protected
    domain. *)

val pgt_all : int
(** Pseudo page-table id: attach to every page table of the process
    (Listing 1 uses it for the PAN-protected key). *)

val has : t -> t -> bool
