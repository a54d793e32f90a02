(** Open-addressed hash table from non-negative ints to non-negative
    ints.

    The simulator's hot lookups — TLB entries by packed key, TLB
    context ids by (VMID, ASID), decoded pages by physical page
    number — are all int-to-int maps. [Hashtbl] serves them through
    the polymorphic [caml_hash] and [compare_val] C calls; this table
    hashes by one multiply and compares keys as ints, and no
    operation but growth allocates.

    Linear probing over a power-of-two bucket array kept at most half
    full; deletion shifts the rest of the probe run back, so there are
    no tombstones and a miss ends at the first empty bucket. *)

type t

val create : int -> t
(** [create n]: a table sized for [n] bindings without growing. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] if none. *)

val replace : t -> int -> int -> unit
(** Bind the key, replacing any previous binding. Raises
    [Invalid_argument] on a negative key or value. *)

val remove : t -> int -> unit
(** Unbind the key; no-op if unbound. *)

val clear : t -> unit
val length : t -> int

val copy : t -> t
