(** Dense array-backed per-zone table with an O(1) free-list id
    allocator — the switch- and fault-path replacement for the old
    Hashtbl zone registry. Lookup is one array read; create/destroy
    churn reuses the lowest-water ids so the TTBRTab stays dense. *)

type 'a t

val create : unit -> 'a t

val reserve : 'a t -> int
(** Claim an id (recycled if available, else high-water). The slot
    reads as absent until {!set}. *)

val set : 'a t -> int -> 'a -> unit

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when the id is unbound. *)

val remove : 'a t -> int -> unit
(** Frees the id for reuse. Raises [Invalid_argument] when unbound. *)

val length : 'a t -> int
(** Live entries. *)

val high_water : 'a t -> int
(** One past the largest id ever issued. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** {1 Exact structural capture}

    The free list is LIFO allocation history; these preserve it
    verbatim so a restored machine recycles ids in exactly the order
    the captured one would have. *)

val free_ids : 'a t -> int list
(** Current free list, most recently freed first. *)

val restore_exact : 'a t -> slots:(int * 'a) list -> free:int list ->
  next:int -> unit
