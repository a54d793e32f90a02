(** Simulated physical memory: 4 KiB frames in a refcounted,
    copy-on-write slot store backed by a Bigarray of 64-bit words.

    Every [t] is a *view*: a map from frame numbers to slots in a
    shared backing store. Views created by {!cow_clone} (and images
    captured by {!snapshot}) share slots; a write to a shared slot
    copies it first (unshare-on-write), so forking a machine or
    restoring a snapshot costs O(frames touched since), never
    O(image size).

    All multi-byte accesses are little-endian. 64-bit reads are
    truncated to OCaml's 62 tagged bits; page-table entries and
    simulated data never use bits 62–63, so the truncation is
    unobservable inside the machine. *)

type t

val page_size : int
(** 4096. *)

val create : unit -> t
(** Fresh view over a fresh backing store. The bump allocator hands
    out 512 MiB — reads and writes beyond it still succeed (the
    address space is sparse), only allocation is bounded. *)

val alias : t -> t
(** Another handle onto the {e same} physical memory: the store and
    frame map are shared (a write through one alias is visible through
    all), only the one-entry access memo is private. One alias per
    simulated core in an SMP machine keeps the hot read/write fast
    paths free of shared mutable host state; allocator and CoW slow
    paths are serialized by a store-wide mutex. *)

val reserve : t -> frames:int -> unit
(** Pre-size every growable internal array to hold at least [frames]
    frames (and as many slots), so no array is reallocated while
    aliases execute on parallel host domains — a domain still holding
    a replaced array would write to memory the swap abandoned. Call
    from a quiescent point before parallel execution; include CoW
    headroom in [frames] if snapshots will be live. *)

val alloc_frame : t -> int
(** Allocate a zeroed 4 KiB frame; returns its physical address.
    Raises [Failure] when physical memory is exhausted. *)

val alloc_frames : t -> int -> int
(** [alloc_frames t n] allocates [n] contiguous frames, returning the
    physical address of the first. *)

val free_frame : t -> int -> unit
(** Return a frame to the allocator free list and zero it. *)

val allocated_frames : t -> int
(** Number of frames currently handed out (for memory-overhead
    accounting, paper Section 9). *)

val high_water : t -> int
(** One past the highest frame number the bump allocator has ever
    handed out — the sizing input for {!reserve}. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit
val read64 : t -> int -> int
val write64 : t -> int -> int -> unit

val nonzero_words : t -> int -> int list
(** [nonzero_words t pa] is every nonzero 64-bit word of the frame
    containing [pa], as {!read64} would return it, in index order; a
    never-written frame has none. One pass over the frame's slot in
    place of 512 {!read64} calls. *)

val read_bytes : t -> int -> int -> Bytes.t
(** [read_bytes t pa len]. *)

val write_bytes : t -> int -> Bytes.t -> unit

val zero_frame : t -> int -> unit
(** Zero the frame containing the given physical address. *)

val page_gen : t -> int -> int
(** [page_gen t pa] is the write-generation counter of the frame
    containing [pa]: it increases on every store into the frame
    (including [zero_frame] and [write_bytes]). Equal generations in
    one view guarantee the frame's contents are unchanged. Two users
    rely on that: the decoded-instruction cache revalidates cached
    pages by it, and {!stamped} answers by it. *)

val stamp : t -> int -> tag:int -> unit
(** [stamp t pa ~tag] records that the frame containing [pa], as it
    reads now, passed the content check named by [tag] (0..255; the
    LightZone module stamps a clean sanitizer scan, tagged with the
    sanitizer mode). Stamps are per view: {!alias}es share them,
    {!cow_clone} copies them, {!restore} leaves them alone. A frame
    has one stamp; a new one replaces it. *)

val stamped : t -> int -> tag:int -> bool
(** [stamped t pa ~tag] is [true] iff the frame's stamp has [tag] and
    was made at the frame's current generation, so the frame holds
    the bytes that passed. Any generation bump makes a stamp stale: a
    store, {!zero_frame}, {!free_frame}, the restore of a dirty frame,
    {!drop_view}. A stamp is not a content key: {!cow_clone} copies
    generations, so two forks can hold different bytes at one
    generation, and a stamp answers only in the view that made it (or
    a clone taken after it). If stores into some frames ever stop
    bumping the generation (a per-frame "a decoder cached it" flag),
    stamping a frame must set that flag too. *)

(** {1 Snapshot, restore and fork} *)

type snapshot
(** A point-in-time image of one view: frame map (slots pinned by
    refcount), generation counters, allocator state. Holding one costs
    O(frame map), not O(contents). *)

val snapshot : t -> snapshot
(** Capture the view. No frame contents are copied — slots are pinned
    by refcount and copied lazily by subsequent unshare-on-write. *)

val restore : t -> snapshot -> int
(** Rewind the view to the captured image. Returns the number of
    dirty frames (frames whose slot binding diverged since capture) —
    the restore work is proportional to that count. Dirty frames'
    generation counters are bumped {e forward} (never rewound), so
    decode/superblock caches from the abandoned timeline revalidate
    or drop correctly without a flush. The snapshot remains live and
    can be restored again. *)

val same_frame : t -> snapshot -> int -> bool
(** [same_frame t s n] is [true] iff frame number [n] of the view is
    still bound to the slot the live snapshot [s] holds for it (or
    both have it as a never-written hole). The snapshot pins that
    slot, so every write to the frame since would have unshared it:
    [true] means the frame's contents equal the captured ones. *)

val release : t -> snapshot -> unit
(** Drop the snapshot's pins. The snapshot must not be used again. *)

val dirty_pages : t -> snapshot -> int
(** Number of frames whose slot binding differs from the capture,
    without restoring. *)

val cow_clone : t -> t
(** Fork the view: a new [t] over the same backing store with every
    frame initially shared. Writes on either side unshare per-frame.
    Allocator state and generation counters are copied, so the clone
    allocates and invalidates independently. *)

val drop_view : t -> unit
(** The inverse of {!cow_clone}: give back the view's reference to
    every slot it maps and leave every frame a hole, invalidating the
    memo of every alias. Slots no other view or snapshot holds return
    to the store; snapshots of the view keep their own pins. Call
    once the view (a finished fork) will not run again. *)

(** {1 Accounting} *)

type stats = {
  allocated : int;  (** frames handed out by this view's allocator *)
  resident : int;  (** frames with materialized (non-zero) contents *)
  shared : int;  (** resident frames whose slot is CoW-shared *)
  private_ : int;  (** resident frames exclusively owned *)
  store_slots : int;  (** live slots in the shared backing store *)
  unshares : int;  (** CoW copies performed store-wide since creation *)
}

val stats : t -> stats
