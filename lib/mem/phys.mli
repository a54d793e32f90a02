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

val create : ?size_mib:int -> unit -> t
(** Fresh view over a fresh backing store. [size_mib] bounds the bump
    allocator (default 512 MiB) — reads and writes beyond it still
    succeed (the address space is sparse), only allocation is
    bounded. *)

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
    (including [zero_frame] and [write_bytes]). The decoded-
    instruction cache uses it to revalidate cached pages; equal
    generations guarantee the frame's contents are unchanged. *)

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
