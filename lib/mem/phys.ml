let page_size = 4096

module Int_map = Map.Make (Int)

(* 64-bit words per frame: frames live in a shared Bigarray arena of
   int64 words, so aligned 64-bit loads/stores are single array
   accesses and a frame copy is a 512-word blit. *)
let frame_words = 512

type arena =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The backing store is shared by every copy-on-write view ([t]) of
   the same machine image. Frames are *slots* in the arena with a
   reference count; a view maps frame numbers to slots and unshares
   (copies) a slot before writing it while its refcount is > 1. *)
type store = {
  mutable arena : arena;
  mutable refs : int array;  (* slot -> refcount; 0 = free *)
  mutable free_slots : int list;
  mutable carved : int;  (* slots ever carved from the arena *)
  mutable live_slots : int;
  mutable unshares : int;  (* CoW copies performed *)
  (* Serializes the allocation slow paths (slot carve/recycle, refs
     growth, frame handout) when aliased views of one map execute on
     parallel host domains. The read/write fast paths stay lock-free:
     array-element accesses cannot tear in OCaml, concurrent accesses
     to *different* frames touch different indices, and concurrent
     unsynchronized accesses to the same frame are guest data races
     the simulator does not try to make deterministic. Growth of the
     arena/refs/slot_of/gens arrays must not happen during a parallel
     quantum — [reserve] pre-sizes them. *)
  lock : Mutex.t;
}

(* The frame map, shared by every alias ([alias]) of one view. Slot
   bindings, allocator state and generation counters live here so all
   cores of an SMP machine see one coherent physical memory. *)
type map = {
  (* frame number -> slot, -1 = hole (never-written frame, reads as
     zeroes without consuming a slot). Grown on demand. *)
  mutable slot_of : int array;
  mutable next_frame : int;
  mutable free_list : int list;  (* recycled frame numbers *)
  max_frames : int;
  mutable handed_out : int;
  (* Per-frame write-generation counters, grown on demand: the
     decoded-instruction cache revalidates a cached page by comparing
     the frame's generation, so any store into a frame (simulated or
     OCaml-modelled) invalidates cached decodes for it. *)
  mutable gens : int array;
  (* Scan stamps: frame number -> [(gen lsl 8) lor tag], the frame
     passed a content check named by [tag] at generation [gen]. Few
     frames carry one (code pages), so it is a persistent map that
     [cow_clone] shares in O(1). Never rewound, like [gens], so a stamp
     matches only while the frame holds the bytes that passed. *)
  mutable stamps : int Int_map.t;
  (* Every view sharing this map (self included): slot-identity
     changes performed at a barrier (snapshot, restore, clone pinning)
     must invalidate every view's memo, not just the caller's. *)
  mutable views : t list;
}

and t = {
  store : store;
  map : map;
  (* 1-entry memo of the last materialized frame touched: [last_base]
     is the word index of its slot. Invalidated whenever the frame's
     identity can change under it — free/zero, CoW unshare, snapshot,
     restore and clone (which change slot sharing) — so a memoized
     base can never alias a slot the frame no longer owns.
     [last_writable] additionally means the slot was unshared
     (refcount 1) when memoized, so stores may go straight through.
     Private per alias: each core's view keeps its own memo so the
     hot paths never share mutable host state across domains. *)
  mutable last_n : int;
  mutable last_base : int;
  mutable last_writable : bool;
}

(* A point-in-time image of one view: the frame map (every mapped slot
   holds an extra reference while the snapshot is live), the
   generation counters and the allocator state. Restoring is O(dirty):
   no frame contents are copied at capture or restore — only frames
   whose slot binding diverged afterwards ever get copied, by the
   unshare-on-write path itself. *)
type snapshot = {
  s_store : store;
  s_slot_of : int array;
  s_next_frame : int;
  s_free_list : int list;
  s_handed_out : int;
  mutable s_live : bool;
}

let mk_arena slots = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (slots * frame_words)

let create () =
  let store =
    { arena = mk_arena 1024;
      refs = Array.make 1024 0;
      free_slots = [];
      carved = 0;
      live_slots = 0;
      unshares = 0;
      lock = Mutex.create () }
  in
  let map =
    { slot_of = Array.make 1024 (-1);
      (* Frame 0 is never allocated so that physical address 0 can act
         as a "null" table pointer. *)
      next_frame = 1;
      free_list = [];
      max_frames = 512 * 256;
      handed_out = 0;
      gens = Array.make 1024 0;
      stamps = Int_map.empty;
      views = [] }
  in
  let t =
    { store; map; last_n = -1; last_base = -1; last_writable = false }
  in
  map.views <- [ t ];
  t

let invalidate_memo t =
  t.last_n <- -1;
  t.last_base <- -1;
  t.last_writable <- false

(* Invalidate the memo of every view sharing the map — required by
   slot-identity changes that other aliases may have memoized
   (snapshot/clone pinning, restore, frame free). Barrier-time or
   kernel-path only, never on the access fast path. *)
let invalidate_all_memos t =
  List.iter invalidate_memo t.map.views

(* Another view of the same store and frame map: same physical memory,
   private memo. One per simulated core in an SMP machine, so the hot
   read/write paths never contend on shared mutable host state. *)
let alias t =
  let v =
    { store = t.store;
      map = t.map;
      last_n = -1;
      last_base = -1;
      last_writable = false }
  in
  t.map.views <- v :: t.map.views;
  v

(* ------------------------------------------------------------------ *)
(* Slot management *)

let zero_slot st slot =
  Bigarray.Array1.fill
    (Bigarray.Array1.sub st.arena (slot * frame_words) frame_words)
    0L

let grow_store st =
  let old = Array.length st.refs in
  let bigger = 2 * old in
  let a = mk_arena bigger in
  Bigarray.Array1.blit st.arena (Bigarray.Array1.sub a 0 (old * frame_words));
  st.arena <- a;
  let r = Array.make bigger 0 in
  Array.blit st.refs 0 r 0 old;
  st.refs <- r

(* [zero] says the caller needs a zeroed slot (hole materialization);
   unshare copies over every word, so recycled garbage is fine there.
   The carve/recycle bookkeeping is serialized; the zeroing happens
   outside the lock because the slot is private once refs hits 1. *)
let alloc_slot st ~zero =
  Mutex.lock st.lock;
  let slot =
    match st.free_slots with
    | s :: rest ->
        st.free_slots <- rest;
        s
    | [] ->
        if st.carved >= Array.length st.refs then grow_store st;
        let s = st.carved in
        st.carved <- s + 1;
        s
  in
  st.refs.(slot) <- 1;
  st.live_slots <- st.live_slots + 1;
  Mutex.unlock st.lock;
  if zero then zero_slot st slot;
  slot

(* Only called from quiescent points (snapshot / restore / clone), so
   no lock: nothing else mutates refcounts concurrently there. *)
let incref st slot = st.refs.(slot) <- st.refs.(slot) + 1

let decref st slot =
  Mutex.lock st.lock;
  let r = st.refs.(slot) - 1 in
  st.refs.(slot) <- r;
  if r = 0 then begin
    st.free_slots <- slot :: st.free_slots;
    st.live_slots <- st.live_slots - 1
  end;
  Mutex.unlock st.lock

(* ------------------------------------------------------------------ *)
(* Frame map *)

let[@inline] slot_of t n =
  let m = t.map in
  if n < Array.length m.slot_of then m.slot_of.(n) else -1

(* Growth (array replacement) is serialized under the store lock, but
   a concurrent element-writer holding the *old* array would still be
   lost — [reserve] pre-sizes the arrays so growth never happens while
   parallel domains run. The element store itself is lock-free. *)
let set_slot t n slot =
  let m = t.map in
  if n >= Array.length m.slot_of then begin
    let st = t.store in
    Mutex.lock st.lock;
    let len = Array.length m.slot_of in
    if n >= len then begin
      let a = Array.make (max (n + 1) (2 * len)) (-1) in
      Array.blit m.slot_of 0 a 0 len;
      m.slot_of <- a
    end;
    Mutex.unlock st.lock
  end;
  m.slot_of.(n) <- slot

let bump_gen t n =
  let m = t.map in
  if n >= Array.length m.gens then begin
    let st = t.store in
    Mutex.lock st.lock;
    let len = Array.length m.gens in
    if n >= len then begin
      let g = Array.make (max (n + 1) (2 * len)) 0 in
      Array.blit m.gens 0 g 0 len;
      m.gens <- g
    end;
    Mutex.unlock st.lock
  end;
  m.gens.(n) <- m.gens.(n) + 1

let[@inline] page_gen t pa =
  let n = pa / page_size in
  let gens = t.map.gens in
  if n < Array.length gens then gens.(n) else 0

let stamp_of t pa ~tag =
  if tag land 0xFF <> tag then invalid_arg "Phys.stamp: tag outside 0..255";
  (page_gen t pa lsl 8) lor tag

let stamp t pa ~tag =
  let m = t.map in
  m.stamps <- Int_map.add (pa / page_size) (stamp_of t pa ~tag) m.stamps

let stamped t pa ~tag =
  match Int_map.find (pa / page_size) t.map.stamps with
  | s -> s = stamp_of t pa ~tag
  | exception Not_found -> false

(* Drop sibling aliases' memo of frame [n] after its slot binding
   changed (hole materialization, CoW unshare, free): a sibling core's
   cached base must not keep aliasing the slot the frame no longer
   owns. Slow paths only. *)
let forget_frame t n =
  List.iter
    (fun v -> if v != t && v.last_n = n then invalidate_memo v)
    t.map.views

(* Word base of frame [n]'s slot for reading; -1 when the frame is a
   hole (reads as zero). Shared slots are fine to read. *)
let[@inline] ro_base t n =
  if n = t.last_n then t.last_base
  else begin
    let slot = slot_of t n in
    if slot < 0 then -1
    else begin
      let base = slot * frame_words in
      t.last_n <- n;
      t.last_base <- base;
      t.last_writable <- t.store.refs.(slot) = 1;
      base
    end
  end

(* Word base of frame [n]'s slot for writing: materializes holes and
   unshares slots still referenced by another view or snapshot (the
   CoW break). Callers bump the generation themselves, as every write
   already did — an unshare alone copies identical contents, so cached
   decodes keyed on the generation stay valid until the store lands. *)
let rw_base t n =
  if n = t.last_n && t.last_writable then t.last_base
  else begin
    let st = t.store in
    let slot = slot_of t n in
    let slot =
      if slot < 0 then begin
        let s = alloc_slot st ~zero:true in
        set_slot t n s;
        forget_frame t n;
        s
      end
      else if st.refs.(slot) > 1 then begin
        let s = alloc_slot st ~zero:false in
        Bigarray.Array1.blit
          (Bigarray.Array1.sub st.arena (slot * frame_words) frame_words)
          (Bigarray.Array1.sub st.arena (s * frame_words) frame_words);
        decref st slot;
        st.unshares <- st.unshares + 1;
        set_slot t n s;
        forget_frame t n;
        s
      end
      else slot
    in
    let base = slot * frame_words in
    t.last_n <- n;
    t.last_base <- base;
    t.last_writable <- true;
    base
  end

(* ------------------------------------------------------------------ *)
(* Allocation *)

let alloc_frame t =
  let m = t.map in
  Mutex.protect t.store.lock (fun () ->
      m.handed_out <- m.handed_out + 1;
      match m.free_list with
      | n :: rest ->
          m.free_list <- rest;
          n * page_size
      | [] ->
          if m.next_frame >= m.max_frames then
            failwith "Phys.alloc_frame: physical memory exhausted";
          let n = m.next_frame in
          m.next_frame <- n + 1;
          n * page_size)

let alloc_frames t n =
  if n <= 0 then invalid_arg "Phys.alloc_frames";
  let m = t.map in
  Mutex.protect t.store.lock (fun () ->
      if m.next_frame + n > m.max_frames then
        failwith "Phys.alloc_frames: physical memory exhausted";
      let first = m.next_frame in
      m.next_frame <- first + n;
      m.handed_out <- m.handed_out + n;
      first * page_size)

(* Zero = drop to a hole: the slot (if any) goes back to the store and
   the frame reads as zeroes again. Every alias's memo of the frame is
   invalidated so a cached base can never alias the recycled slot. *)
let zero_frame t pa =
  let n = pa / page_size in
  let slot = slot_of t n in
  if slot >= 0 then begin
    decref t.store slot;
    t.map.slot_of.(n) <- -1;
    if t.last_n = n then invalidate_memo t;
    forget_frame t n;
    bump_gen t n
  end

let free_frame t pa =
  zero_frame t pa;
  let m = t.map in
  Mutex.protect t.store.lock (fun () ->
      m.handed_out <- m.handed_out - 1;
      m.free_list <- (pa / page_size) :: m.free_list)

let allocated_frames t = t.map.handed_out
let high_water t = t.map.next_frame

(* Pre-size every growable array so no array is replaced while aliased
   views run on parallel host domains: a domain still holding the old
   array would silently write to memory the swap abandoned. [frames]
   bounds the highest frame number (and, with CoW headroom folded in
   by the caller, slot count) the run may touch. Quiescent points
   only. *)
let reserve t ~frames =
  let m = t.map and st = t.store in
  Mutex.protect st.lock (fun () ->
      let len = Array.length m.slot_of in
      if frames > len then begin
        let a = Array.make frames (-1) in
        Array.blit m.slot_of 0 a 0 len;
        m.slot_of <- a
      end;
      let glen = Array.length m.gens in
      if frames > glen then begin
        let g = Array.make frames 0 in
        Array.blit m.gens 0 g 0 glen;
        m.gens <- g
      end;
      let slen = Array.length st.refs in
      if frames > slen then begin
        let bigger = ref slen in
        while !bigger < frames do
          bigger := 2 * !bigger
        done;
        let a = mk_arena !bigger in
        Bigarray.Array1.blit st.arena
          (Bigarray.Array1.sub a 0 (slen * frame_words));
        st.arena <- a;
        let r = Array.make !bigger 0 in
        Array.blit st.refs 0 r 0 slen;
        st.refs <- r
      end)

(* ------------------------------------------------------------------ *)
(* Accessors. All little-endian; 64-bit reads truncate to OCaml's 62
   tagged bits as before. *)

let read8 t pa =
  let base = ro_base t (pa / page_size) in
  if base < 0 then 0
  else
    let w =
      Bigarray.Array1.unsafe_get t.store.arena (base + ((pa land 4095) lsr 3))
    in
    Int64.to_int (Int64.shift_right_logical w ((pa land 7) * 8)) land 0xFF

let write8 t pa v =
  let n = pa / page_size in
  let base = rw_base t n in
  let i = base + ((pa land 4095) lsr 3) in
  let sh = (pa land 7) * 8 in
  let w = Bigarray.Array1.unsafe_get t.store.arena i in
  let w =
    Int64.logor
      (Int64.logand w (Int64.lognot (Int64.shift_left 0xFFL sh)))
      (Int64.shift_left (Int64.of_int (v land 0xFF)) sh)
  in
  Bigarray.Array1.unsafe_set t.store.arena i w;
  bump_gen t n

let[@inline] read32 t pa =
  let off = pa land 4095 in
  if off <= 4092 && pa land 7 <= 4 then begin
    let base = ro_base t (pa / page_size) in
    if base < 0 then 0
    else
      let w = Bigarray.Array1.unsafe_get t.store.arena (base + (off lsr 3)) in
      Int64.to_int (Int64.shift_right_logical w ((pa land 7) * 8))
      land 0xFFFFFFFF
  end
  else
    let b0 = read8 t pa and b1 = read8 t (pa + 1) in
    let b2 = read8 t (pa + 2) and b3 = read8 t (pa + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let write32 t pa v =
  if pa land 7 <= 4 then begin
    let n = pa / page_size in
    let base = rw_base t n in
    let i = base + ((pa land 4095) lsr 3) in
    let sh = (pa land 7) * 8 in
    let w = Bigarray.Array1.unsafe_get t.store.arena i in
    let w =
      Int64.logor
        (Int64.logand w (Int64.lognot (Int64.shift_left 0xFFFFFFFFL sh)))
        (Int64.shift_left (Int64.of_int (v land 0xFFFFFFFF)) sh)
    in
    Bigarray.Array1.unsafe_set t.store.arena i w;
    bump_gen t n
  end
  else
    for i = 0 to 3 do
      write8 t (pa + i) ((v lsr (8 * i)) land 0xFF)
    done

let[@inline] read64 t pa =
  if pa land 7 = 0 then begin
    let base = ro_base t (pa / page_size) in
    if base < 0 then 0
    else
      Int64.to_int
        (Bigarray.Array1.unsafe_get t.store.arena (base + ((pa land 4095) lsr 3)))
      land max_int
  end
  else
    let lo = read32 t pa and hi = read32 t (pa + 4) in
    (lo lor (hi lsl 32)) land max_int

let[@inline] write64 t pa v =
  if pa land 7 = 0 then begin
    let n = pa / page_size in
    let base = rw_base t n in
    Bigarray.Array1.unsafe_set t.store.arena
      (base + ((pa land 4095) lsr 3))
      (Int64.of_int v);
    bump_gen t n
  end
  else begin
    write32 t pa (v land 0xFFFFFFFF);
    write32 t (pa + 4) ((v lsr 32) land 0xFFFFFFFF)
  end

(* Scanned backwards so the list comes out in index order without a
   reversal; read from the slot directly, leaving the memo alone. *)
let nonzero_words t pa =
  let slot = slot_of t (pa / page_size) in
  if slot < 0 then []
  else begin
    let arena = t.store.arena and base = slot * frame_words in
    let acc = ref [] in
    for i = frame_words - 1 downto 0 do
      let w =
        Int64.to_int (Bigarray.Array1.unsafe_get arena (base + i)) land max_int
      in
      if w <> 0 then acc := w :: !acc
    done;
    !acc
  end

let read_bytes t pa len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let in_page = min (len - !pos) (page_size - (a land 4095)) in
    let base = ro_base t (a / page_size) in
    if base < 0 then Bytes.fill out !pos in_page '\000'
    else begin
      let arena = t.store.arena in
      let src = ref (a land 4095) and dst = ref !pos and left = ref in_page in
      (* Word-at-a-time when the source is 8-aligned. *)
      while !left >= 8 && !src land 7 = 0 do
        Bytes.set_int64_le out !dst
          (Bigarray.Array1.unsafe_get arena (base + (!src lsr 3)));
        src := !src + 8;
        dst := !dst + 8;
        left := !left - 8
      done;
      while !left > 0 do
        let w = Bigarray.Array1.unsafe_get arena (base + (!src lsr 3)) in
        Bytes.unsafe_set out !dst
          (Char.unsafe_chr
             (Int64.to_int (Int64.shift_right_logical w ((!src land 7) * 8))
             land 0xFF));
        incr src;
        incr dst;
        decr left
      done
    end;
    pos := !pos + in_page
  done;
  out

let write_bytes t pa b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let in_page = min (len - !pos) (page_size - (a land 4095)) in
    let n = a / page_size in
    let base = rw_base t n in
    let arena = t.store.arena in
    let dst = ref (a land 4095) and src = ref !pos and left = ref in_page in
    while !left >= 8 && !dst land 7 = 0 do
      Bigarray.Array1.unsafe_set arena
        (base + (!dst lsr 3))
        (Bytes.get_int64_le b !src);
      dst := !dst + 8;
      src := !src + 8;
      left := !left - 8
    done;
    while !left > 0 do
      let i = base + (!dst lsr 3) in
      let sh = (!dst land 7) * 8 in
      let w = Bigarray.Array1.unsafe_get arena i in
      let w =
        Int64.logor
          (Int64.logand w (Int64.lognot (Int64.shift_left 0xFFL sh)))
          (Int64.shift_left
             (Int64.of_int (Char.code (Bytes.unsafe_get b !src)))
             sh)
      in
      Bigarray.Array1.unsafe_set arena i w;
      incr dst;
      incr src;
      decr left
    done;
    bump_gen t n;
    pos := !pos + in_page
  done

(* ------------------------------------------------------------------ *)
(* Snapshot / restore / fork *)

let snapshot t =
  let m = t.map in
  Array.iter (fun s -> if s >= 0 then incref t.store s) m.slot_of;
  (* Sharing just went up: any alias's cached writable base may now
     alias a slot the snapshot also references. *)
  invalidate_all_memos t;
  { s_store = t.store;
    s_slot_of = Array.copy m.slot_of;
    s_next_frame = m.next_frame;
    s_free_list = m.free_list;
    s_handed_out = m.handed_out;
    s_live = true }

let check_snapshot t s ~who =
  if not s.s_live then invalid_arg (who ^ ": snapshot already released");
  if s.s_store != t.store then invalid_arg (who ^ ": snapshot of a different store")

let dirty_pages t s =
  check_snapshot t s ~who:"Phys.dirty_pages";
  let m = t.map in
  let dirty = ref 0 in
  let cur_len = Array.length m.slot_of
  and old_len = Array.length s.s_slot_of in
  for n = 0 to max cur_len old_len - 1 do
    let cur = if n < cur_len then m.slot_of.(n) else -1 in
    let old = if n < old_len then s.s_slot_of.(n) else -1 in
    if cur <> old then incr dirty
  done;
  !dirty

let restore t s =
  check_snapshot t s ~who:"Phys.restore";
  let m = t.map in
  let old_len = Array.length s.s_slot_of in
  if Array.length m.slot_of < old_len then begin
    let a = Array.make old_len (-1) in
    Array.blit m.slot_of 0 a 0 (Array.length m.slot_of);
    m.slot_of <- a
  end;
  let slots = m.slot_of in
  let dirty = ref 0 in
  (* A write after capture always unshares (the snapshot pins every
     slot it references), so "slot binding changed" is exactly "frame
     content diverged". Generation counters stay monotonic: dirty
     frames get a forward bump rather than their capture-time value,
     so a decode or superblock cached in the abandoned timeline can
     never revalidate against a same-numbered generation from this
     one. Clean frames were never written — their counters are
     already correct, and so are their refcounts: only a rebound
     frame moves one reference from its current slot to the
     snapshot's. The snapshot still pins its own slot, so the decref
     can only free a slot the snapshot does not hold. *)
  for n = 0 to Array.length slots - 1 do
    let cur = slots.(n) in
    let old = if n < old_len then s.s_slot_of.(n) else -1 in
    if cur <> old then begin
      incr dirty;
      bump_gen t n;
      if old >= 0 then incref t.store old;
      if cur >= 0 then decref t.store cur;
      slots.(n) <- old
    end
  done;
  m.next_frame <- s.s_next_frame;
  m.free_list <- s.s_free_list;
  m.handed_out <- s.s_handed_out;
  invalidate_all_memos t;
  !dirty

let same_frame t s n =
  check_snapshot t s ~who:"Phys.same_frame";
  slot_of t n = (if n < Array.length s.s_slot_of then s.s_slot_of.(n) else -1)

let release t s =
  check_snapshot t s ~who:"Phys.release";
  Array.iter (fun sl -> if sl >= 0 then decref t.store sl) s.s_slot_of;
  s.s_live <- false

let cow_clone t =
  let m = t.map in
  Array.iter (fun s -> if s >= 0 then incref t.store s) m.slot_of;
  invalidate_all_memos t;
  let map =
    { slot_of = Array.copy m.slot_of;
      next_frame = m.next_frame;
      free_list = m.free_list;
      max_frames = m.max_frames;
      handed_out = m.handed_out;
      gens = Array.copy m.gens;
      stamps = m.stamps;
      views = [] }
  in
  let v =
    { store = t.store; map; last_n = -1; last_base = -1;
      last_writable = false }
  in
  map.views <- [ v ];
  v

(* The inverse of [cow_clone]: every slot the view maps goes back to
   the store, so a finished fork leaves the store as it found it.
   Frames become holes; the generation bump keeps decodes cached from
   the dropped contents from revalidating, should the view be used
   again. *)
let drop_view t =
  let slots = t.map.slot_of in
  Array.iteri
    (fun n s ->
      if s >= 0 then begin
        decref t.store s;
        slots.(n) <- -1;
        bump_gen t n
      end)
    slots;
  invalidate_all_memos t

(* ------------------------------------------------------------------ *)
(* Accounting *)

type stats = {
  allocated : int;
  resident : int;
  shared : int;
  private_ : int;
  store_slots : int;
  unshares : int;
}

let stats t =
  let resident = ref 0 and shared = ref 0 in
  Array.iter
    (fun s ->
      if s >= 0 then begin
        incr resident;
        if t.store.refs.(s) > 1 then incr shared
      end)
    t.map.slot_of;
  { allocated = t.map.handed_out;
    resident = !resident;
    shared = !shared;
    private_ = !resident - !shared;
    store_slots = t.store.live_slots;
    unshares = t.store.unshares }
