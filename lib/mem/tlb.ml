type entry = {
  pa_page : int;
  attrs : Pte.s1_attrs;
  s2 : Stage2.perms option;
  page_bytes : int;
}

(* Keys are packed ints: bits 0..35 hold the virtual page number
   (48-bit VA space, 4 KiB granule) and bits 36.. hold a small dense
   "context id" interned per (vmid, asid) pair — ASID -1 marks a
   global entry (matches any ASID within the VMID). Packing the key
   into a non-negative int lets every probe go through [Int_table]:
   one multiply-hash and int compares, no allocation. *)

let vpn_bits = 36
let vpn_mask = (1 lsl vpn_bits) - 1

type t = {
  capacity : int;
  (* FIFO ring of live entries, oldest first: slots [head],
     [head + 1], ... [head + count - 1] (mod capacity). Each slot holds
     its packed key and a preboxed [Some entry], so a hit returns the
     stored box itself and front caches can remember a slot number
     instead of an [entry option] (int writes, no [caml_modify]). *)
  keys : int array;
  boxes : entry option array;
  mutable head : int;
  mutable count : int;
  mutable index : Int_table.t;  (* packed key -> slot *)
  mutable hit_count : int;
  mutable miss_count : int;
  (* Bumped on every mutation that can change a lookup's outcome
     (insert, evict, flush). Front caches revalidate against it, which
     also keeps their slot numbers meaningful: slots only move or die
     under a mutation. *)
  mutable gen : int;
  (* (vmid, asid) pair -> dense context id, plus the reverse map so
     flushes can recover the pair from a packed key. *)
  mutable ctx_ids : Int_table.t;
  mutable ctx_vmid : int array;  (* ctx id -> vmid *)
  mutable ctx_asid : int array;  (* ctx id -> asid *)
  mutable n_ctx : int;
  (* 2-entry MRU memo of interned (vmid, asid) pairs with the matching
     global (asid = -1) context; [last_*] is the current pair. Two
     pairs because a LightZone gate alternates between the domain's
     TTBR0 ASID and the global gate pages reached through TTBR1 (the
     paper's Section 8.2 global-bit design): a 1-entry memo re-interns
     on every such alternation. *)
  mutable last_comb : int;
  mutable last_ctx : int;
  mutable last_gctx : int;
  mutable prev_comb : int;
  mutable prev_ctx : int;
  mutable prev_gctx : int;
  (* Optional observability sinks. [pmu] receives refill/walk events
     from the MMU (which owns the walk) and flush events from here;
     [tracer] gets a timestamped event per flush, using its installed
     clock since the TLB has no cycle counter of its own. *)
  mutable pmu : Lz_arm.Pmu.t option;
  mutable tracer : Lz_trace.Trace.t option;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Tlb.create: capacity";
  { capacity;
    keys = Array.make capacity 0;
    boxes = Array.make capacity None;
    head = 0;
    count = 0;
    index = Int_table.create capacity;
    hit_count = 0;
    miss_count = 0;
    gen = 0;
    ctx_ids = Int_table.create 16;
    ctx_vmid = Array.make 16 0;
    ctx_asid = Array.make 16 0;
    n_ctx = 0;
    last_comb = min_int;
    last_ctx = 0;
    last_gctx = 0;
    prev_comb = min_int;
    prev_ctx = 0;
    prev_gctx = 0;
    pmu = None;
    tracer = None }

let set_pmu t p = t.pmu <- p
let pmu t = t.pmu
let set_tracer t tr = t.tracer <- tr

let note_flush t scope vmid =
  (match t.pmu with
  | Some p -> Lz_arm.Pmu.record p Lz_arm.Pmu.Event.tlb_flush
  | None -> ());
  match t.tracer with
  | Some tr -> Lz_trace.Trace.emit_now tr (Lz_trace.Trace.Tlb_flush { scope; vmid })
  | None -> ()

(* ASIDs are 14-bit TTBR fields (plus -1 for global), so (vmid, asid)
   combines injectively into one non-negative int. *)
let combine ~vmid ~asid = (vmid lsl 15) lor (asid + 1)

let intern t comb ~vmid ~asid =
  let id = Int_table.find t.ctx_ids comb in
  if id >= 0 then id
  else begin
    let id = t.n_ctx in
    t.n_ctx <- id + 1;
    let len = Array.length t.ctx_vmid in
    if id >= len then begin
      let v = Array.make (2 * len) 0 and a = Array.make (2 * len) 0 in
      Array.blit t.ctx_vmid 0 v 0 len;
      Array.blit t.ctx_asid 0 a 0 len;
      t.ctx_vmid <- v;
      t.ctx_asid <- a
    end;
    t.ctx_vmid.(id) <- vmid;
    t.ctx_asid.(id) <- asid;
    Int_table.replace t.ctx_ids comb id;
    id
  end

(* Set [last_ctx]/[last_gctx] for (vmid, asid), via the memo. *)
let[@inline] set_ctx_pair t ~vmid ~asid =
  let comb = combine ~vmid ~asid in
  if comb <> t.last_comb then begin
    let memo = comb = t.prev_comb in
    let c = if memo then t.prev_ctx else intern t comb ~vmid ~asid in
    let g =
      if memo then t.prev_gctx
      else intern t (combine ~vmid ~asid:(-1)) ~vmid ~asid:(-1)
    in
    t.prev_comb <- t.last_comb;
    t.prev_ctx <- t.last_ctx;
    t.prev_gctx <- t.last_gctx;
    t.last_comb <- comb;
    t.last_ctx <- c;
    t.last_gctx <- g
  end

let pack ~ctx ~vpage = (ctx lsl vpn_bits) lor ((vpage lsr 12) land vpn_mask)

let key_ctx k = k lsr vpn_bits
let key_vpage k = (k land vpn_mask) lsl 12

let page_bytes_at t s =
  match t.boxes.(s) with Some e -> e.page_bytes | None -> 0

(* The slot a full lookup hits, or -1. Entries for 2 MiB blocks are
   stored under their 2 MiB-aligned vpage: the 4 KiB page is probed
   first (own context, then global), then the 2 MiB page. Straight-line
   and closure-free: the first fetch under a freshly installed ASID
   always lands here, once per zone transit. *)
let[@inline] lookup_slot t ~vmid ~asid ~va =
  set_ctx_pair t ~vmid ~asid;
  let ctx = t.last_ctx and gctx = t.last_gctx in
  let vp4 = Lz_arm.Bits.align_down va 4096 in
  let s = Int_table.find t.index (pack ~ctx ~vpage:vp4) in
  let s =
    if s >= 0 then s else Int_table.find t.index (pack ~ctx:gctx ~vpage:vp4)
  in
  if s >= 0 then s
  else
    let vp2m = Lz_arm.Bits.align_down va (2 * 1024 * 1024) in
    let s = Int_table.find t.index (pack ~ctx ~vpage:vp2m) in
    let s =
      if s >= 0 then s else Int_table.find t.index (pack ~ctx:gctx ~vpage:vp2m)
    in
    if s >= 0 && page_bytes_at t s > 4096 then s else -1

(* Count one lookup outcome and return the slot's stored box. *)
let[@inline] account_slot t s =
  if s >= 0 then begin
    t.hit_count <- t.hit_count + 1;
    t.boxes.(s)
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    None
  end

(* Front caches hold only *hits*: a valid front entry means "a full
   lookup of this exact (vmid, asid, 4 KiB page) probe, against this
   table generation, hit this slot". Misses are never cached, so a
   front miss simply delegates to the full lookup — each probe is
   accounted exactly once either way.

   Two MRU-ordered slots, not one: copy-style loops alternate every
   access between a source and a destination page, and a 1-entry
   front thrashes to a 0% hit rate on exactly those (the nginx
   microbench pattern). All fields are ints, so fills and promotions
   are plain stores. *)
type front = {
  mutable f_key : int;
  mutable f_gen : int;
  mutable f_slot : int;
  mutable f2_key : int;
  mutable f2_gen : int;
  mutable f2_slot : int;
}

let front_create () =
  { f_key = min_int;
    f_gen = -1;
    f_slot = -1;
    f2_key = min_int;
    f2_gen = -1;
    f2_slot = -1 }

let front_reset fr =
  fr.f_key <- min_int;
  fr.f_gen <- -1;
  fr.f_slot <- -1;
  fr.f2_key <- min_int;
  fr.f2_gen <- -1;
  fr.f2_slot <- -1

(* The block execution engine proves (via the generation counter, or
   statically when no memory traffic intervened) that front probes it
   skips would have hit, and accounts them instead of re-running the
   probes. *)
let account_front_hits t n = t.hit_count <- t.hit_count + n

let[@inline] front_promote fr =
  let k = fr.f_key and g = fr.f_gen and s = fr.f_slot in
  fr.f_key <- fr.f2_key;
  fr.f_gen <- fr.f2_gen;
  fr.f_slot <- fr.f2_slot;
  fr.f2_key <- k;
  fr.f2_gen <- g;
  fr.f2_slot <- s

let[@inline] front_key t ~vmid ~asid ~va =
  set_ctx_pair t ~vmid ~asid;
  pack ~ctx:t.last_ctx ~vpage:(Lz_arm.Bits.align_down va 4096)

(* The slot a valid front entry holds for [key] (promoted to MRU), or
   -1. An invalid entry's generation is -1, which never matches. *)
let[@inline] front_slot t fr key =
  if fr.f_gen = t.gen && fr.f_key = key then fr.f_slot
  else if fr.f2_gen = t.gen && fr.f2_key = key then begin
    front_promote fr;
    fr.f_slot
  end
  else -1

let[@inline] front_probe t fr ~vmid ~asid ~va =
  let s = front_slot t fr (front_key t ~vmid ~asid ~va) in
  if s >= 0 then account_slot t s else None

(* Non-optional, unlike [lookup ?front]: an optional argument boxes
   the front in a [Some] at every call site, two minor words per
   front-missing probe on the core's per-access paths. *)
let[@inline] lookup_front t fr ~vmid ~asid ~va =
  let key = front_key t ~vmid ~asid ~va in
  let s = front_slot t fr key in
  if s >= 0 then account_slot t s
  else begin
    let s = lookup_slot t ~vmid ~asid ~va in
    if s >= 0 then begin
      (* New fill becomes MRU; the old MRU slides to the second slot. *)
      front_promote fr;
      fr.f_key <- key;
      fr.f_gen <- t.gen;
      fr.f_slot <- s
    end
    else begin
      (* A miss invalidates only the would-be MRU slot's trust in this
         key; keep the other slot — it covers a different page. *)
      fr.f_key <- min_int;
      fr.f_gen <- -1;
      fr.f_slot <- -1
    end;
    account_slot t s
  end

let lookup ?front t ~vmid ~asid ~va =
  match front with
  | None -> account_slot t (lookup_slot t ~vmid ~asid ~va)
  | Some fr -> lookup_front t fr ~vmid ~asid ~va

let slot_at t i =
  let s = t.head + i in
  if s >= t.capacity then s - t.capacity else s

(* Insert dedupes: a key already present only has its entry replaced
   in its slot — the FIFO order is untouched. A new key takes the
   ring's tail slot, evicting the oldest entry when full (the evicted
   head slot is then exactly the tail slot). *)
let insert t ~vmid ~asid ~va ~global entry =
  let vpage = Lz_arm.Bits.align_down va entry.page_bytes in
  set_ctx_pair t ~vmid ~asid;
  let ctx = if global then t.last_gctx else t.last_ctx in
  let key = pack ~ctx ~vpage in
  let s = Int_table.find t.index key in
  if s >= 0 then t.boxes.(s) <- Some entry
  else begin
    if t.count >= t.capacity then begin
      Int_table.remove t.index t.keys.(t.head);
      t.head <- slot_at t 1;
      t.count <- t.count - 1;
      t.gen <- t.gen + 1
    end;
    let s = slot_at t t.count in
    t.keys.(s) <- key;
    t.boxes.(s) <- Some entry;
    t.count <- t.count + 1;
    Int_table.replace t.index key s
  end;
  t.gen <- t.gen + 1

(* Drop every entry whose key satisfies [pred], compacting the
   survivors toward the head in FIFO order (each write lands on a slot
   already read), so eviction order is unaffected by flushes. *)
let remove_if t pred =
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    let s = slot_at t i in
    let k = t.keys.(s) in
    if pred k then Int_table.remove t.index k
    else begin
      let d = slot_at t !kept in
      if d <> s then begin
        t.keys.(d) <- k;
        t.boxes.(d) <- t.boxes.(s);
        Int_table.replace t.index k d
      end;
      incr kept
    end
  done;
  for i = !kept to t.count - 1 do
    t.boxes.(slot_at t i) <- None
  done;
  t.count <- !kept;
  t.gen <- t.gen + 1

let flush_all t =
  Int_table.clear t.index;
  Array.fill t.boxes 0 t.capacity None;
  t.head <- 0;
  t.count <- 0;
  t.gen <- t.gen + 1;
  note_flush t Lz_trace.Trace.Flush_all (-1)

let vmid_of_key t k = t.ctx_vmid.(key_ctx k)
let asid_of_key t k = t.ctx_asid.(key_ctx k)

let flush_vmid t vmid =
  remove_if t (fun k -> vmid_of_key t k = vmid);
  note_flush t Lz_trace.Trace.Flush_vmid vmid

let flush_asid t ~vmid ~asid =
  remove_if t (fun k -> vmid_of_key t k = vmid && asid_of_key t k = asid);
  note_flush t Lz_trace.Trace.Flush_asid vmid

let flush_va t ~vmid ~va =
  let p4k = Lz_arm.Bits.align_down va 4096 in
  let p2m = Lz_arm.Bits.align_down va (2 * 1024 * 1024) in
  remove_if t (fun k ->
      vmid_of_key t k = vmid
      &&
      let vp = key_vpage k in
      vp = p4k || vp = p2m);
  note_flush t Lz_trace.Trace.Flush_va vmid

let hits t = t.hit_count
let misses t = t.miss_count

let size t = Int_table.length t.index

let fifo_length t = t.count

let oldest t =
  if t.count = 0 then None
  else
    let k = t.keys.(t.head) in
    Some (vmid_of_key t k, asid_of_key t k, key_vpage k)

let[@inline] gen t = t.gen
let capacity t = t.capacity

(* Whole-TLB capture for machine snapshots: the ring (entries are
   immutable, so boxes are shared), its index, hit/miss counters and
   the (vmid, asid) context interning. The generation counter is *not*
   restored — it is bumped forward instead, so front caches and
   block-engine proofs anchored on a generation from the abandoned
   timeline can never revalidate against a same-numbered generation in
   the new one. Fronts cache hits only and every probe is accounted
   exactly once either way, so the bump is invisible to hit/miss
   statistics. *)

type state = {
  st_keys : int array;
  st_boxes : entry option array;
  st_head : int;
  st_count : int;
  st_index : Int_table.t;
  st_hits : int;
  st_misses : int;
  st_ctx_vmid : int array;  (* exactly the interned ids *)
  st_ctx_asid : int array;
}

let capture t =
  { st_keys = Array.copy t.keys;
    st_boxes = Array.copy t.boxes;
    st_head = t.head;
    st_count = t.count;
    st_index = Int_table.copy t.index;
    st_hits = t.hit_count;
    st_misses = t.miss_count;
    st_ctx_vmid = Array.sub t.ctx_vmid 0 t.n_ctx;
    st_ctx_asid = Array.sub t.ctx_asid 0 t.n_ctx }

(* [retag (old_vmid, new_vmid)] rewrites context tags while restoring:
   entries of [old_vmid] come back under [new_vmid]. Packed keys embed
   dense context ids, not VMIDs, so retagging touches only the
   interning maps — a forked machine adopts the warm image's TLB under
   its own VMID without rebuilding a single entry. *)
let restore ?retag t s =
  if Array.length s.st_keys <> t.capacity then
    invalid_arg "Tlb.restore: capacity mismatch";
  Array.blit s.st_keys 0 t.keys 0 t.capacity;
  Array.blit s.st_boxes 0 t.boxes 0 t.capacity;
  t.head <- s.st_head;
  t.count <- s.st_count;
  t.index <- Int_table.copy s.st_index;
  t.hit_count <- s.st_hits;
  t.miss_count <- s.st_misses;
  let map_vmid =
    match retag with
    | Some (old_vmid, new_vmid) ->
        fun v -> if v = old_vmid then new_vmid else v
    | None -> fun v -> v
  in
  let n = Array.length s.st_ctx_vmid in
  t.ctx_vmid <- Array.make (max 16 n) 0;
  t.ctx_asid <- Array.make (max 16 n) 0;
  t.ctx_ids <- Int_table.create n;
  for id = 0 to n - 1 do
    let vmid = map_vmid s.st_ctx_vmid.(id) and asid = s.st_ctx_asid.(id) in
    t.ctx_vmid.(id) <- vmid;
    t.ctx_asid.(id) <- asid;
    Int_table.replace t.ctx_ids (combine ~vmid ~asid) id
  done;
  t.n_ctx <- n;
  t.last_comb <- min_int;
  t.prev_comb <- min_int;
  t.gen <- t.gen + 1
