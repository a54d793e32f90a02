(* Generation-based ASID allocation with recycling.

   The hardware ASID field is finite (14 bits in our TTBR encoding)
   while zone churn is unbounded: a monotonically increasing counter
   either overflows the field or silently aliases a live context's
   TLB tag. This allocator follows the Linux arm64 scheme instead:

   - Freeing an ASID does NOT flush the TLB. The freed ASID goes to a
     "dirty" pool — its stale entries are unreachable (nothing runs
     under a dead ASID) and flushing on every lz_free would make
     create/destroy churn O(TLB) per connection.
   - Allocation hands out clean ASIDs (never used, or dirtied before
     the last rollover flush) in O(1) amortized via a rotor scan.
   - When no clean ASID remains, the generation is bumped and one
     [flush] callback invalidates the whole VM's stage-1 context —
     every dirty ASID becomes clean at the cost of a single flush.
     Live ASIDs survive rollover: their holders keep running and
     simply refill the TLB.

   Invariant: an ASID is handed out only if no TLB entry tagged with
   it can exist — it was either never used, or every use predates the
   most recent rollover flush. *)

type t = {
  space : int;  (* number of allocatable ASIDs: (1 lsl bits) - lo *)
  lo : int;  (* lowest allocatable ASID (0 is reserved for TTBR1) *)
  live : Bytes.t;  (* '\001' = currently held by a zone *)
  dirty : Bytes.t;  (* '\001' = freed since the last rollover flush *)
  used : Bytes.t;  (* '\001' = handed out at least once, ever *)
  mutable rotor : int;  (* next scan position, in [0, space) *)
  mutable live_count : int;
  mutable generation : int;
  mutable rollovers : int;
  mutable recycled : int;  (* allocations that reused a prior ASID *)
  flush : unit -> unit;
}

let create ?(bits = 14) ~flush () =
  if bits < 2 || bits > 14 then invalid_arg "Asid_alloc.create: bits";
  let space = (1 lsl bits) - 1 in
  {
    space;
    lo = 1;
    live = Bytes.make space '\000';
    dirty = Bytes.make space '\000';
    used = Bytes.make space '\000';
    rotor = 0;
    live_count = 0;
    generation = 0;
    rollovers = 0;
    recycled = 0;
    flush;
  }

let generation t = t.generation
let rollovers t = t.rollovers
let recycled t = t.recycled

let rollover t =
  t.generation <- t.generation + 1;
  t.rollovers <- t.rollovers + 1;
  t.flush ();
  Bytes.fill t.dirty 0 t.space '\000'

(* Scan at most [space] slots from the rotor for a clean, free ASID. *)
let scan t =
  let rec go i remaining =
    if remaining = 0 then None
    else if
      Bytes.get t.live i = '\000' && Bytes.get t.dirty i = '\000'
    then Some i
    else go (if i + 1 = t.space then 0 else i + 1) (remaining - 1)
  in
  go t.rotor t.space

let alloc t =
  if t.live_count >= t.space then
    failwith
      (Printf.sprintf "Asid_alloc: all %d ASIDs live (too many zones)"
         t.space);
  let slot =
    match scan t with
    | Some i -> i
    | None ->
        (* Every free ASID is dirty: bump the generation, flush the
           VM's TLB context once, and everything dirty becomes
           reusable. *)
        rollover t;
        (match scan t with
        | Some i -> i
        | None -> assert false (* live_count < space ⇒ a slot exists *))
  in
  Bytes.set t.live slot '\001';
  if Bytes.get t.used slot = '\001' then t.recycled <- t.recycled + 1
  else Bytes.set t.used slot '\001';
  t.live_count <- t.live_count + 1;
  t.rotor <- (if slot + 1 = t.space then 0 else slot + 1);
  slot + t.lo

let free t asid =
  let slot = asid - t.lo in
  if slot < 0 || slot >= t.space then invalid_arg "Asid_alloc.free: range";
  if Bytes.get t.live slot = '\000' then
    invalid_arg "Asid_alloc.free: ASID not live";
  Bytes.set t.live slot '\000';
  (* Deferred invalidation: the ASID keeps its (unreachable) TLB
     entries until the next rollover flush cleans them wholesale. *)
  Bytes.set t.dirty slot '\001';
  t.live_count <- t.live_count - 1

let is_live t asid =
  let slot = asid - t.lo in
  slot >= 0 && slot < t.space && Bytes.get t.live slot = '\001'

(* ------------------------------------------------------------------ *)
(* Snapshot support *)

type state = {
  st_live : Bytes.t;
  st_dirty : Bytes.t;
  st_used : Bytes.t;
  st_rotor : int;
  st_live_count : int;
  st_generation : int;
  st_rollovers : int;
  st_recycled : int;
}

let capture t =
  {
    st_live = Bytes.copy t.live;
    st_dirty = Bytes.copy t.dirty;
    st_used = Bytes.copy t.used;
    st_rotor = t.rotor;
    st_live_count = t.live_count;
    st_generation = t.generation;
    st_rollovers = t.rollovers;
    st_recycled = t.recycled;
  }

let restore t s =
  Bytes.blit s.st_live 0 t.live 0 t.space;
  Bytes.blit s.st_dirty 0 t.dirty 0 t.space;
  Bytes.blit s.st_used 0 t.used 0 t.space;
  t.rotor <- s.st_rotor;
  t.live_count <- s.st_live_count;
  t.generation <- s.st_generation;
  t.rollovers <- s.st_rollovers;
  t.recycled <- s.st_recycled

let state_bits s =
  (* Recover the bit width from the captured arrays. *)
  let space = Bytes.length s.st_live in
  let rec go b = if (1 lsl b) - 1 >= space then b else go (b + 1) in
  go 2
