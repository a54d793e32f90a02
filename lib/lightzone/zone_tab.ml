(* Dense, array-backed table of per-zone state indexed by zone id.

   The registry the zone switch and fault paths consult used to be a
   Hashtbl keyed by pgt id: every probe hashed, and walking all zones
   (ASID index rebuilds, memory accounting, snapshots) paid hashing plus
   bucket-chain cache misses that grow with occupancy. At 4096+ zones
   this is the difference between a flat switch path and one that
   degrades with tenant count, so lookups are a single array read and
   ids come from an O(1) free-list that reuses the lowest-water slots
   under create/destroy churn (keeping the TTBRTab dense). *)

type 'a t = {
  mutable slots : 'a option array;
  mutable free : int list;  (* recycled ids, LIFO *)
  mutable next : int;  (* high-water mark: ids in [0, next) were issued *)
  mutable count : int;  (* live entries *)
}

let create () =
  { slots = Array.make 16 None; free = []; next = 0; count = 0 }

let length t = t.count
let high_water t = t.next

let grow t want =
  let len = Array.length t.slots in
  if want > len then begin
    let slots = Array.make (max want (2 * len)) None in
    Array.blit t.slots 0 slots 0 len;
    t.slots <- slots
  end

(* Claim an id without binding a value yet — the caller usually needs
   the id to construct the value. A reserved slot reads as absent
   until [set]. *)
let reserve t =
  match t.free with
  | id :: rest ->
      t.free <- rest;
      t.count <- t.count + 1;
      id
  | [] ->
      let id = t.next in
      grow t (id + 1);
      t.next <- id + 1;
      t.count <- t.count + 1;
      id

let set t id v =
  if id < 0 || id >= t.next then invalid_arg "Zone_tab.set: id";
  t.slots.(id) <- Some v

let find_opt t id =
  if id < 0 || id >= t.next then None else t.slots.(id)

let mem t id = find_opt t id <> None

let get t id =
  match find_opt t id with
  | Some v -> v
  | None -> invalid_arg "Zone_tab.get: no such zone"

let remove t id =
  match find_opt t id with
  | None -> invalid_arg "Zone_tab.remove: no such zone"
  | Some _ ->
      t.slots.(id) <- None;
      t.free <- id :: t.free;
      t.count <- t.count - 1

let iteri f t =
  for id = 0 to t.next - 1 do
    match t.slots.(id) with Some v -> f id v | None -> ()
  done

let fold f t acc =
  let acc = ref acc in
  iteri (fun id v -> acc := f id v !acc) t;
  !acc

(* Exact structural snapshot. The free list is LIFO allocation
   history, so capture/restore must preserve it verbatim: rebuilding
   it in ascending order would make a restored machine recycle ids in
   a different order than the captured one would have, breaking
   snapshot-transparency byte-identity the first time a zone is
   created after restore. *)
let free_ids t = t.free

let restore_exact t ~slots ~free ~next =
  grow t next;
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- next;
  t.free <- free;
  t.count <- 0;
  List.iter
    (fun (id, v) ->
      if id < 0 || id >= next then invalid_arg "Zone_tab.restore_exact: id";
      t.slots.(id) <- Some v;
      t.count <- t.count + 1)
    slots
