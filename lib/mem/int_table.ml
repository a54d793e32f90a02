(* Linear probing over [keys]/[vals]; [empty] marks a free bucket, so
   keys must be non-negative. The bucket count is a power of two at
   least twice the binding count, which keeps probe runs short and
   guarantees every run ends at an empty bucket. *)

let empty = -1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (* buckets - 1 *)
  mutable shift : int;  (* 63 - log2 buckets: the hash keeps the top bits *)
  mutable len : int;
}

let rec log2_at_least n b = if 1 lsl b >= n then b else log2_at_least n (b + 1)

let make_buckets bits =
  let n = 1 lsl bits in
  { keys = Array.make n empty;
    vals = Array.make n 0;
    mask = n - 1;
    shift = 63 - bits;
    len = 0 }

let create n = make_buckets (log2_at_least (2 * max n 4) 3)

(* Fibonacci hashing: one multiply by an odd 62-bit constant, keep the
   top bits of the 63-bit product. Packed TLB keys differ mostly in
   their low (page-number) and high (context) bits; the multiply
   spreads both over the bucket index. *)
let home t k = ((k * 0x2545F4914F6CDD1D) lsr t.shift) land t.mask

(* Bucket holding [k], or the empty bucket ending its probe run. *)
let rec bucket keys mask k i =
  let k' = keys.(i) in
  if k' = k || k' = empty then i else bucket keys mask k ((i + 1) land mask)

let find t k =
  let i = bucket t.keys t.mask k (home t k) in
  if t.keys.(i) = k then t.vals.(i) else -1

let rec replace t k v =
  if k < 0 || v < 0 then invalid_arg "Int_table.replace";
  let i = bucket t.keys t.mask k (home t k) in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.len + 1) > Array.length t.keys then begin
    grow t;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.len <- t.len + 1
  end

and grow t =
  let keys = t.keys and vals = t.vals in
  let bigger = make_buckets (64 - t.shift) in
  t.keys <- bigger.keys;
  t.vals <- bigger.vals;
  t.mask <- bigger.mask;
  t.shift <- bigger.shift;
  t.len <- 0;
  Array.iteri (fun i k -> if k <> empty then replace t k vals.(i)) keys

(* Backward-shift deletion: walk the rest of the probe run and move
   back every binding whose home lies cyclically at or before the
   hole, so that no lookup ever needs to probe past an empty bucket. *)
let remove t k =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let i = bucket keys mask k (home t k) in
  if keys.(i) = k then begin
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> empty do
      let kj = keys.(!j) in
      if (!j - home t kj) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- kj;
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    t.len <- t.len - 1
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.len <- 0

let length t = t.len

let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }
