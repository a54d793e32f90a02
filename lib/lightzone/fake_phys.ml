type mode = Identity | Sequential

module Int_map = Map.Make (Int)

(* The assignments as one immutable value: a capture is the value
   itself, and a restore or a clone puts it back in O(1). Lookups walk
   a balanced tree instead of hashing. *)
type state = {
  next : int;
  fwd : int Int_map.t;  (* real frame -> fake frame *)
  rev : int Int_map.t;
}

(* Tables created over [t] keep sharing it, so they see every later
   assignment through the one mutable field. *)
type t = { mode : mode; mutable s : state }

let first_fake = 0x1000

let create mode =
  { mode; s = { next = first_fake; fwd = Int_map.empty; rev = Int_map.empty } }

let assign t ~real =
  let real = Lz_arm.Bits.align_down real 4096 in
  match t.mode with
  | Identity -> real
  | Sequential -> (
      let s = t.s in
      match Int_map.find_opt real s.fwd with
      | Some fake -> fake
      | None ->
          let fake = s.next in
          t.s <-
            { next = fake + 4096;
              fwd = Int_map.add real fake s.fwd;
              rev = Int_map.add fake real s.rev };
          fake)

let real_of_fake t fake =
  match t.mode with
  | Identity -> Some fake
  | Sequential -> Int_map.find_opt (Lz_arm.Bits.align_down fake 4096) t.s.rev

let fake_of_real t real =
  match t.mode with
  | Identity -> Some real
  | Sequential -> Int_map.find_opt (Lz_arm.Bits.align_down real 4096) t.s.fwd

(* Each assignment takes the next fake frame. *)
let assigned t =
  match t.mode with
  | Identity -> 0
  | Sequential -> (t.s.next - first_fake) / 4096

let clone t = { mode = t.mode; s = t.s }
let capture t = t.s
let restore t s = t.s <- s
