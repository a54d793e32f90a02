type el = EL0 | EL1 | EL2

type t = {
  mutable el : el;
  mutable pan : bool;
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable daif : int;
  mutable sp_sel : bool;
}

let make el =
  { el; pan = false; n = false; z = false; c = false; v = false;
    daif = 0; sp_sel = true }

let copy t = { t with el = t.el }

let el_number = function EL0 -> 0 | EL1 -> 1 | EL2 -> 2

let el_of_number = function
  | 0 -> EL0
  | 1 -> EL1
  | 2 -> EL2
  | n -> invalid_arg (Printf.sprintf "Pstate.el_of_number: %d" n)

(* SPSR layout (AArch64): M[3:0] = EL and SP selection, bits 9..6 =
   DAIF, bit 22 = PAN, bits 31..28 = NZCV. *)
let to_spsr t =
  let m = (el_number t.el lsl 2) lor if t.sp_sel then 1 else 0 in
  let w = m in
  let w = w lor (t.daif lsl 6) in
  let w = Bits.set_bit w 22 t.pan in
  let w = Bits.set_bit w 31 t.n in
  let w = Bits.set_bit w 30 t.z in
  let w = Bits.set_bit w 29 t.c in
  let w = Bits.set_bit w 28 t.v in
  w

let of_spsr t w =
  let m = Bits.extract w ~hi:3 ~lo:0 in
  t.el <- el_of_number (m lsr 2);
  t.sp_sel <- m land 1 = 1;
  t.daif <- Bits.extract w ~hi:9 ~lo:6;
  t.pan <- Bits.bit w 22;
  t.n <- Bits.bit w 31;
  t.z <- Bits.bit w 30;
  t.c <- Bits.bit w 29;
  t.v <- Bits.bit w 28

let nzcv t =
  (if t.n then 8 else 0) lor (if t.z then 4 else 0)
  lor (if t.c then 2 else 0) lor if t.v then 1 else 0

let set_nzcv t w =
  t.n <- Bits.bit w 3;
  t.z <- Bits.bit w 2;
  t.c <- Bits.bit w 1;
  t.v <- Bits.bit w 0

let pp_el ppf el =
  Format.fprintf ppf "EL%d" (el_number el)
