open Lz_arm

type s1_attrs = {
  user : bool;
  read_only : bool;
  uxn : bool;
  pxn : bool;
  ng : bool;
}

let bit_valid = 0
let bit_type = 1 (* 1 = table (levels 0-2) / page (level 3) *)
let bit_ap1 = 6
let bit_ap2 = 7
let bit_af = 10
let bit_ng = 11
let bit_pxn = 53
let bit_uxn = 54
let addr_mask = 0xFFFFFFFFF000 (* bits 47..12 *)

let valid pte = Bits.bit pte bit_valid

let is_table ~level pte =
  level < 3 && valid pte && Bits.bit pte bit_type

let out_addr pte = pte land addr_mask

let make_s1_table ~pa = pa land addr_mask lor 0b11

let attr_bits a =
  let w = 1 lsl bit_af in
  let w = Bits.set_bit w bit_ap1 a.user in
  let w = Bits.set_bit w bit_ap2 a.read_only in
  let w = Bits.set_bit w bit_ng a.ng in
  let w = Bits.set_bit w bit_pxn a.pxn in
  let w = Bits.set_bit w bit_uxn a.uxn in
  w

let make_s1_page ~pa a = pa land addr_mask lor 0b11 lor attr_bits a

let make_s1_block ~pa a =
  if not (Bits.is_aligned pa (2 * 1024 * 1024)) then
    invalid_arg "Pte.make_s1_block: unaligned";
  pa land addr_mask lor 0b01 lor attr_bits a

let s1_attrs pte =
  { user = Bits.bit pte bit_ap1;
    read_only = Bits.bit pte bit_ap2;
    uxn = Bits.bit pte bit_uxn;
    pxn = Bits.bit pte bit_pxn;
    ng = Bits.bit pte bit_ng }

let with_s1_attrs pte a =
  let keep = pte land (addr_mask lor 0b11) in
  keep lor attr_bits a

(* Stage 2: S2AP[0] (bit 6) = read, S2AP[1] (bit 7) = write,
   XN (bit 54). *)
let make_s2_table ~pa = pa land addr_mask lor 0b11

let make_s2_page ~pa ~read ~write ~exec =
  let w = pa land addr_mask lor 0b11 lor (1 lsl bit_af) in
  let w = Bits.set_bit w 6 read in
  let w = Bits.set_bit w 7 write in
  Bits.set_bit w bit_uxn (not exec)

let s2_read pte = Bits.bit pte 6
let s2_write pte = Bits.bit pte 7
let s2_exec pte = not (Bits.bit pte bit_uxn)
