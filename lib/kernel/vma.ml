type prot = { r : bool; w : bool; x : bool }

type t = {
  start : int;
  len : int;
  mutable prot : prot;
}

let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }
let r = { r = true; w = false; x = false }
let rwx = { r = true; w = true; x = true }

let make ~start ~len prot =
  let aligned_start = Lz_arm.Bits.align_down start 4096 in
  let aligned_end = (start + len + 4095) / 4096 * 4096 in
  { start = aligned_start; len = aligned_end - aligned_start; prot }

let end_ t = t.start + t.len

let contains t addr = addr >= t.start && addr < end_ t

let overlaps t ~start ~len = start < end_ t && t.start < start + len
