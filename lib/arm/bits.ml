let[@inline] mask n =
  assert (n >= 0 && n <= 62);
  (1 lsl n) - 1

let extract w ~hi ~lo =
  assert (0 <= lo && lo <= hi && hi <= 62);
  (w lsr lo) land mask (hi - lo + 1)

let insert w ~hi ~lo v =
  assert (0 <= lo && lo <= hi && hi <= 62);
  let m = mask (hi - lo + 1) in
  w land lnot (m lsl lo) lor ((v land m) lsl lo)

let bit w i = (w lsr i) land 1 = 1

let set_bit w i b = if b then w lor (1 lsl i) else w land lnot (1 lsl i)

let sign_extend v ~width =
  assert (width > 0 && width <= 62);
  let v = v land mask width in
  if bit v (width - 1) then v - (1 lsl width) else v

let align_down addr a = addr land lnot (a - 1)

let is_aligned addr a = addr land (a - 1) = 0
