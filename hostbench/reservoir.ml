(* Per-op samples in constant memory: every op while there is room,
   then a uniform sample of all ops (Vitter's algorithm R, seeded), so
   the harness's own memory does not grow with the op count. *)

let capacity = 1 lsl 16

type t = {
  op : int array;
  ns : int array;  (** wall time of the op *)
  insns : int array;  (** simulated instructions it retired *)
  slowdown : float array;  (** host slowdown when it ran *)
  mutable n : int;  (** samples held *)
  mutable seen : int;  (** ops offered *)
  rng : Random.State.t;
}

let create ~seed =
  {
    op = Array.make capacity 0;
    ns = Array.make capacity 0;
    insns = Array.make capacity 0;
    slowdown = Array.make capacity 1.;
    n = 0;
    seen = 0;
    rng = Random.State.make [| seed; 3 |];
  }

let add t ~op ~ns ~insns ~slowdown =
  let slot =
    if t.n < capacity then begin
      t.n <- t.n + 1;
      t.n - 1
    end
    else Random.State.int t.rng (t.seen + 1)
  in
  t.seen <- t.seen + 1;
  if slot < capacity then begin
    t.op.(slot) <- op;
    t.ns.(slot) <- ns;
    t.insns.(slot) <- insns;
    t.slowdown.(slot) <- slowdown
  end
