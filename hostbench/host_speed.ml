(* Host speed calibration.

   On a shared host a core's speed drifts as co-tenants contend for
   it. On the 2-vCPU Xeon VM this benchmark was tuned on, a fixed
   in-cache integer loop ran anywhere from 750 to 1450 M adds/s within
   minutes, and the simulator's op rate followed it, though less than
   in proportion (see [sensitivity]).
   So host times are also reported at a reference host speed: the
   loop is timed between ops at least every [period_ns] and before
   each set-up sample, the slowdown is the median of the last [window]
   samples over the loop's reference time, and a time is divided by
   its scale, slowdown ** [sensitivity]. The loop allocates nothing
   and reads 32 KiB. *)

let words = Array.make 4096 1
let passes = 25

(* One sample's time at reference speed: about the loop's uncontended
   time on the tuning host, so normalized figures read close to
   uncontended wall time there. *)
let ref_ns = 70_000.

let period_ns = 20_000_000
let window = 9

(* Time one pass of the calibration loop. *)
let sample () =
  let t0 = Span_log.now_ns () in
  let s = ref 0 in
  for _ = 1 to passes do
    for j = 0 to Array.length words - 1 do
      s := !s + Array.unsafe_get words j
    done
  done;
  ignore (Sys.opaque_identity !s);
  Span_log.now_ns () - t0

type t = {
  ring : int array;
  mutable next : int;
  mutable last : int;  (** time of the latest sample. *)
  mutable slowdown : float;  (** median sample / [ref_ns]. *)
}

let median_ns ring =
  let a = Array.copy ring in
  Array.sort compare a;
  float_of_int a.(Array.length a / 2)

(* How closely times follow the loop: the slope of log time on log
   slowdown, measured within single runs of 30-150 s, per op and over
   bins of 2-7 s, was 0.46-0.82 for switch128 and churn4096 ops,
   0.61-0.66 for set-ups and 0.26-0.32 for fuzz ops, whose time is
   mostly allocation and copying. *)
let sensitivity = 0.5

let scale slowdown = slowdown ** sensitivity

let create () =
  let ring = Array.init window (fun _ -> sample ()) in
  { ring; next = 0; last = Span_log.now_ns ();
    slowdown = median_ns ring /. ref_ns }

let add t =
  t.ring.(t.next) <- sample ();
  t.next <- (t.next + 1) mod window;
  t.slowdown <- median_ns t.ring /. ref_ns;
  t.last <- Span_log.now_ns ()

(* Take a sample if [period_ns] has passed since the last one. Returns
   the time it took, so callers can keep it off their clocks. *)
let refresh t =
  let now = Span_log.now_ns () in
  if now - t.last < period_ns then 0
  else begin
    add t;
    t.last - now
  end

(* Refill the whole window now. *)
let recalibrate t =
  for _ = 1 to window do
    add t
  done
