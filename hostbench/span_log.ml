(* In-memory span log for traced benchmark runs.

   A span brackets one call the benchmark makes into a layer's public
   function, or one whole op or set-up. Each span reads the monotonic
   clock and the GC's allocation counters at its two boundaries; the
   caller may add the simulated instructions retired inside it. Totals
   per span name (count, inclusive and self time, counter deltas) are
   folded as spans close, separately for set-up and for ops. The
   first [capacity] spans of ops (and every set-up's root span) are
   also kept verbatim for the trace file written when the run ends.
   While the log is off, [enter] and [leave] return at once and record
   nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = int

type totals = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_gcs : int;
  mutable insns : int;
}

let zero_totals () =
  { count = 0; total_ns = 0; self_ns = 0; minor_words = 0.;
    promoted_words = 0.; major_gcs = 0; insns = 0 }

type kind_info = {
  name : string;
  gc : bool;  (** also read promoted words and major GCs (allocates). *)
  in_setup : totals;
  in_ops : totals;
}

let max_depth = 8

type t = {
  mutable on : bool;
  mutable op : int;  (** current op id; -1 during set-up. *)
  mutable kinds : kind_info array;
  mutable nkinds : int;
  (* open spans, innermost last *)
  st_kind : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  st_minor : float array;
  st_promoted : float array;
  st_majors : int array;
  mutable depth : int;
  (* stored spans *)
  capacity : int;
  sp_kind : int array;
  sp_start : int array;
  sp_stop : int array;
  sp_parent : int array;
  sp_op : int array;
  sp_insns : int array;
  sp_minor : float array;
  mutable nspans : int;
  mutable dropped : int;  (** op spans past [capacity]. *)
}

let create ~capacity () =
  {
    on = false;
    op = -1;
    kinds = [||];
    nkinds = 0;
    st_kind = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_minor = Array.make max_depth 0.;
    st_promoted = Array.make max_depth 0.;
    st_majors = Array.make max_depth 0;
    depth = 0;
    capacity;
    sp_kind = Array.make capacity 0;
    sp_start = Array.make capacity 0;
    sp_stop = Array.make capacity 0;
    sp_parent = Array.make capacity (-1);
    sp_op = Array.make capacity (-1);
    sp_insns = Array.make capacity 0;
    sp_minor = Array.make capacity 0.;
    nspans = 0;
    dropped = 0;
  }

(* Register a span name; returns the handle [enter] takes. Registering
   a name twice returns the first handle. *)
let kind ?(gc = false) t name =
  let rec find i =
    if i = t.nkinds then begin
      let k =
        { name; gc; in_setup = zero_totals (); in_ops = zero_totals () }
      in
      t.kinds <- Array.append t.kinds [| k |];
      t.nkinds <- t.nkinds + 1;
      i
    end
    else if t.kinds.(i).name = name then i
    else find (i + 1)
  in
  find 0

let enter t k =
  if t.on then begin
    let d = t.depth in
    if d = max_depth then invalid_arg "Span_log.enter: spans nested too deep";
    let id =
      if t.op < 0 && d > 0 then -1
      else if t.nspans < t.capacity then begin
        t.nspans <- t.nspans + 1;
        t.nspans - 1
      end
      else begin
        t.dropped <- t.dropped + 1;
        -1
      end
    in
    t.st_kind.(d) <- k;
    t.st_id.(d) <- id;
    t.st_child.(d) <- 0;
    t.st_minor.(d) <- Gc.minor_words ();
    if t.kinds.(k).gc then begin
      let s = Gc.quick_stat () in
      t.st_promoted.(d) <- s.Gc.promoted_words;
      t.st_majors.(d) <- s.Gc.major_collections
    end;
    t.depth <- d + 1;
    t.st_start.(d) <- now_ns ()
  end

let leave ?(insns = 0) t =
  if t.on then begin
    let stop = now_ns () in
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Span_log.leave: no open span";
    t.depth <- d;
    let k = t.st_kind.(d) in
    let info = t.kinds.(k) in
    let dur = stop - t.st_start.(d) in
    let minor = Gc.minor_words () -. t.st_minor.(d) in
    let tot = if t.op >= 0 then info.in_ops else info.in_setup in
    tot.count <- tot.count + 1;
    tot.total_ns <- tot.total_ns + dur;
    tot.self_ns <- tot.self_ns + dur - t.st_child.(d);
    tot.minor_words <- tot.minor_words +. minor;
    tot.insns <- tot.insns + insns;
    if info.gc then begin
      let s = Gc.quick_stat () in
      tot.promoted_words <-
        tot.promoted_words +. s.Gc.promoted_words -. t.st_promoted.(d);
      tot.major_gcs <- tot.major_gcs + s.Gc.major_collections - t.st_majors.(d)
    end;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let id = t.st_id.(d) in
    if id >= 0 then begin
      t.sp_kind.(id) <- k;
      t.sp_start.(id) <- t.st_start.(d);
      t.sp_stop.(id) <- stop;
      t.sp_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1);
      t.sp_op.(id) <- t.op;
      t.sp_insns.(id) <- insns;
      t.sp_minor.(id) <- minor
    end
  end

let span t k f =
  enter t k;
  let r = f () in
  leave t;
  r

let find t name =
  let rec go i =
    if i = t.nkinds then None
    else if t.kinds.(i).name = name then Some t.kinds.(i)
    else go (i + 1)
  in
  go 0

let ops_totals t name =
  match find t name with Some k -> k.in_ops | None -> zero_totals ()

let setup_totals t name =
  match find t name with Some k -> k.in_setup | None -> zero_totals ()

(* Layer of a span name: the text before its first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time inside ops, summed per layer, in first-seen order. *)
let ops_self_by_layer t =
  let acc = ref [] in
  for i = 0 to t.nkinds - 1 do
    let k = t.kinds.(i) in
    let l = layer k.name in
    let prev = try List.assoc l !acc with Not_found -> 0 in
    acc := (l, prev + k.in_ops.self_ns) :: List.remove_assoc l !acc
  done;
  List.rev !acc

(* One JSON object per stored span, oldest first. *)
let write_spans t oc =
  for id = 0 to t.nspans - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\
       \"end_ns\":%d,\"insns\":%d,\"minor_words\":%.0f}\n"
      id t.kinds.(t.sp_kind.(id)).name t.sp_parent.(id) t.sp_op.(id)
      t.sp_start.(id) t.sp_stop.(id) t.sp_insns.(id) t.sp_minor.(id)
  done
