(** Span analysis: attribute cycles to named phases.

    Boundary events (gate markers, trap entry/exit) partition the run
    into contiguous spans; background time is "mainline"; traps nest.
    Each name carries two totals: exclusive cycles ([cycles], time the
    name was the innermost span — exclusive totals partition the
    window and drive coverage) and inclusive cycles
    ([inclusive_cycles], the whole enter-to-exit window of a trap,
    nested work included).  A Trap_exit retires open frames by the
    exception level it returns from, so forwarded exceptions (two
    enters, two exits — see the kernel module's vector-stub path)
    unwind without leaving dangling frames.

    Point events (flushes, retention, faults, ...) are counted per
    name.  Coverage is attributed cycles over the analysis window and
    is 1.0 unless the ring dropped boundary events. *)

type span = { name : string; start_cycles : int; stop_cycles : int }

type row = {
  name : string;
  count : int;  (** Exclusive segments under this name. *)
  cycles : int;  (** Exclusive (self) cycles. *)
  inclusive_cycles : int;
      (** Enter-to-exit cycles for trap names; equals [cycles] for
          names that do not nest. *)
}

type report = {
  spans : span list;  (** Individual exclusive spans in time order. *)
  rows : row list;  (** Aggregated per name, largest exclusive first. *)
  points : (string * int) list;
      (** Point-event counts by name. *)
  total_cycles : int;
  attributed_cycles : int;
  coverage : float;
  dropped : int;
  unbalanced : int;
      (** Trap frames still open at the window edge — nonzero for a
          run that ended inside a handler or a truncated trace. *)
}

val ec_name : int -> string
(** Short name for an ESR exception class ("svc", "brk", ...). *)

val analyze :
  ?start_cycles:int -> total_cycles:int -> dropped:int -> Trace.event list ->
  report

val of_trace : ?start_cycles:int -> total_cycles:int -> Trace.t -> report
(** Analyzes the buffered events, taking [dropped] from the tracer
    itself. *)

val top_spans : report -> int -> span list
(** The [k] longest individual spans. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
