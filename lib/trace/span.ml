(* Span building: turn a flat event stream into named, contiguous
   cycle intervals and aggregate them per phase.

   Boundary events (gate phase markers, trap entry/exit) close the
   current span and open the next one.  Traps nest: each Trap_enter
   pushes a frame recording the interrupted span, the EL the handler
   runs at, and the entry timestamp.  A Trap_exit retires frames by
   exception level — it pops up to and including the innermost frame
   whose handler EL matches the ERET's [from_el], so a forwarded
   exception (EL1 stub enter, then HVC enter, then one EL2 exit and
   one stub-retiring exit) unwinds cleanly instead of leaving dangling
   frames that swallow mainline time.

   Two cycle totals are kept per name:
   - exclusive ([cycles]): time the name was the innermost active
     span.  Exclusive totals partition the window, so they sum to the
     attributed cycles and drive coverage.
   - inclusive ([inclusive_cycles]): for trap names, the whole
     enter-to-exit window including nested spans (a Lowvisor forward
     inside a gate pass shows up under both its own name exclusively
     and the enclosing trap inclusively).  For non-nesting names it
     equals the exclusive total.

   All other payloads are point annotations counted per name.  Every
   cycle between [start_cycles] and [total_cycles] lands in exactly
   one exclusive span (background time is "mainline"), so coverage
   degrades only when the ring dropped events. *)

type span = { name : string; start_cycles : int; stop_cycles : int }

type row = {
  name : string;
  count : int;
  cycles : int;
  inclusive_cycles : int;
}

type report = {
  spans : span list;
  rows : row list;
  points : (string * int) list;
  total_cycles : int;
  attributed_cycles : int;
  coverage : float;
  dropped : int;
  unbalanced : int;
}

let ec_name = function
  | 0x00 -> "undef"
  | 0x01 -> "wfi"
  | 0x15 -> "svc"
  | 0x16 -> "hvc"
  | 0x17 -> "smc"
  | 0x18 -> "sysreg"
  | 0x20 | 0x21 -> "iabort"
  | 0x24 | 0x25 -> "dabort"
  | 0x34 | 0x35 -> "watchpoint"
  | 0x3C -> "brk"
  | ec -> Printf.sprintf "ec%02x" ec

(* IRQ span names keyed by the well-known PPI INTIDs the simulator
   raises (Lz_irq.Gic assignments: 30 = EL1 physical timer, 23 = PMU
   overflow). *)
let irq_name = function
  | 30 -> "irq.timer"
  | 23 -> "irq.pmu"
  | intid when intid < 16 -> Printf.sprintf "irq.sgi%d" intid
  | intid -> Printf.sprintf "irq.%d" intid

(* One open trap: [resume] is the span interrupted by the enter,
   [trap] the trap's own name, [handler_el] the EL the handler runs at
   (the enter's [to_el]), [enter_cycles] the entry timestamp. *)
type frame = {
  resume : string;
  trap : string;
  handler_el : int;
  enter_cycles : int;
}

let analyze ?(start_cycles = 0) ~total_cycles ~dropped events =
  let spans = ref [] in
  let points : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let inclusive : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref "mainline" in
  let start = ref start_cycles in
  let stack : frame list ref = ref [] in
  let close_at cycles next =
    if cycles > !start then
      spans := { name = !cur; start_cycles = !start; stop_cycles = cycles }
               :: !spans;
    cur := next;
    start := cycles
  in
  let point name =
    Hashtbl.replace points name
      (1 + Option.value ~default:0 (Hashtbl.find_opt points name))
  in
  let add_inclusive name c =
    Hashtbl.replace inclusive name
      (c + Option.value ~default:0 (Hashtbl.find_opt inclusive name))
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.payload with
      | Trace.Gate_entry _ -> close_at e.cycles "gate.switch"
      | Trace.Gate_check _ -> close_at e.cycles "gate.check"
      | Trace.Gate_exit _ -> close_at e.cycles "mainline"
      | Trace.Trap_enter { ec; to_el; _ } ->
          let trap = "trap." ^ ec_name ec in
          stack :=
            { resume = !cur; trap; handler_el = to_el;
              enter_cycles = e.cycles }
            :: !stack;
          close_at e.cycles trap
      | Trace.Irq_enter { intid; to_el; _ } ->
          (* An asynchronous entry nests exactly like a trap: the
             handler's ERET emits the matching Trap_exit. *)
          let trap = irq_name intid in
          stack :=
            { resume = !cur; trap; handler_el = to_el;
              enter_cycles = e.cycles }
            :: !stack;
          close_at e.cycles trap
      | Trace.Trap_exit { from_el; _ } -> (
          match !stack with
          | [] -> close_at e.cycles "mainline"
          | top :: rest ->
              if List.exists (fun f -> f.handler_el = from_el) !stack then begin
                (* Retire frames down to and including the innermost
                   one handled at [from_el]; resume what it
                   interrupted. *)
                let rec pop = function
                  | f :: rest ->
                      add_inclusive f.trap (e.cycles - f.enter_cycles);
                      if f.handler_el = from_el then (f.resume, rest)
                      else pop rest
                  | [] -> assert false
                in
                let resume, rest = pop !stack in
                stack := rest;
                close_at e.cycles resume
              end
              else begin
                (* No frame matches the exit's EL (truncated ring):
                   fall back to retiring the innermost frame. *)
                add_inclusive top.trap (e.cycles - top.enter_cycles);
                stack := rest;
                close_at e.cycles top.resume
              end)
      | p -> point (Trace.payload_name p))
    events;
  close_at total_cycles !cur;
  (* Frames still open at the window edge (a run that ended inside a
     handler, or a trace missing exits): their inclusive windows end
     at the edge, and the report carries the imbalance. *)
  let unbalanced = List.length !stack in
  List.iter
    (fun f -> add_inclusive f.trap (total_cycles - f.enter_cycles))
    !stack;
  let spans = List.rev !spans in
  let agg : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let count, cycles =
        Option.value ~default:(0, 0) (Hashtbl.find_opt agg s.name)
      in
      Hashtbl.replace agg s.name
        (count + 1, cycles + (s.stop_cycles - s.start_cycles)))
    spans;
  let rows =
    Hashtbl.fold
      (fun name (count, cycles) acc ->
        let inclusive_cycles =
          max cycles
            (Option.value ~default:0 (Hashtbl.find_opt inclusive name))
        in
        { name; count; cycles; inclusive_cycles } :: acc)
      agg []
    |> List.sort (fun a b ->
           match compare b.cycles a.cycles with
           | 0 -> compare a.name b.name
           | c -> c)
  in
  let attributed = List.fold_left (fun acc r -> acc + r.cycles) 0 rows in
  let window = total_cycles - start_cycles in
  let coverage =
    if window <= 0 then 1.0 else float_of_int attributed /. float_of_int window
  in
  let points =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) points []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    spans;
    rows;
    points;
    total_cycles;
    attributed_cycles = attributed;
    coverage;
    dropped;
    unbalanced;
  }

let of_trace ?start_cycles ~total_cycles tr =
  analyze ?start_cycles ~total_cycles ~dropped:(Trace.dropped tr)
    (Trace.events tr)

let top_spans report k =
  List.sort
    (fun a b ->
      compare (b.stop_cycles - b.start_cycles) (a.stop_cycles - a.start_cycles))
    report.spans
  |> List.filteri (fun i _ -> i < k)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%-16s %10s %14s %7s %14s@," "span" "count" "cycles"
    "share" "inclusive";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-16s %10d %14d %6.1f%% %14d@," row.name row.count
        row.cycles
        (100.0 *. float_of_int row.cycles
        /. float_of_int (max 1 r.total_cycles))
        row.inclusive_cycles)
    r.rows;
  List.iter
    (fun (name, n) -> Fmt.pf ppf "%-16s %10d %14s %7s@," name n "-" "-")
    r.points;
  Fmt.pf ppf "attributed %d / %d cycles (coverage %.2f%%), %d dropped"
    r.attributed_cycles r.total_cycles (100.0 *. r.coverage) r.dropped;
  if r.unbalanced > 0 then
    Fmt.pf ppf ", %d unbalanced frames" r.unbalanced;
  Fmt.pf ppf "@]"

let report_to_json r =
  let row_json row =
    Printf.sprintf
      {|{"name":%S,"count":%d,"cycles":%d,"inclusive_cycles":%d}|} row.name
      row.count row.cycles row.inclusive_cycles
  in
  let point_json (name, n) = Printf.sprintf {|{"name":%S,"count":%d}|} name n in
  Printf.sprintf
    {|{"total_cycles":%d,"attributed_cycles":%d,"coverage":%.4f,"dropped":%d,"unbalanced":%d,"spans":[%s],"points":[%s]}|}
    r.total_cycles r.attributed_cycles r.coverage r.dropped r.unbalanced
    (String.concat "," (List.map row_json r.rows))
    (String.concat "," (List.map point_json r.points))
