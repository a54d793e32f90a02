(* Typed, cycle-timestamped event tracing.

   A [t] is a bounded ring of events plus a table of PC markers.  The
   simulator layers emit events only when a tracer is attached, and
   every emission site is guarded by an [option] match so that a
   disabled sink costs one null check and zero allocation.  Events are
   timestamped with the emitting core's cycle counter, which makes the
   stream directly comparable with the cost-model numbers in Tables
   4/5: a span between two events is a cycle count, not wall clock.

   The ring is drop-newest: once full, new events bump [dropped] and
   the buffered prefix stays intact.  This keeps the earliest events
   of a run (setup, first switches) available for span analysis even
   when the buffer is undersized, and it means overflow can never
   corrupt events already captured. *)

type flush_scope = Flush_all | Flush_vmid | Flush_asid | Flush_va

type payload =
  | Trap_enter of { ec : int; from_el : int; to_el : int }
  | Trap_exit of { from_el : int; to_el : int }
  | Gate_entry of { gate : int }
  | Gate_check of { gate : int }
  | Gate_exit of { gate : int }
  | Domain_switch of { asid : int }
  | Sanitizer_scan of { pa : int; ok : bool }
  | Wx_bbm of { fake : int }
  | Stage_fault of { stage : int; va : int }
  | World_switch of { enter : bool; vmid : int }
  | Retention of { nr : int; hit : bool }
  | Tlb_flush of { scope : flush_scope; vmid : int }
  | Syscall of { nr : int }
  | Nested_forward of { enter : bool; repoint : bool }
  | Irq_enter of { intid : int; from_el : int; to_el : int }
  | Preempt of { task : int }

type event = { seq : int; cycles : int; payload : payload }

type t = {
  (* Grown by doubling on demand, up to [capacity]: most tracers see a
     few thousand events, so a full-capacity ring up front would cost
     more to allocate than the run that fills it. *)
  mutable ring : event array;
  capacity : int;
  mutable len : int;
  mutable total : int;
  mutable dropped : int;
  mutable clock : unit -> int;
  markers : (int, payload) Hashtbl.t;
  (* Live marker count per 4 KiB VA page, so a block dispatcher can
     decide with one lookup whether a whole block (blocks never cross
     pages) needs per-instruction marker checks. *)
  marker_pages : (int, int) Hashtbl.t;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    ring = [||];
    capacity;
    len = 0;
    total = 0;
    dropped = 0;
    clock = (fun () -> 0);
    markers = Hashtbl.create 64;
    marker_pages = Hashtbl.create 16;
  }

let set_clock t f = t.clock <- f

(* A fresh, empty tracer with [t]'s configuration and marker table —
   the replay harness attaches one to a restored machine so the
   re-execution emits into its own ring. Seeding [total] with the
   original's capture-time value makes replayed sequence numbers
   continue exactly where the snapshot was taken, so replayed events
   compare byte-identical against the reference ring's suffix. *)
let clone_config ?total t =
  { ring = [||];
    capacity = t.capacity;
    len = 0;
    total = (match total with Some n -> n | None -> 0);
    dropped = 0;
    clock = (fun () -> 0);
    markers = Hashtbl.copy t.markers;
    marker_pages = Hashtbl.copy t.marker_pages }

(* [e] fills the new slots; only the first [t.len] are ever read. *)
let grow t e =
  let ring = Array.make (min t.capacity (max 64 (2 * t.len))) e in
  Array.blit t.ring 0 ring 0 t.len;
  t.ring <- ring

let emit t ~cycles payload =
  if t.len < t.capacity then begin
    let e = { seq = t.total; cycles; payload } in
    if t.len = Array.length t.ring then grow t e;
    t.ring.(t.len) <- e;
    t.len <- t.len + 1
  end
  else t.dropped <- t.dropped + 1;
  t.total <- t.total + 1

let emit_now t payload = emit t ~cycles:(t.clock ()) payload

let events t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    out := t.ring.(i) :: !out
  done;
  !out

let len t = t.len
let total t = t.total
let dropped t = t.dropped

let clear t =
  t.ring <- [||];
  t.len <- 0;
  t.total <- 0;
  t.dropped <- 0

(* PC markers: the core consults [marker_at] once per instruction when
   a tracer is attached, turning well-known addresses (gate entry,
   gate check phase, post-gate return site) into events without any
   cooperation from the traced code. *)

let marker_page pc = pc lsr 12 (* blocks are bounded by 4 KiB pages *)

let add_marker t ~pc payload =
  (* Replacing an existing marker must not inflate the page count. *)
  if not (Hashtbl.mem t.markers pc) then begin
    let pg = marker_page pc in
    let n = match Hashtbl.find_opt t.marker_pages pg with
      | Some n -> n
      | None -> 0
    in
    Hashtbl.replace t.marker_pages pg (n + 1)
  end;
  Hashtbl.replace t.markers pc payload

let marker_at t pc = Hashtbl.find_opt t.markers pc
let page_marked t pc = Hashtbl.mem t.marker_pages (marker_page pc)

(* Names and JSONL export. *)

let scope_name = function
  | Flush_all -> "all"
  | Flush_vmid -> "vmid"
  | Flush_asid -> "asid"
  | Flush_va -> "va"

let payload_name = function
  | Trap_enter _ -> "trap_enter"
  | Trap_exit _ -> "trap_exit"
  | Gate_entry _ -> "gate_entry"
  | Gate_check _ -> "gate_check"
  | Gate_exit _ -> "gate_exit"
  | Domain_switch _ -> "domain_switch"
  | Sanitizer_scan _ -> "sanitizer_scan"
  | Wx_bbm _ -> "wx_bbm"
  | Stage_fault _ -> "stage_fault"
  | World_switch _ -> "world_switch"
  | Retention _ -> "retention"
  | Tlb_flush _ -> "tlb_flush"
  | Syscall _ -> "syscall"
  | Nested_forward _ -> "nested_forward"
  | Irq_enter _ -> "irq_enter"
  | Preempt _ -> "preempt"

let payload_fields_json = function
  | Trap_enter { ec; from_el; to_el } ->
      Printf.sprintf {|,"ec":%d,"from_el":%d,"to_el":%d|} ec from_el to_el
  | Trap_exit { from_el; to_el } ->
      Printf.sprintf {|,"from_el":%d,"to_el":%d|} from_el to_el
  | Gate_entry { gate } | Gate_check { gate } | Gate_exit { gate } ->
      Printf.sprintf {|,"gate":%d|} gate
  | Domain_switch { asid } -> Printf.sprintf {|,"asid":%d|} asid
  | Sanitizer_scan { pa; ok } ->
      Printf.sprintf {|,"pa":%d,"ok":%b|} pa ok
  | Wx_bbm { fake } -> Printf.sprintf {|,"fake":%d|} fake
  | Stage_fault { stage; va } ->
      Printf.sprintf {|,"stage":%d,"va":%d|} stage va
  | World_switch { enter; vmid } ->
      Printf.sprintf {|,"enter":%b,"vmid":%d|} enter vmid
  | Retention { nr; hit } -> Printf.sprintf {|,"nr":%d,"hit":%b|} nr hit
  | Tlb_flush { scope; vmid } ->
      Printf.sprintf {|,"scope":%S,"vmid":%d|} (scope_name scope) vmid
  | Syscall { nr } -> Printf.sprintf {|,"nr":%d|} nr
  | Nested_forward { enter; repoint } ->
      Printf.sprintf {|,"enter":%b,"repoint":%b|} enter repoint
  | Irq_enter { intid; from_el; to_el } ->
      Printf.sprintf {|,"intid":%d,"from_el":%d,"to_el":%d|} intid from_el
        to_el
  | Preempt { task } -> Printf.sprintf {|,"task":%d|} task

let event_to_json e =
  Printf.sprintf {|{"seq":%d,"cycles":%d,"type":%S%s}|} e.seq e.cycles
    (payload_name e.payload)
    (payload_fields_json e.payload)

let export_jsonl t oc =
  List.iter
    (fun e ->
      output_string oc (event_to_json e);
      output_char oc '\n')
    (events t)
