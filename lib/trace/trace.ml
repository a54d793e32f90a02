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

module Int_map = Map.Make (Int)

(* The PC markers as one immutable value: a clone shares it by pointer,
   and an addition writes a new value, so what one tracer adds never
   reaches another. Lookups walk a balanced tree of int keys instead
   of hashing. *)
type markers = {
  at : payload Int_map.t;  (* pc -> payload *)
  (* Live marker count per 4 KiB VA page, so a block dispatcher can
     decide with one lookup whether a whole block (blocks never cross
     pages) needs per-instruction marker checks. *)
  pages : int Int_map.t;
  (* Shared sets merged in whole by [add_markers] (by pointer) whose
     PCs no later [add_marker] replaced: merging one again is a
     no-op. *)
  sets : markers list;
}

let no_markers = { at = Int_map.empty; pages = Int_map.empty; sets = [] }

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
  mutable markers : markers;
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
    markers = no_markers;
  }

let set_clock t f = t.clock <- f

(* A fresh, empty tracer with [t]'s configuration and markers —
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
    markers = t.markers }

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

let with_marker m ~pc payload =
  (* Replacing an existing marker must not inflate the page count. *)
  if Int_map.mem pc m.at then
    { m with
      at = Int_map.add pc payload m.at;
      sets = List.filter (fun s -> not (Int_map.mem pc s.at)) m.sets }
  else
    let pg = marker_page pc in
    let n = Option.value (Int_map.find_opt pg m.pages) ~default:0 in
    { m with
      at = Int_map.add pc payload m.at;
      pages = Int_map.add pg (n + 1) m.pages }

let add_marker t ~pc payload = t.markers <- with_marker t.markers ~pc payload

let marker_set l =
  List.fold_left (fun m (pc, p) -> with_marker m ~pc p) no_markers l

let add_markers t s =
  let m = t.markers in
  if Int_map.is_empty m.at then t.markers <- { s with sets = [ s ] }
  else if not (List.memq s m.sets) then
    let m = Int_map.fold (fun pc p m -> with_marker m ~pc p) s.at m in
    t.markers <- { m with sets = s :: m.sets }

let marker_at t pc = Int_map.find_opt pc t.markers.at
let page_marked t pc = Int_map.mem (marker_page pc) t.markers.pages

(* Typed event equality: what polymorphic [=] decides, without
   walking the values through [compare_val]. *)

let equal_payload a b =
  match (a, b) with
  | Trap_enter a, Trap_enter b ->
      a.ec = b.ec && a.from_el = b.from_el && a.to_el = b.to_el
  | Trap_exit a, Trap_exit b -> a.from_el = b.from_el && a.to_el = b.to_el
  | Gate_entry a, Gate_entry b -> a.gate = b.gate
  | Gate_check a, Gate_check b -> a.gate = b.gate
  | Gate_exit a, Gate_exit b -> a.gate = b.gate
  | Domain_switch a, Domain_switch b -> a.asid = b.asid
  | Sanitizer_scan a, Sanitizer_scan b -> a.pa = b.pa && a.ok = b.ok
  | Wx_bbm a, Wx_bbm b -> a.fake = b.fake
  | Stage_fault a, Stage_fault b -> a.stage = b.stage && a.va = b.va
  | World_switch a, World_switch b -> a.enter = b.enter && a.vmid = b.vmid
  | Retention a, Retention b -> a.nr = b.nr && a.hit = b.hit
  | Tlb_flush a, Tlb_flush b -> a.scope = b.scope && a.vmid = b.vmid
  | Syscall a, Syscall b -> a.nr = b.nr
  | Nested_forward a, Nested_forward b ->
      a.enter = b.enter && a.repoint = b.repoint
  | Irq_enter a, Irq_enter b ->
      a.intid = b.intid && a.from_el = b.from_el && a.to_el = b.to_el
  | Preempt a, Preempt b -> a.task = b.task
  | ( ( Trap_enter _ | Trap_exit _ | Gate_entry _ | Gate_check _
      | Gate_exit _ | Domain_switch _ | Sanitizer_scan _ | Wx_bbm _
      | Stage_fault _ | World_switch _ | Retention _ | Tlb_flush _
      | Syscall _ | Nested_forward _ | Irq_enter _ | Preempt _ ),
      _ ) ->
      false

let equal_event a b =
  a.seq = b.seq && a.cycles = b.cycles && equal_payload a.payload b.payload

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
