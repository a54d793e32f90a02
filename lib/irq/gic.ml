(* GICv3-shaped interrupt controller model.

   One [dist] (distributor) holds the group enable and the SGI staging
   switch shared by its cores; each core attaches a [cpu]
   (redistributor + CPU interface) holding banked SGI/PPI state and
   the ICC_* interface state. No shared peripheral (SPI, INTID >= 32)
   is modelled: nothing in the machine raises one.  Everything is
   plain latched state — the model never charges cycles itself, so
   attaching a GIC does not perturb the core's timing until an
   interrupt is actually taken.

   Interrupt life cycle (per INTID): inactive -> pending (edge latch or
   level input) -> active (on ICC_IAR1 acknowledge) -> inactive (on
   ICC_EOIR1).  An active interrupt is not re-signaled until EOI; a
   level-sensitive input that is still asserted at EOI immediately
   re-pends, exactly like the generic timer's output line. *)

(* SGIs 0..15 and PPIs 16..31, banked per core: the only INTIDs. *)
let nr_local = 32
let spurious = 1023

(* PPI assignments (matching common SoC usage). *)
let ppi_pmu = 23 (* PMU overflow *)
let ppi_el1_timer = 30 (* EL1 physical generic timer *)

let idle_priority = 0xFF

type dist = {
  mutable grp_en : bool; (* GICD_CTLR.EnableGrp1 *)
  mutable cpus : cpu list; (* attach order; index = cpu id *)
  (* SMP sync-quantum mode: cross-core SGIs latch into the target's
     [staged] array instead of [pending], and become visible only when
     the barrier calls [publish]. Self-SGIs stay immediate either way
     (they are core-local and deterministic). Off by default, so
     single-machine users keep same-boundary delivery. *)
  mutable staging : bool;
}

and cpu = {
  dist : dist;
  id : int;
  enabled : bool array; (* nr_local *)
  pending : bool array; (* edge latches *)
  level : bool array; (* level-sensitive inputs (timer, PMU) *)
  active : bool array;
  prio : int array;
  staged : bool array; (* cross-core SGIs latched until [publish] *)
  staged_lock : Mutex.t;
  mutable pmr : int; (* ICC_PMR_EL1; prio must be < pmr to signal *)
  mutable igrpen1 : bool; (* ICC_IGRPEN1_EL1.Enable *)
  mutable bpr1 : int; (* ICC_BPR1_EL1 (stored, not used for grouping) *)
  (* Acknowledged-but-not-retired interrupts, innermost first; the
     head's priority is the running priority. *)
  mutable ack_stack : (int * int) list;
}

let create_dist () = { grp_en = true; cpus = []; staging = false }

let attach_cpu dist =
  let cpu =
    {
      dist;
      id = List.length dist.cpus;
      enabled = Array.make nr_local false;
      pending = Array.make nr_local false;
      level = Array.make nr_local false;
      active = Array.make nr_local false;
      prio = Array.make nr_local idle_priority;
      staged = Array.make 16 false;
      staged_lock = Mutex.create ();
      pmr = 0; (* reset: masks everything until software opens it *)
      igrpen1 = false;
      bpr1 = 0;
      ack_stack = [];
    }
  in
  dist.cpus <- dist.cpus @ [ cpu ];
  cpu

let cpu_dist t = t.dist
let cpu_id t = t.id

let is_local intid = intid >= 0 && intid < nr_local

let check_local intid =
  if not (is_local intid) then
    invalid_arg (Printf.sprintf "Gic: INTID %d is not an SGI or PPI" intid)

(* Distributor-side configuration (host view of the GICD registers). *)

let set_group_enable dist on = dist.grp_en <- on

(* Per-core configuration and inputs. *)

let enable t intid =
  check_local intid;
  t.enabled.(intid) <- true

let set_priority t intid p =
  check_local intid;
  t.prio.(intid) <- p land 0xFF

let set_pending t intid =
  check_local intid;
  t.pending.(intid) <- true

let set_level t intid on =
  if not (is_local intid) then
    invalid_arg "Gic.set_level: only SGI/PPI inputs are level-capable";
  t.level.(intid) <- on

(* Open the CPU interface completely: unmask PMR and enable group 1.
   Host-side convenience mirroring what early kernel init does with
   ICC_PMR_EL1/ICC_IGRPEN1_EL1 writes. *)
let unmask t =
  t.pmr <- idle_priority + 1;
  t.igrpen1 <- true

let running_priority t =
  match t.ack_stack with [] -> idle_priority + 1 | (_, p) :: _ -> p

(* Highest-priority (lowest value) enabled, pending, inactive INTID;
   ties resolve to the lowest INTID.  Group and PMR/running-priority
   filtering happens in [signaled]. *)
let best_candidate t =
  let best = ref None in
  let consider intid prio =
    match !best with
    | Some (_, bp) when bp <= prio -> ()
    | _ -> best := Some (intid, prio)
  in
  for i = 0 to nr_local - 1 do
    if t.enabled.(i) && (t.pending.(i) || t.level.(i)) && not t.active.(i)
    then consider i t.prio.(i)
  done;
  !best

(* Would [intid], if its input line asserted right now, pass every
   static delivery filter on this CPU interface?  "Static" means the
   inputs only change via ICC_*/GICD writes or acknowledge/EOI — all
   instruction-boundary events — so the answer is stable across a
   straight-line block.  Note the one model-specific subtlety: a
   higher-priority candidate that is itself PMR-masked shadows
   everything in [signaled], so a [true] here does not promise
   delivery, only that delivery is *possible*; callers using this for
   an interrupt horizon must still poll at the horizon. *)
let deliverable t intid =
  is_local intid
  && t.igrpen1 && t.dist.grp_en
  && t.enabled.(intid)
  && (not t.active.(intid))
  && t.prio.(intid) < t.pmr
  && t.prio.(intid) < running_priority t

let signaled t =
  if not (t.igrpen1 && t.dist.grp_en) then None
  else
    match best_candidate t with
    | Some (intid, prio) when prio < t.pmr && prio < running_priority t ->
        Some intid
    | _ -> None

(* ICC_IAR1_EL1 read: acknowledge the signaled interrupt, moving it
   pending -> active and raising the running priority. *)
let acknowledge t =
  match signaled t with
  | None -> spurious
  | Some intid ->
      t.pending.(intid) <- false;
      t.active.(intid) <- true;
      t.ack_stack <- (intid, t.prio.(intid)) :: t.ack_stack;
      intid

(* ICC_EOIR1_EL1 write: retire an acknowledged interrupt, dropping the
   running priority back to the interrupted context's. An INTID that
   is no SGI or PPI was never acknowledged and retires nothing. *)
let eoi t intid =
  if is_local intid then t.active.(intid) <- false;
  let rec drop = function
    | [] -> []
    | (i, _) :: rest when i = intid -> rest
    | frame :: rest -> frame :: drop rest
  in
  t.ack_stack <- drop t.ack_stack

(* Latch an SGI on [target], raised by cpu [t]. Cross-core SGIs stage
   when the distributor is in sync-quantum mode; a self-SGI is always
   immediate (it cannot race another core). *)
let sgi_to t target intid =
  if target.id = t.id || not t.dist.staging then
    target.pending.(intid) <- true
  else begin
    Mutex.lock target.staged_lock;
    target.staged.(intid) <- true;
    Mutex.unlock target.staged_lock
  end

(* ICC_SGI1R_EL1 write: INTID in bits 27:24, target list in 15:0, and
   IRM in bit 40 — when set the target list is ignored and the SGI
   goes to every attached cpu except the sender. *)
let write_sgi1r t v =
  let intid = (v lsr 24) land 0xF in
  if v land (1 lsl 40) <> 0 then
    List.iter
      (fun cpu -> if cpu.id <> t.id then sgi_to t cpu intid)
      t.dist.cpus
  else begin
    let targets = v land 0xFFFF in
    List.iter
      (fun cpu -> if targets land (1 lsl cpu.id) <> 0 then
          sgi_to t cpu intid)
      t.dist.cpus
  end

(* Host-side helpers for the SMP machine driver. *)

let set_staging dist on = dist.staging <- on

(* Merge this interface's staged SGIs into its pending latches. Called
   single-threaded at the sync barrier; the lock only fences against
   senders still inside [write_sgi1r] on another domain, which cannot
   happen at a barrier but is cheap to keep honest. *)
let publish_staged t =
  Mutex.lock t.staged_lock;
  for i = 0 to 15 do
    if t.staged.(i) then begin
      t.pending.(i) <- true;
      t.staged.(i) <- false
    end
  done;
  Mutex.unlock t.staged_lock

(* Latch an SGI directly (barrier-time delivery decided by the host
   driver, e.g. a shootdown request published to a remote core). *)
let raise_sgi t intid =
  if intid < 0 || intid > 15 then invalid_arg "Gic.raise_sgi";
  t.pending.(intid) <- true

let read_pmr t = t.pmr
let write_pmr t v = t.pmr <- v land 0xFF
let read_igrpen1 t = if t.igrpen1 then 1 else 0
let write_igrpen1 t v = t.igrpen1 <- v land 1 <> 0
let read_bpr1 t = t.bpr1
let write_bpr1 t v = t.bpr1 <- v land 0x7
let read_rpr t = running_priority t land 0xFF

let read_hppir1 t =
  match signaled t with None -> spurious | Some intid -> intid

(* Whole-interface capture for machine snapshots: one CPU interface's
   banked SGI/PPI state plus its distributor's group enable.
   Everything in the model is latched, so copies are exact. Restoring
   the distributor portion assumes the snapshotted machine owns it
   (one core per machine in this simulator). *)

type state = {
  s_enabled : bool array;
  s_pending : bool array;
  s_level : bool array;
  s_active : bool array;
  s_prio : int array;
  s_staged : bool array;
  s_pmr : int;
  s_igrpen1 : bool;
  s_bpr1 : int;
  s_ack_stack : (int * int) list;
  s_grp_en : bool;
}

let blit_state src dst = Array.blit src 0 dst 0 (Array.length dst)

let capture t =
  { s_enabled = Array.copy t.enabled;
    s_pending = Array.copy t.pending;
    s_level = Array.copy t.level;
    s_active = Array.copy t.active;
    s_prio = Array.copy t.prio;
    s_staged = Array.copy t.staged;
    s_pmr = t.pmr;
    s_igrpen1 = t.igrpen1;
    s_bpr1 = t.bpr1;
    s_ack_stack = t.ack_stack;
    s_grp_en = t.dist.grp_en }

let restore t s =
  blit_state s.s_enabled t.enabled;
  blit_state s.s_pending t.pending;
  blit_state s.s_level t.level;
  blit_state s.s_active t.active;
  blit_state s.s_prio t.prio;
  blit_state s.s_staged t.staged;
  t.pmr <- s.s_pmr;
  t.igrpen1 <- s.s_igrpen1;
  t.bpr1 <- s.s_bpr1;
  t.ack_stack <- s.s_ack_stack;
  t.dist.grp_en <- s.s_grp_en
