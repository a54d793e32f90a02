(* Per-core interrupt plumbing: one redistributor/CPU-interface view of
   a (possibly shared) distributor plus the core's private generic
   timer.  The core polls [pending] at instruction boundaries: the poll
   refreshes the level-sensitive PPI inputs (timer condition, PMU
   overflow line) and asks the CPU interface what it is signaling. *)

type t = { gic : Gic.cpu; timer : Timer.t }

let create ?dist () =
  let dist = match dist with Some d -> d | None -> Gic.create_dist () in
  { gic = Gic.attach_cpu dist; timer = Timer.create () }

let shared_dist t = Gic.cpu_dist t.gic

(* Kernel-init convenience: open the CPU interface and enable the two
   PPIs the simulator's kernels use, at a middling priority. *)
let init t =
  Gic.unmask t.gic;
  Gic.set_priority t.gic Gic.ppi_el1_timer 0x80;
  Gic.enable t.gic Gic.ppi_el1_timer;
  Gic.set_priority t.gic Gic.ppi_pmu 0x80;
  Gic.enable t.gic Gic.ppi_pmu

let pending t ~now ~pmu_line =
  Gic.set_level t.gic Gic.ppi_el1_timer (Timer.output t.timer ~now);
  Gic.set_level t.gic Gic.ppi_pmu pmu_line;
  Gic.signaled t.gic

(* Interrupt horizon: a lower bound on the cycle count at which
   [pending] could first return [Some _], given that it returned
   [None] at cycle [now] and that only the level-sensitive inputs
   (timer condition, PMU overflow) can change before the next
   instruction that reconfigures delivery.  Everything else that
   feeds delivery — GIC latches/filters, DAIF, HCR routing — mutates
   only at exception entry, ERET and the MSR/MRS accesses to DAIF,
   HCR and the GIC/timer/PMU registers, which the block engine treats
   as block terminators, so the bound stays valid across a block.
   [pmu_hot] marks a PMU whose overflow interrupt is enabled
   (PMINTENSET != 0): its assert time depends on the instruction mix,
   so the bound degrades to "right now" and blocks shrink to single
   dispatch steps rather than risk a late delivery. *)
let horizon t ~now ~pmu_hot =
  let timer_h =
    if Gic.deliverable t.gic Gic.ppi_el1_timer then
      match Timer.fire_at t.timer with Some c -> c | None -> max_int
    else max_int
  in
  if pmu_hot && Gic.deliverable t.gic Gic.ppi_pmu then min now timer_h
  else timer_h

(* Host-side (OCaml-modelled kernel) fast paths for servicing a tick:
   acknowledge + retire, mirroring the ICC_IAR1/ICC_EOIR1 pair a
   simulated handler would execute. *)
let ack t = Gic.acknowledge t.gic
let eoi t intid = Gic.eoi t.gic intid
