open Lz_arm
open Lz_cpu

(* Pre-computed cycle totals for one forwarding direction: the
   arithmetic sum of exactly the per-register charges of the partial
   switch, so one [Core.charge] is bit-identical to charging them one
   by one. *)
type costs = {
  full_in : int;
  full_out : int;
}

type t = {
  hyp : Lz_hyp.Hypervisor.t;
  vm : Lz_hyp.Vm.t;
  mutable repoint_pending : bool;
  mutable forwards : int;
  mutable repoints : int;
  costs : costs;
}

(* Both the guest kernel and the guest LightZone process actively use
   these with different values; everything else is either shared
   (counters, timers, FP) or deferred through the shared register
   page. *)
let partial_switch_regs =
  [ Sysreg.TTBR0_EL1; Sysreg.TTBR1_EL1; Sysreg.TCR_EL1; Sysreg.SCTLR_EL1;
    Sysreg.VBAR_EL1; Sysreg.CONTEXTIDR_EL1; Sysreg.SP_EL1; Sysreg.MAIR_EL1;
    Sysreg.CPACR_EL1; Sysreg.CNTKCTL_EL1 ]

(* One direction of the partial switch: save one context (sysreg read +
   memory write each) and load the other (memory read + sysreg
   write). *)
let partial_switch_cost (c : Cost_model.t) =
  List.fold_left
    (fun acc r ->
      acc
      + (2 * Cost_model.sysreg_access c ~at:Pstate.EL2 r)
      + (2 * c.Cost_model.mem_access))
    0 partial_switch_regs

let compute_costs (c : Cost_model.t) =
  let vttbr = Cost_model.sysreg_access c ~at:Pstate.EL2 Sysreg.VTTBR_EL2 in
  let full = partial_switch_cost c in
  { full_in =
      full + vttbr + c.Cost_model.gp_save + c.Cost_model.nested_extra
      + c.Cost_model.eret_el2;
    full_out =
      c.Cost_model.exc_entry_el2_from_el1 + full + vttbr
      + c.Cost_model.gp_restore }

let create hyp vm =
  let cost = hyp.Lz_hyp.Hypervisor.machine.Lz_kernel.Machine.cost in
  { hyp; vm; repoint_pending = true; forwards = 0; repoints = 0;
    costs = compute_costs cost }

let notify_schedule t = t.repoint_pending <- true

let charge_forward_in t (core : Core.t) =
  let c = core.Core.cost in
  t.forwards <- t.forwards + 1;
  let repoint = t.repoint_pending in
  (match Core.tracer core with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:core.Core.cycles
        (Lz_trace.Trace.Nested_forward { enter = true; repoint })
  | None -> ());
  if repoint then begin
    t.repoint_pending <- false;
    t.repoints <- t.repoints + 1;
    Core.charge core c.Cost_model.nested_repoint
  end;
  Core.charge core t.costs.full_in

let charge_forward_out t (core : Core.t) =
  (match Core.tracer core with
  | Some tr ->
      Lz_trace.Trace.emit tr ~cycles:core.Core.cycles
        (Lz_trace.Trace.Nested_forward { enter = false; repoint = false })
  | None -> ());
  Core.charge core t.costs.full_out
