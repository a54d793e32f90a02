(** The simulation "board": shared physical memory, a shared TLB and
    the platform cost model. One machine per experiment. *)

type t = {
  phys : Lz_mem.Phys.t;
  tlb : Lz_mem.Tlb.t;
  cost : Lz_cpu.Cost_model.t;
}

val create : ?cost:Lz_cpu.Cost_model.t -> unit -> t
(** 512 MiB of memory and a 120-entry TLB (sized like a per-core
    last-level TLB so domain-count TLB pressure is visible, Section
    8.2). The cost model defaults to the Cortex A55. *)

val new_core :
  ?route_el1_to_harness:bool -> t -> Lz_arm.Pstate.el -> Lz_cpu.Core.t
