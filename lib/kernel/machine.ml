type t = {
  phys : Lz_mem.Phys.t;
  tlb : Lz_mem.Tlb.t;
  cost : Lz_cpu.Cost_model.t;
}

let create ?(cost = Lz_cpu.Cost_model.cortex_a55) () =
  { phys = Lz_mem.Phys.create (); tlb = Lz_mem.Tlb.create ~capacity:120 ();
    cost }

let new_core ?route_el1_to_harness t el =
  Lz_cpu.Core.create ?route_el1_to_harness t.phys t.tlb t.cost el
