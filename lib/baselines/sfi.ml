type variant = Classic_full | Store_only | Lfi | Tdi

type properties = {
  overhead_factor : float;
  sandboxes_loads : bool;
  sandboxes_stores : bool;
  isolates_precompiled : bool;
  max_domains : [ `Bounded of int | `Unbounded | `Per_type ];
}

let properties = function
  | Classic_full ->
      { overhead_factor = 1.25;
        sandboxes_loads = true;
        sandboxes_stores = true;
        isolates_precompiled = false;
        max_domains = `Unbounded }
  | Store_only ->
      { overhead_factor = 1.10;
        sandboxes_loads = false;
        sandboxes_stores = true;
        isolates_precompiled = false;
        max_domains = `Unbounded }
  | Lfi ->
      { overhead_factor = 1.07;
        sandboxes_loads = true;
        sandboxes_stores = true;
        isolates_precompiled = false;
        max_domains = `Bounded 65536 }
  | Tdi ->
      { overhead_factor = 1.075;
        sandboxes_loads = true;
        sandboxes_stores = true;
        isolates_precompiled = false;
        max_domains = `Per_type }

let apply_overhead v ~base_cycles ~mem_fraction =
  let p = properties v in
  let mem = float_of_int base_cycles *. mem_fraction in
  let rest = float_of_int base_cycles -. mem in
  int_of_float (rest +. (mem *. p.overhead_factor))

let leaks_reads v = not (properties v).sandboxes_loads
