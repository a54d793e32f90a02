(* Tenant-scale connection-churn benchmark.

   Models a zone-per-tenant server: K long-lived tenant zones stay
   resident (their tables hold live ASIDs for the whole run) while
   connections churn — each connection allocates a zone, re-points a
   gate at it, serves a few request iterations through the gate
   (switch in, touch the connection's protected scratch page, switch
   back), and frees the zone. The allocator hands every connection a
   recycled pgt id and, once the churn has marched through the ASID
   space, recycled ASIDs under generation rollover — the paths this
   benchmark exists to keep honest at 4096+ resident zones.

   Sweeps K over 128 / 512 / 2048 / 4096 (smoke: 32 / 128 / 256 with
   a 9-bit ASID space so rollover still fires) and reports, per K:
   simulated MIPS over the whole churn (host-side alloc/free included
   — that is what connection churn costs), gate cost in simulated
   cycles per switch, and the allocator's rollover/recycle counters.
   The churn length is sized so every K crosses the ASID space at
   least once: connections = space - K + slack.

   Gates enforced on every run:
   - recycle count > 0 at the top K (the bench is pointless without
     recycling actually exercised);
   - per-switch cycle cost stays flat-to-logarithmic in K:
     cycles/switch at the top K must be <= 1.7x the bottom K;
   - zero allocation on the steady-state switch path: two slices of
     the same warm zone differing only in switch count must show a
     marginal Gc minor-words cost of 0 words per switch, on the block
     engine (the default) and on the per-insn fast engine alike.

   `--check` compares against the committed report of the same mode
   (Report): MIPS at the top K is a [Higher] metric, and every row's
   simulated counts and cycles/switch are [Exact] ones. `--smoke` is
   the CI variant. *)

module Core = Lz_cpu.Core
open Lz_kernel
open Lightzone

let code_va = 0x400000
let serve_va = 0x600000
let stack_va = 0x7F0000000000

let now () = Unix.gettimeofday ()

(* Serve loop: x21 = iteration countdown (set by the host before each
   slice). Each iteration switches through gate 1 into the
   connection's zone, stores and loads on the protected scratch page,
   and switches back through gate 0 to the default table — 2 gate
   passes per iteration. x17/x30 are the gate registers; x0..x2 are
   scratch. *)
let build_program () =
  let b = Builder.create ~base:code_va in
  let loop = Builder.here b in
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 serve_va;
  Builder.emit b
    [ Lz_arm.Insn.Movz (1, 0xAB, 0); Lz_arm.Insn.Str (1, 0, 0);
      Lz_arm.Insn.Ldr (2, 0, 0) ];
  Builder.switch_gate b ~gate:0;
  Builder.emit b [ Lz_arm.Insn.Subs (21, 21, Lz_arm.Insn.Imm 1) ];
  Builder.emit b [ Lz_arm.Insn.Bcond (Lz_arm.Insn.NE, loop - Builder.here b) ];
  Builder.emit b [ Lz_arm.Insn.Brk 0 ];
  b

(* One brk-exit slice, then rewind to the loop head so the next
   connection reruns the same image (the Switch_bench warm-image
   idiom). *)
let rewind (t : Kmod.t) =
  Core.eret_from_el2 t.Kmod.core;
  t.Kmod.proc.Proc.exit_code <- None;
  t.Kmod.core.Core.pc <- code_va

let run_slice (t : Kmod.t) ~iters =
  Core.set_reg t.Kmod.core 21 iters;
  match Api.run ~max_insns:200_000_000 t with
  | Kmod.Exited _ -> rewind t
  | o -> failwith (Format.asprintf "scale: %a" Kmod.pp_outcome o)

(* Build a machine with [zones] resident tenants and the serve image
   loaded; gate 0 points back at the default table, gate 1 is
   re-pointed per connection. *)
let build ~zones ~asid_bits cm =
  let machine = Machine.create ~cost:cm () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:serve_va ~len:0x1000 Vma.rw);
  let t =
    Kmod.enter ~asid_bits ~allow_scalable:true
      ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x400 ~entry:code_va ~sp:stack_va
      kernel proc
  in
  for _ = 1 to zones do
    ignore (Api.lz_alloc t)
  done;
  Api.lz_map_gate_pgt t ~pgt:0 ~gate:0;
  Api.load_and_register t (build_program ()) ~va:code_va;
  t

(* One connection: allocate the tenant zone, point gate 1 at it,
   serve [iters] request iterations, free it. The pgt id recycles
   LIFO, so every connection after the first reuses the same id — and
   with it the scratch page's registry attachment. *)
let serve_connection t ~first_id ~iters =
  let id = Api.lz_alloc t in
  if first_id >= 0 && id <> first_id then
    failwith "scale: connection id did not recycle";
  Api.lz_map_gate_pgt t ~pgt:id ~gate:1;
  if first_id < 0 then
    Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
      ~perm:(Perm.read lor Perm.write);
  run_slice t ~iters;
  Api.lz_free t id;
  id

type row = {
  zones : int;
  connections : int;
  switches : int;
  insns : int;
  seconds : float;
  mips : float;
  cycles_per_switch : float;
  rollovers : int;
  recycled : int;
  pgt_high_water : int;
}

let churn_row ~zones ~asid_bits ~connections ~iters cm =
  let t = build ~zones ~asid_bits cm in
  let core = t.Kmod.core in
  Core.set_engine core Core.Blocks;
  (* Warm one connection outside the timed window: demand paging of
     the image, gate registration and the sanitizer scan are setup
     cost, not churn cost. *)
  let first_id = serve_connection t ~first_id:(-1) ~iters in
  let i0 = core.Core.insns and c0 = core.Core.cycles in
  let t0 = now () in
  for _ = 1 to connections do
    ignore (serve_connection t ~first_id ~iters)
  done;
  let seconds = now () -. t0 in
  let insns = core.Core.insns - i0 in
  let cycles = core.Core.cycles - c0 in
  let switches = 2 * iters * connections in
  {
    zones;
    connections;
    switches;
    insns;
    seconds;
    mips = float_of_int insns /. seconds /. 1e6;
    cycles_per_switch = float_of_int cycles /. float_of_int switches;
    rollovers = Asid_alloc.rollovers t.Kmod.asids;
    recycled = Asid_alloc.recycled t.Kmod.asids;
    pgt_high_water = Zone_tab.high_water t.Kmod.pgts;
  }

(* Zero-allocation gate: on a warm zone (no churn — the connection
   stays allocated), two slices that differ only in switch count must
   cost the same Gc minor words up to a constant. Run on both fast
   engines: the block engine's dispatch (block entry, chaining, side
   exits, TLB and decode-cache probes) allocates nothing once its
   trace trees are trained and built during the warm-up slice, and
   neither does the per-insn engine. The slow path is not the shipped
   configuration. *)
let zero_alloc_marginal ~engine ~asid_bits cm =
  let t = build ~zones:16 ~asid_bits cm in
  let core = t.Kmod.core in
  Core.set_engine core engine;
  let id = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:id ~gate:1;
  Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
    ~perm:(Perm.read lor Perm.write);
  run_slice t ~iters:64;
  (* warm: faults done *)
  let measure iters =
    let w0 = Gc.minor_words () in
    run_slice t ~iters;
    Gc.minor_words () -. w0
  in
  let n1 = 2_000 and n2 = 10_000 in
  let w1 = measure n1 in
  let w2 = measure n2 in
  (w2 -. w1) /. float_of_int (2 * (n2 - n1))

let () =
  let smoke, check = Report.flags ~check:true "scale" in
  (* The ASID space is sized to be crossed: big enough to park the
     largest K live, small enough that the churn reaches rollover at
     every K. *)
  let asid_bits = if smoke then 9 else 13 in
  let space = (1 lsl asid_bits) - 1 in
  let sweep = if smoke then [ 32; 128; 256 ] else [ 128; 512; 2048; 4096 ] in
  let slack = if smoke then 64 else 512 in
  let iters = 8 in
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let rows =
    List.map
      (fun zones ->
        (* +2 live ASIDs beyond the residents: the default table and
           the in-flight connection. *)
        let connections = space - zones + slack in
        let r = churn_row ~zones ~asid_bits ~connections ~iters cm in
        Printf.printf
          "scale: %4d zones   %5d conns   %7d switches   %6.2f MIPS   \
           %6.1f cyc/switch   %d rollovers   %d recycled   hw %d\n%!"
          r.zones r.connections r.switches r.mips r.cycles_per_switch
          r.rollovers r.recycled r.pgt_high_water;
        r)
      sweep
  in
  let marginal_blocks = zero_alloc_marginal ~engine:Core.Blocks ~asid_bits cm in
  let marginal_insn = zero_alloc_marginal ~engine:Core.Per_insn ~asid_bits cm in
  Printf.printf
    "scale: steady-state switch path: %.4f minor words/switch (blocks), \
     %.4f (per-insn)\n%!"
    marginal_blocks marginal_insn;
  let top = List.nth rows (List.length rows - 1) in
  let bottom = List.hd rows in
  let report =
    let open Report in
    let row_of r =
      (* The baseline gate watches MIPS at the top K only. *)
      row
        (Printf.sprintf "zones=%d" r.zones)
        [ float (if r.zones = top.zones then Higher else Info) "mips" r.mips;
          int Exact "connections" r.connections;
          int Exact "switches" r.switches;
          int Exact "insns" r.insns;
          float ~dp:2 Exact "cycles_per_switch" r.cycles_per_switch;
          int Exact "rollovers" r.rollovers;
          int Exact "recycled" r.recycled;
          int Exact "pgt_high_water" r.pgt_high_water;
          float ~dp:6 Info "seconds" r.seconds ]
    in
    make ~bench:"scale" ~smoke
      (row "params"
         [ int Info "asid_bits" asid_bits; int Info "serve_iters" iters ]
       :: row "zero_alloc"
            [ float ~dp:4 Info "blocks_words_per_switch" marginal_blocks;
              float ~dp:4 Info "per_insn_words_per_switch" marginal_insn ]
       :: List.map row_of rows)
  in
  Report.finish ~check report
    (Report.need (top.recycled > 0)
       "no ASID recycling at %d zones (recycled = %d)" top.zones top.recycled
    @ Report.need (top.rollovers > 0) "no generation rollover at %d zones"
        top.zones
    @ Report.need
        (top.cycles_per_switch <= 1.7 *. bottom.cycles_per_switch)
        "per-switch cost not flat: %.1f cyc at %d zones vs %.1f at %d (>1.7x)"
        top.cycles_per_switch top.zones bottom.cycles_per_switch bottom.zones
    (* The connection's table recycles one id: the id space must not
       creep past residents + default + 1. *)
    @ Report.need
        (top.pgt_high_water <= top.zones + 2)
        "pgt id space leaked: high water %d for %d zones" top.pgt_high_water
        top.zones
    @ List.concat_map
        (fun (engine, marginal) ->
          Report.need (marginal <= 0.)
            "%s switch path allocates: %.4f minor words per switch (want 0)"
            engine marginal)
        [ ("block-engine", marginal_blocks); ("per-insn", marginal_insn) ])
