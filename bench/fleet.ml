(* Fleet-forking benchmark: one warm 128-domain image, N instances.

   Builds the Table 5 TTBR-mechanism machine (128 gate-attached
   domains), runs one switch slice end-to-end so demand paging,
   sanitizer scans and the TLB are all warm, snapshots it, then forks
   instances off the image:

   - fork latency (host wall-clock per fork, O(frame map) — no frame
     contents move);
   - architectural exactness (every fork's digest must equal the
     source's, before and after running a churn slice);
   - CoW economics (dirty pages per instance after a slice; store
     slots vs logical frames);
   - aggregate simulated MIPS as the instance count grows;
   - the cold-start comparison: forking must beat building the same
     machine from scratch by >= 10x per instance (measured on a few
     cold setups and extrapolated, since 1024 real cold setups would
     take minutes by construction).

   Every run requires digest identity, and every churned fork must
   also match the source's cycles, instructions, TLB hits and misses,
   fault traps and page-table frames. `--smoke` runs a reduced fleet
   (64 forks), the CI gate; the full run (1024 forks) also requires
   the 10x cold-start gain. *)

module Sb = Lz_eval.Switch_bench
module Snapshot = Lz_snap.Snapshot
module Phys = Lz_mem.Phys
open Lightzone

let domains = 128

let now () = Unix.gettimeofday ()

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

(* What [Sb.zone_digest] leaves out: a fork that re-faulted or missed
   in the TLB where the source did not shows here. *)
let counters (z : Kmod.t) =
  let core = z.Kmod.core in
  [ core.Lz_cpu.Core.cycles; core.Lz_cpu.Core.insns;
    Lz_mem.Tlb.hits core.Lz_cpu.Core.tlb;
    Lz_mem.Tlb.misses core.Lz_cpu.Core.tlb; z.Kmod.fault_traps;
    Kmod.table_memory_frames z ]

let () =
  let smoke, _ = Report.flags "fleet" in
  let instances = if smoke then 64 else 1024 in
  let slice_switches = if smoke then 300 else 1000 in
  (* Batch sizes for the MIPS curve; batches are disjoint, so the
     total churned is their sum. *)
  let counts = if smoke then [ 1; 4; 16 ] else [ 1; 4; 16; 64; 256 ] in
  let cold_samples = if smoke then 1 else 4 in
  let cm = Lz_cpu.Cost_model.cortex_a55 in

  (* Warm image. *)
  let t0 = now () in
  let r = Sb.prepare cm ~env:Sb.Host ~domains ~n:slice_switches in
  let warm_seconds = now () -. t0 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let image_digest = Sb.zone_digest z in
  Printf.printf "fleet: warm %d-domain image built in %.2fs (digest %s)\n%!"
    domains warm_seconds image_digest;

  (* Cold-start reference: building the same machine from scratch. *)
  let cold_times =
    List.init cold_samples (fun _ ->
        let c0 = now () in
        ignore (Sb.prepare cm ~env:Sb.Host ~domains ~n:slice_switches);
        now () -. c0)
  in
  let cold_mean = mean cold_times in

  (* Fork the fleet. *)
  let f0 = now () in
  let forks =
    Array.init instances (fun _ -> Snapshot.fork z image)
  in
  let fork_total = now () -. f0 in
  let fork_mean_us = fork_total /. float_of_int instances *. 1e6 in
  Printf.printf "fleet: forked %d instances in %.3fs (%.0f us/fork)\n%!"
    instances fork_total fork_mean_us;

  (* Every fork must be architecturally identical to the image. *)
  let forked_same =
    Array.for_all (fun f -> Sb.zone_digest f = image_digest) forks
  in

  (* Churn slices: run the switch workload on [churn] instances,
     tracking dirty pages and aggregate simulated MIPS at increasing
     instance counts. The source runs one slice too, as the reference
     end state every churned fork must reach. *)
  Sb.run_slice z;
  let ref_digest = Sb.zone_digest z and ref_counters = counters z in
  (* Disjoint batches, so every churned fork runs exactly one slice
     (matching the source) and each MIPS row measures fresh forks. *)
  assert (List.fold_left ( + ) 0 counts <= instances);
  let offset = ref 0 in
  let mips_rows =
    List.map
      (fun k ->
        let batch = Array.sub forks !offset k in
        offset := !offset + k;
        let insns0 =
          Array.fold_left
            (fun acc f -> acc + f.Kmod.core.Lz_cpu.Core.insns)
            0 batch
        in
        let s0 = now () in
        Array.iter Sb.run_slice batch;
        let seconds = now () -. s0 in
        let insns =
          Array.fold_left
            (fun acc f -> acc + f.Kmod.core.Lz_cpu.Core.insns)
            0 batch
          - insns0
        in
        let mips = float_of_int insns /. seconds /. 1e6 in
        Printf.printf "fleet: %4d instances churned: %d insns, %.3fs, %.1f MIPS\n%!"
          k insns seconds mips;
        (k, insns, seconds, mips))
      counts
  in
  (* Each churned slice runs the same program from the same state:
     every fork that ran must land exactly where the source landed,
     counters included. *)
  let churned = !offset in
  let churned_same =
    Array.for_all
      (fun f -> Sb.zone_digest f = ref_digest && counters f = ref_counters)
      (Array.sub forks 0 churned)
  in
  if forked_same && churned_same then
    Printf.printf
      "fleet: all %d forks digest-identical (%d churned, counters equal to \
       the source's)\n%!"
      instances churned;

  let dirty =
    List.init churned (fun i -> Snapshot.dirty_pages forks.(i) image)
  in
  let dirty_mean = mean (List.map float_of_int dirty) in
  let dirty_max = List.fold_left max 0 dirty in
  let st = Phys.stats z.Kmod.machine.Lz_kernel.Machine.phys in
  Printf.printf
    "fleet: dirty pages/instance mean %.1f max %d; store %d slots for %d \
     logical frames x %d views\n%!"
    dirty_mean dirty_max st.Phys.store_slots st.Phys.allocated (instances + 1);

  let cold_total = cold_mean *. float_of_int instances in
  let speedup = cold_total /. fork_total in
  Printf.printf
    "fleet: fork %.3fs vs cold %.2fs extrapolated (%.1fx cheaper)\n%!"
    fork_total cold_total speedup;

  let open Report in
  finish
    (make ~bench:"fleet" ~smoke
       ([ row "params"
            [ int Info "domains" domains;
              int Info "slice_switches" slice_switches;
              int Info "instances" instances;
              int Info "cold_samples" cold_samples;
              int Info "churned_instances" churned ];
          row "fork"
            [ float ~dp:4 Info "warm_image_seconds" warm_seconds;
              float ~dp:6 Info "total_seconds" fork_total;
              float ~dp:2 Info "mean_us" fork_mean_us;
              float ~dp:4 Info "cold_mean_seconds" cold_mean;
              float ~dp:2 Info "cold_total_seconds" cold_total;
              float ~dp:2 Info "speedup_vs_cold" speedup ];
          row "memory"
            [ float ~dp:1 Info "dirty_pages_mean" dirty_mean;
              int Info "dirty_pages_max" dirty_max;
              int Info "store_slots" st.Phys.store_slots;
              int Info "logical_frames" st.Phys.allocated;
              int Info "unshares" st.Phys.unshares ] ]
       @ List.map
           (fun (k, insns, seconds, mips) ->
             row
               (Printf.sprintf "instances=%d" k)
               [ int Info "insns" insns; float ~dp:4 Info "seconds" seconds;
                 float ~dp:1 Info "mips" mips ])
           mips_rows))
    (need forked_same "a fork's digest differs from the warm image's"
    @ need churned_same
        "a churned fork's digest or counters differ from the source's"
    @ need (smoke || speedup >= 10.)
        "forking is only %.1fx cheaper than cold setup (< 10x)" speedup)
