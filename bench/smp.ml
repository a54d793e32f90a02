(* Multi-core simulation benchmark.

   Two measurements over the lz_smp machine:

   - MIPS vs core count (1/2/4/8): independent compute processes, one
     per core, fully pre-populated, run with one host domain per core;
     aggregate simulated MIPS against host wall-clock. The curve only
     scales when the host actually has the cores — host_cpus is
     recorded in the output so the committed numbers are
     interpretable.

   - Shootdown latency: a 2-core shared-process run where core 0
     drives mprotect ro/rw flips (each one an IS shootdown with a DVM
     completion stall) while core 1 keeps reading the flipped page;
     reports average ack latency in barriers and cycles. The protocol
     guarantees acks within two barriers.

   Emits BENCH_smp.json. Flags:
     --smoke   reduced 2-core run asserting sequential ≡ parallel
               digests (the CI smoke gate); does not write the JSON.
     --check   after the full run, enforce the gates: 2-core seq ≡ par
               digest, shootdown ack ≤ 2 barriers, and — only when
               host_cpus >= 4 — 4-core aggregate MIPS >= 2x 1-core. *)

open Lz_kernel
module Smp = Lz_smp.Smp
module Core = Lz_cpu.Core

let now () = Unix.gettimeofday ()
let arg f = Array.exists (( = ) f) Sys.argv

let code_va = 0x400000
let data_va = 0x600000
let code1_va = 0x410000
let stack_top = 0x7F0000010000

(* Independent compute kernel: rotate over 8 data pages with a
   store/load/xor loop, exit with a per-core mark. 8 insns/iter. *)
let compute_program ~iters ~mark =
  let open Lz_arm.Insn in
  [ Movz (4, 7, 0);
    Movz (1, iters land 0xFFFF, 0);
    Movk (1, (iters lsr 16) land 0xFFFF, 16);
    Movz (9, 0, 0);
    Movz (0, data_va lsr 16, 16);
    And_reg (3, 1, 4);
    Lsl_imm (3, 3, 12);
    Add (3, 0, Reg 3);
    Str (1, 3, 0);
    Ldr (5, 3, 0);
    Eor_reg (9, 9, 5);
    Subs (1, 1, Imm 1);
    Bcond (NE, -28);
    Movz (8, Kernel.Nr.exit, 0);
    Movz (0, mark, 0);
    Svc 0 ]

let build_compute ~cores ~iters () =
  let t = Smp.create ~engine:Core.Blocks ~cores () in
  for i = 0 to cores - 1 do
    let kernel = Kernel.create (Smp.slot_machine t i) Kernel.Host_vhe in
    let proc = Kernel.create_process kernel in
    ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x8000 Vma.rw);
    Kernel.load_program kernel proc ~va:code_va
      (compute_program ~iters:(iters + (977 * i)) ~mark:(40 + i));
    Kernel.populate kernel proc ~start:data_va ~len:0x8000;
    Smp.assign ~pool:8 t i kernel proc ~entry:code_va ~sp:stack_top
  done;
  t

let total_insns t =
  Array.fold_left
    (fun a (s : Smp.slot) -> a + s.Smp.core.Core.insns)
    0 t.Smp.slots

(* Shootdown latency rig: core 0 flips one page ro/rw [pairs] times
   (two shootdowns per pair), core 1 reads it forever (reads survive
   the ro window, so only TLB refills happen — no faults). *)
let build_shootdown ~pairs () =
  let quantum = 2_000 in
  let t = Smp.create ~cores:2 ~quantum () in
  let kernel = Kernel.create (Smp.slot_machine t 0) Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let open Lz_arm.Insn in
  Kernel.load_program kernel proc ~va:code_va
    [ Movz (12, pairs, 0);
      Movz (15, data_va lsr 16, 16);
      Add (0, 15, Imm 0);
      Movz (1, 0x1000, 0);
      Movz (2, 1, 0);
      Movz (8, Kernel.Nr.mprotect, 0);
      Svc 0;
      Add (0, 15, Imm 0);
      Movz (1, 0x1000, 0);
      Movz (2, 3, 0);
      Movz (8, Kernel.Nr.mprotect, 0);
      Svc 0;
      Subs (12, 12, Imm 1);
      Bcond (NE, -44);
      Movz (8, Kernel.Nr.exit, 0);
      Movz (0, 0, 0);
      Svc 0 ];
  Kernel.load_program kernel proc ~va:code1_va
    [ Movz (0, data_va lsr 16, 16);
      Ldr (5, 0, 0);
      Add (9, 9, Imm 1);
      B (-8) ];
  Kernel.populate kernel proc ~start:data_va ~len:0x1000;
  Smp.assign ~pool:0 t 0 kernel proc ~entry:code_va ~sp:stack_top;
  Smp.assign ~pool:0 t 1 kernel proc ~entry:code1_va ~sp:stack_top;
  t

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* Sequential-oracle ≡ parallel-domains digest check on a 2-core
   machine; returns unit or dies. *)
let check_seq_par ~iters () =
  let a = build_compute ~cores:2 ~iters () in
  let b = build_compute ~cores:2 ~iters () in
  let oa = Smp.run ~parallel:false a in
  let ob = Smp.run ~parallel:true b in
  if oa <> ob then fail "smp: FAIL — seq vs par outcomes differ";
  if Smp.digests a <> Smp.digests b then
    fail "smp: FAIL — seq vs par digests differ";
  if Smp.merged_trace a <> Smp.merged_trace b then
    fail "smp: FAIL — seq vs par traces differ";
  Printf.printf "smp: 2-core sequential ≡ parallel (digest + trace) OK\n%!"

let () =
  let smoke = arg "--smoke" in
  let check = arg "--check" in
  let host_cpus = Domain.recommended_domain_count () in
  Printf.printf "smp: host has %d usable cpu(s)\n%!" host_cpus;

  if smoke then begin
    check_seq_par ~iters:30_000 ();
    let t = build_shootdown ~pairs:50 () in
    ignore (Smp.run ~max_insns:3_000_000 t);
    let s0 = Smp.slot t 0 in
    if s0.Smp.sd_sent <> 100 then
      fail "smp: FAIL — expected 100 shootdowns, saw %d" s0.Smp.sd_sent;
    if s0.Smp.stall_barriers > 2 * s0.Smp.sd_sent then
      fail "smp: FAIL — shootdown acks took > 2 barriers on average";
    Printf.printf "smp: smoke OK (100 shootdowns, %.2f barriers/ack)\n%!"
      (float_of_int s0.Smp.stall_barriers /. float_of_int s0.Smp.sd_sent);
    exit 0
  end;

  (* MIPS curve. *)
  let iters = 300_000 in
  let counts = [ 1; 2; 4; 8 ] in
  let curve =
    List.map
      (fun cores ->
        let t = build_compute ~cores ~iters () in
        let t0 = now () in
        let os = Smp.run ~parallel:true t in
        let seconds = now () -. t0 in
        List.iteri
          (fun i (_, o) ->
            match o with
            | Kernel.Exited c when c = 40 + i -> ()
            | _ -> fail "smp: FAIL — core %d bad outcome in MIPS run" i)
          os;
        let insns = total_insns t in
        let mips = float_of_int insns /. seconds /. 1e6 in
        Printf.printf "smp: %d core(s): %d insns in %.2fs = %.1f MIPS\n%!"
          cores insns seconds mips;
        (cores, insns, seconds, mips))
      counts
  in
  let mips_of n =
    match List.find_opt (fun (c, _, _, _) -> c = n) curve with
    | Some (_, _, _, m) -> m
    | None -> 0.
  in
  let speedup4 = mips_of 4 /. mips_of 1 in

  (* Shootdown latency. *)
  let t = build_shootdown ~pairs:200 () in
  ignore (Smp.run ~max_insns:30_000_000 t);
  let s0 = Smp.slot t 0 in
  let quantum = t.Smp.quantum in
  let avg_barriers =
    float_of_int s0.Smp.stall_barriers /. float_of_int (max 1 s0.Smp.sd_sent)
  in
  let avg_cycles = avg_barriers *. float_of_int quantum in
  Printf.printf
    "smp: shootdown: %d sent, acked in %.2f barriers (%.0f cycles at Q=%d)\n%!"
    s0.Smp.sd_sent avg_barriers avg_cycles quantum;

  (* Emit the JSON. *)
  let oc = open_out "BENCH_smp.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"smp\",\n  \"host_cpus\": %d,\n  \"iters_per_core\": %d,\n\
    \  \"curve\": [\n%s\n  ],\n\
    \  \"speedup_4core\": %.2f,\n\
    \  \"shootdown\": { \"count\": %d, \"stall_barriers\": %d, \"avg_ack_barriers\": %.2f, \"quantum\": %d, \"avg_latency_cycles\": %.0f }\n\
     }\n"
    host_cpus iters
    (String.concat ",\n"
       (List.map
          (fun (c, i, s, m) ->
            Printf.sprintf
              "    { \"cores\": %d, \"insns\": %d, \"seconds\": %.3f, \"mips\": %.1f }"
              c i s m)
          curve))
    speedup4 s0.Smp.sd_sent s0.Smp.stall_barriers avg_barriers quantum
    avg_cycles;
  close_out oc;
  Printf.printf "smp: wrote BENCH_smp.json\n%!";

  if check then begin
    check_seq_par ~iters:30_000 ();
    if avg_barriers > 2.0 then
      fail "smp: FAIL — shootdown acks averaged %.2f barriers (> 2)"
        avg_barriers;
    if host_cpus >= 4 && speedup4 < 2.0 then
      fail "smp: FAIL — 4-core aggregate MIPS only %.2fx 1-core (>= 2x \
            required on a %d-cpu host)"
        speedup4 host_cpus;
    if host_cpus < 4 then
      Printf.printf
        "smp: scaling gate skipped (host has %d cpu(s), need >= 4)\n%!"
        host_cpus;
    Printf.printf "smp: check OK\n%!"
  end
