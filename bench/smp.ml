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

   Every run requires a 2-core sequential ≡ parallel digest and trace
   and shootdown acks within 2 barriers on average; a full run also
   requires 4-core aggregate MIPS >= 2x 1-core when host_cpus >= 4.
   `--smoke` is the CI variant: the seq ≡ par check and 100
   shootdowns, no MIPS curve. *)

open Lz_kernel
module Smp = Lz_smp.Smp
module Core = Lz_cpu.Core

let now () = Unix.gettimeofday ()

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

(* Sequential-oracle ≡ parallel-domains check on a 2-core machine:
   the failures. *)
let check_seq_par ~iters () =
  let a = build_compute ~cores:2 ~iters () in
  let b = build_compute ~cores:2 ~iters () in
  let oa = Smp.run ~parallel:false a in
  let ob = Smp.run ~parallel:true b in
  let fails =
    Report.need (oa = ob) "seq vs par outcomes differ"
    @ Report.need (Smp.digests a = Smp.digests b) "seq vs par digests differ"
    @ Report.need
        (Smp.merged_trace a = Smp.merged_trace b)
        "seq vs par traces differ"
  in
  if fails = [] then
    Printf.printf "smp: 2-core sequential ≡ parallel (digest + trace) OK\n%!";
  fails

(* Shootdown latency: [pairs] ro/rw flip pairs, two shootdowns each. *)
let shootdown ~pairs ~max_insns =
  let t = build_shootdown ~pairs () in
  ignore (Smp.run ~max_insns t);
  let s0 = Smp.slot t 0 in
  let sent = s0.Smp.sd_sent and quantum = t.Smp.quantum in
  let barriers =
    float_of_int s0.Smp.stall_barriers /. float_of_int (max 1 sent)
  in
  Printf.printf
    "smp: shootdown: %d sent, acked in %.2f barriers (%.0f cycles at Q=%d)\n%!"
    sent barriers (barriers *. float_of_int quantum) quantum;
  let open Report in
  ( row "shootdown"
      [ int Info "count" sent; int Info "stall_barriers" s0.Smp.stall_barriers;
        float ~dp:2 Info "avg_ack_barriers" barriers;
        int Info "quantum" quantum;
        float ~dp:0 Info "avg_latency_cycles"
          (barriers *. float_of_int quantum) ],
    need (sent = 2 * pairs) "expected %d shootdowns, saw %d" (2 * pairs) sent
    @ need (barriers <= 2.) "shootdown acks averaged %.2f barriers (> 2)"
        barriers )

let () =
  let smoke, _ = Report.flags "smp" in
  let host_cpus = Domain.recommended_domain_count () in
  Printf.printf "smp: host has %d usable cpu(s)\n%!" host_cpus;
  let seq_par = check_seq_par ~iters:30_000 () in

  (* MIPS curve, full runs only. *)
  let iters = 300_000 in
  let curve =
    List.map
      (fun cores ->
        let t = build_compute ~cores ~iters () in
        let t0 = now () in
        let os = Smp.run ~parallel:true t in
        let seconds = now () -. t0 in
        let bad =
          List.concat
            (List.mapi
               (fun i (_, o) ->
                 Report.need (o = Kernel.Exited (40 + i))
                   "core %d bad outcome in the %d-core MIPS run" i cores)
               os)
        in
        let insns = total_insns t in
        let mips = float_of_int insns /. seconds /. 1e6 in
        Printf.printf "smp: %d core(s): %d insns in %.2fs = %.1f MIPS\n%!"
          cores insns seconds mips;
        (cores, insns, seconds, mips, bad))
      (if smoke then [] else [ 1; 2; 4; 8 ])
  in
  let mips_of n =
    match List.find_opt (fun (c, _, _, _, _) -> c = n) curve with
    | Some (_, _, _, m, _) -> m
    | None -> 0.
  in
  let speedup4 = mips_of 4 /. mips_of 1 in
  let scaling_gated = (not smoke) && host_cpus >= 4 in
  if not (smoke || scaling_gated) then
    Printf.printf
      "smp: scaling gate skipped (host has %d cpu(s), need >= 4)\n%!" host_cpus;
  let sd, sd_fails =
    if smoke then shootdown ~pairs:50 ~max_insns:3_000_000
    else shootdown ~pairs:200 ~max_insns:30_000_000
  in
  let open Report in
  let scaling =
    if smoke then []
    else
      row "params" [ int Info "iters_per_core" iters ]
      :: List.map
           (fun (cores, insns, seconds, mips, _) ->
             row
               (Printf.sprintf "cores=%d" cores)
               [ int Info "insns" insns; float Info "seconds" seconds;
                 float ~dp:1 Info "mips" mips ])
           curve
      @ [ row "scaling" [ float ~dp:2 Info "speedup_4core" speedup4 ] ]
  in
  finish
    (make ~bench:"smp" ~smoke (scaling @ [ sd ]))
    (seq_par
    @ List.concat_map (fun (_, _, _, _, bad) -> bad) curve
    @ sd_fails
    @ need
        ((not scaling_gated) || speedup4 >= 2.0)
        "4-core aggregate MIPS only %.2fx 1-core (>= 2x required on a \
         %d-cpu host)"
        speedup4 host_cpus)
