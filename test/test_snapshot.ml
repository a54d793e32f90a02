(* Tests for lz_snap: CoW physical memory (fork isolation, dirty
   counts, shared/private accounting), whole-machine snapshot/restore
   exactness — the property that [snapshot → restore → run] is
   indistinguishable from an uninterrupted run in registers, memory,
   cycles, instructions and TLB statistics, with the superblock engine
   on and off and with the snapshot taken mid-preemption-slice — and
   the replay regression: [Replay.replay_to] re-executes from periodic
   snapshots and reproduces the reference event ring byte-identically. *)

open Lz_mem
open Lz_cpu
open Lightzone
module Snapshot = Lz_snap.Snapshot
module Trace = Lz_trace.Trace
module Sb = Lz_eval.Switch_bench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Phys CoW unit tests *)

let test_phys_snapshot_restore () =
  let p = Phys.create () in
  let f1 = Phys.alloc_frame p and f2 = Phys.alloc_frame p in
  Phys.write64 p f1 0xAAAA;
  Phys.write64 p f2 0xBBBB;
  let s = Phys.snapshot p in
  check_int "clean after capture" 0 (Phys.dirty_pages p s);
  Phys.write64 p f1 0xCCCC;
  Phys.write64 p (f1 + 8) 0xDDDD;
  let f3 = Phys.alloc_frame p in
  Phys.write64 p f3 0xEEEE;
  check_int "two dirty frames" 2 (Phys.dirty_pages p s);
  let dirty = Phys.restore p s in
  check_int "restore reports dirty count" 2 dirty;
  check_int "f1 rewound" 0xAAAA (Phys.read64 p f1);
  check_int "f1+8 rewound" 0 (Phys.read64 p (f1 + 8));
  check_int "f2 untouched" 0xBBBB (Phys.read64 p f2);
  check_int "f3 back to hole" 0 (Phys.read64 p f3);
  (* Allocator state rewound too: the next frame is f3 again. *)
  check_int "allocator rewound" f3 (Phys.alloc_frame p);
  Phys.release p s

let test_phys_cow_fork_isolation () =
  let p = Phys.create () in
  let f = Phys.alloc_frame p in
  Phys.write64 p f 0x1111;
  let c = Phys.cow_clone p in
  check_int "clone reads shared frame" 0x1111 (Phys.read64 c f);
  Phys.write64 c f 0x2222;
  check_int "clone sees its write" 0x2222 (Phys.read64 c f);
  check_int "source unaffected" 0x1111 (Phys.read64 p f);
  Phys.write64 p f 0x3333;
  check_int "source write invisible to clone" 0x2222 (Phys.read64 c f);
  let st = Phys.stats p in
  check_bool "unshares happened" true (st.Phys.unshares >= 1)

let test_phys_stats_shared_private () =
  let p = Phys.create () in
  let f1 = Phys.alloc_frame p and f2 = Phys.alloc_frame p in
  Phys.write64 p f1 1;
  Phys.write64 p f2 2;
  let st = Phys.stats p in
  check_int "all private before clone" 0 st.Phys.shared;
  check_int "two resident" 2 st.Phys.resident;
  let c = Phys.cow_clone p in
  let st = Phys.stats p in
  check_int "all shared after clone" 2 st.Phys.shared;
  check_int "none private" 0 st.Phys.private_;
  Phys.write64 c f1 3;
  let st = Phys.stats p in
  check_int "one unshared" 1 st.Phys.shared;
  check_int "one private again" 1 st.Phys.private_

(* Satellite 1 regression: the 1-entry last-frame memo must not
   survive free_frame or a CoW unshare on the other side. *)
let test_phys_memo_invalidation () =
  let p = Phys.create () in
  let f = Phys.alloc_frame p in
  Phys.write64 p f 0x42;
  (* warm the memo on f *)
  check_int "warm" 0x42 (Phys.read64 p f);
  Phys.free_frame p f;
  check_int "freed frame reads zero" 0 (Phys.read64 p f);
  let f' = Phys.alloc_frame p in
  check_int "frame reused" f f';
  Phys.write64 p f' 0x43;
  (* Memo must not let a clone's writable base leak through a share. *)
  let c = Phys.cow_clone p in
  check_int "clone warm" 0x43 (Phys.read64 c f');
  Phys.write64 p f' 0x44;
  check_int "clone still sees old value" 0x43 (Phys.read64 c f');
  check_int "source sees new value" 0x44 (Phys.read64 p f')

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshot/restore exactness *)

let cm = Cost_model.cortex_a55

type endstate = {
  digest : string;
  cycles : int;
  insns : int;
  tlb_hits : int;
  tlb_misses : int;
  traps : int;
  fault_traps : int;
  frames : int;  (* page-table memory *)
  output : string;
}

let endstate (z : Kmod.t) =
  {
    digest = Sb.zone_digest z;
    cycles = z.Kmod.core.Core.cycles;
    insns = z.Kmod.core.Core.insns;
    tlb_hits = Tlb.hits z.Kmod.machine.Lz_kernel.Machine.tlb;
    tlb_misses = Tlb.misses z.Kmod.machine.Lz_kernel.Machine.tlb;
    traps = z.Kmod.traps;
    fault_traps = z.Kmod.fault_traps;
    frames = Kmod.table_memory_frames z;
    output = Buffer.contents z.Kmod.proc.Lz_kernel.Proc.output;
  }

(* Run a warm slice to completion, snapshotting at the [k]-th
   quiescent point along the way; then restore and re-run. Both
   completions must agree on every observable. *)
let snapshot_transparency ~engine ~preempt ~domains ~n ~k () =
  let r = Sb.prepare ?preempt cm ~env:Sb.Host ~domains ~n in
  let z = r.Sb.t in
  Core.set_engine z.Kmod.core engine;
  let snap = ref None in
  let seen = ref 0 in
  z.Kmod.on_quiescent <-
    Some
      (fun () ->
        incr seen;
        if !seen = k && !snap = None then snap := Some (Snapshot.capture z));
  Sb.run_slice z;
  z.Kmod.on_quiescent <- None;
  let reference = endstate z in
  match !snap with
  | None ->
      (* Not enough quiescent points (cooperative short run): snapshot
         the rewound end state instead and check restore is exact. *)
      let s = Snapshot.capture z in
      ignore (Snapshot.restore z s);
      Snapshot.release z s;
      let got = endstate z in
      (reference, got)
  | Some s ->
      ignore (Snapshot.restore z s);
      Snapshot.release z s;
      Sb.run_slice z;
      let got = endstate z in
      (reference, got)

let check_endstates what (a, b) =
  let c k = what ^ ": " ^ k in
  check_string (c "digest") a.digest b.digest;
  check_int (c "cycles") a.cycles b.cycles;
  check_int (c "insns") a.insns b.insns;
  check_int (c "tlb hits") a.tlb_hits b.tlb_hits;
  check_int (c "tlb misses") a.tlb_misses b.tlb_misses;
  check_int (c "traps") a.traps b.traps;
  check_int (c "fault traps") a.fault_traps b.fault_traps;
  check_int (c "table frames") a.frames b.frames;
  check_string (c "output") a.output b.output

let test_snapshot_transparency_preempted () =
  check_endstates "restored"
    (snapshot_transparency ~engine:Core.Blocks ~preempt:(Some 3000)
       ~domains:8 ~n:400 ~k:3 ())

let test_snapshot_transparency_no_blocks () =
  check_endstates "restored"
    (snapshot_transparency ~engine:Core.Per_insn ~preempt:(Some 3000)
       ~domains:8 ~n:400 ~k:3 ())

let test_snapshot_transparency_cooperative () =
  check_endstates "restored"
    (snapshot_transparency ~engine:Core.Blocks ~preempt:None ~domains:4
       ~n:100 ~k:1 ())

let prop_snapshot_transparency =
  QCheck.Test.make ~count:12 ~name:"snapshot/restore/run == uninterrupted run"
    QCheck.(
      quad (int_range 1 8) (int_range 50 400) (oneofl Core.engines)
        (int_range 1 6))
    (fun (domains, n, engine, k) ->
      let slice = 1000 + (397 * k) in
      let a, b =
        snapshot_transparency ~engine ~preempt:(Some slice) ~domains ~n ~k ()
      in
      a = b)

(* ------------------------------------------------------------------ *)
(* Forking *)

let test_fork_digest_identity () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:8 ~n:200 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let forks = List.init 4 (fun _ -> Snapshot.fork z image) in
  (* Forks must start from the image's architectural state... *)
  List.iter
    (fun f -> check_string "fork digest" (Sb.zone_digest z) (Sb.zone_digest f))
    forks;
  (* ...and running a slice on each must land where the source lands. *)
  Sb.run_slice z;
  let want = Sb.zone_digest z in
  List.iter
    (fun f ->
      Sb.run_slice f;
      check_string "fork slice digest" want (Sb.zone_digest f))
    forks;
  (* Forks are isolated: their writes never leak into the source. *)
  ignore (Snapshot.restore z image);
  check_int "source rewinds clean" 0 (Snapshot.dirty_pages z image);
  Snapshot.release z image

let test_fork_isolated_memory () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:2 ~n:50 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let f = Snapshot.fork z image in
  (* Write into the source's domain pages; the fork must not see it. *)
  let before = Sb.zone_digest f in
  Sb.run_slice z;
  check_string "fork unaffected by source run" before (Sb.zone_digest f);
  Snapshot.release z image

(* Fork, in-place restore and the source are three ways to run one
   slice from one image: they must agree on every counter, cycles and
   the TLB included, and on the page-table memory. *)
let fork_restore_source ~domains =
  let r = Sb.prepare cm ~env:Sb.Host ~domains ~n:300 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let f = Snapshot.fork z image in
  Sb.run_slice z;
  let source = endstate z in
  ignore (Snapshot.restore z image);
  Sb.run_slice z;
  check_endstates "restored" (source, endstate z);
  Sb.run_slice f;
  check_endstates "forked" (source, endstate f);
  Snapshot.retire_fork f;
  Snapshot.release z image;
  source

let test_fork_restore_source_8 () = ignore (fork_restore_source ~domains:8)

let test_fork_restore_source_128 () =
  let s = fork_restore_source ~domains:128 in
  check_int "cycles" 212_532 s.cycles;
  check_int "insns" 27_890 s.insns;
  check_int "tlb hits" 31_785 s.tlb_hits;
  check_int "tlb misses" 430 s.tlb_misses;
  check_int "fault traps" 134 s.fault_traps;
  check_int "table frames" 508 s.frames

(* Zone churn on a machine: a new table with a two-page domain faulted
   into it ([grow]), then freed ([shrink]). *)
let grow (m : Kmod.t) =
  let sys = m.Kmod.core.Core.sys in
  let ttbr0 = Lz_arm.Sysreg.read sys Lz_arm.Sysreg.TTBR0_EL1 in
  let va =
    Lz_kernel.Kernel.map_anon m.Kmod.kernel m.Kmod.proc ~at:0x780000
      ~len:0x2000 Lz_kernel.Vma.rw
  in
  let id = Api.lz_alloc m in
  Api.lz_prot m ~addr:va ~len:0x2000 ~pgt:id ~perm:Perm.(read lor write);
  Kmod.set_current_pgt m id;
  Kmod.prefault m ~va ~access:Mmu.Write;
  Kmod.prefault m ~va:(va + 0x1000) ~access:Mmu.Read;
  check_bool "zone ops: not terminated" true (m.Kmod.terminated = None);
  (id, ttbr0)

let shrink (m : Kmod.t) (id, ttbr0) =
  Api.lz_free m id;
  Lz_arm.Sysreg.write m.Kmod.core.Core.sys Lz_arm.Sysreg.TTBR0_EL1 ttbr0

(* A fork's zone API calls stay on the fork, and forking never reaches
   back into the source; the same calls on the source give the same
   numbers. The second fork is taken while the source holds a table
   made after the image: forking must not rewind the source's own
   fake-address assignments under it. *)
let test_fork_zone_ops () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:8 ~n:200 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let before = endstate z in
  let f = Snapshot.fork z image in
  let zf = grow f in
  let f_grown = endstate f in
  check_endstates "source while the fork holds a new table"
    (before, endstate z);
  check_bool "the new table adds frames" true
    (f_grown.frames > before.frames);
  shrink f zf;
  let f_after = endstate f in
  check_int "lz_free gives the frames back" before.frames f_after.frames;
  check_endstates "source after the fork's lz_free" (before, endstate z);
  let zz = grow z in
  check_endstates "source grown" (f_grown, endstate z);
  let g = Snapshot.fork z image in
  check_endstates "source across a second fork" (f_grown, endstate z);
  check_endstates "second fork starts at the image" (before, endstate g);
  shrink z zz;
  check_endstates "source shrunk" (f_after, endstate z);
  let zg = grow g in
  check_endstates "second fork grown" (f_grown, endstate g);
  shrink g zg;
  check_endstates "second fork shrunk" (f_after, endstate g);
  Snapshot.retire_fork f;
  Snapshot.retire_fork g;
  Snapshot.release z image

(* ------------------------------------------------------------------ *)
(* Replay *)

let test_replay_byte_identical () =
  let tr = Trace.create () in
  let r = Sb.prepare ~preempt:3000 cm ~env:Sb.Host ~domains:8 ~n:400 in
  let z = r.Sb.t in
  (* The tracer was not attached during prepare; attach now so the
     reference slice is fully traced. *)
  Api.set_tracer z (Some tr);
  let rec_ = Snapshot.Replay.record ~every:2 z in
  Sb.run_slice z;
  Snapshot.Replay.detach rec_;
  let reference = Trace.events tr in
  let by_seq = Hashtbl.create 1024 in
  List.iter
    (fun e -> Hashtbl.replace by_seq e.Trace.seq (Trace.event_to_json e))
    reference;
  let snaps = Snapshot.Replay.snapshots rec_ in
  check_bool "periodic snapshots were taken" true (List.length snaps >= 2);
  List.iter
    (fun (at, _) ->
      let index = min (Trace.total tr - 1) (at + 40) in
      if index >= at then begin
        let replayed = Snapshot.Replay.replay_to rec_ ~index in
        check_bool "replay produced events" true (replayed <> []);
        List.iter
          (fun e ->
            match Hashtbl.find_opt by_seq e.Trace.seq with
            | Some json ->
                check_string
                  (Printf.sprintf "replayed event #%d" e.Trace.seq)
                  json (Trace.event_to_json e)
            | None -> ())
          replayed
      end)
    snaps;
  (* Replay must be side-effect-free on the reference timeline. *)
  let after = Trace.events tr in
  check_int "reference ring untouched" (List.length reference)
    (List.length after);
  Snapshot.Replay.release_all rec_

let suite =
  [
    ( "phys-cow",
      [
        Alcotest.test_case "snapshot/restore" `Quick
          test_phys_snapshot_restore;
        Alcotest.test_case "fork isolation" `Quick
          test_phys_cow_fork_isolation;
        Alcotest.test_case "shared/private stats" `Quick
          test_phys_stats_shared_private;
        Alcotest.test_case "memo invalidation" `Quick
          test_phys_memo_invalidation;
      ] );
    ( "machine-snapshot",
      [
        Alcotest.test_case "transparency (preempted, blocks)" `Quick
          test_snapshot_transparency_preempted;
        Alcotest.test_case "transparency (preempted, no blocks)" `Quick
          test_snapshot_transparency_no_blocks;
        Alcotest.test_case "transparency (cooperative)" `Quick
          test_snapshot_transparency_cooperative;
        q prop_snapshot_transparency;
      ] );
    ( "fork",
      [
        Alcotest.test_case "digest identity" `Quick test_fork_digest_identity;
        Alcotest.test_case "memory isolation" `Quick
          test_fork_isolated_memory;
        Alcotest.test_case "fork = restore = source (8 domains)" `Quick
          test_fork_restore_source_8;
        Alcotest.test_case "fork = restore = source (128 domains)" `Quick
          test_fork_restore_source_128;
        Alcotest.test_case "zone ops stay on their machine" `Quick
          test_fork_zone_ops;
      ] );
    ("replay", [ Alcotest.test_case "byte-identical" `Quick
                   test_replay_byte_identical ]);
  ]

let () = Alcotest.run "lz_snap" suite
