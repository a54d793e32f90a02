(* End-to-end integration scenarios across the whole stack:
   JIT-style W^X flips with re-sanitization, kernel/LightZone page
   table synchronization across munmap, guest LightZone processes
   using gates through the Lowvisor, shared domains, and permission
   overlays. *)

open Lz_arm
open Lz_kernel
open Lightzone
module Snapshot = Lz_snap.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_va = 0x400000
let jit_va = 0x900000
let data_va = 0x600000
let data2_va = 0x700000
let stack_va = 0x7F0000000000

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Store one 32-bit instruction word byte by byte (x1 scratch);
   a 64-bit Str would clobber the neighbouring instruction slot. *)
let store_insn b ~addr_reg ~off insn =
  let w = Encoding.encode insn in
  List.iteri
    (fun i byte ->
      Builder.emit b
        [ Insn.Movz (1, byte, 0); Insn.Strb (1, addr_reg, off + i) ])
    [ w land 0xFF; (w lsr 8) land 0xFF; (w lsr 16) land 0xFF;
      (w lsr 24) land 0xFF ]

let fresh () =
  let machine = Machine.create () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  (machine, kernel, proc)

(* ------------------------------------------------------------------ *)

let test_jit_flip_cycle () =
  (* A JIT: write a payload into an RWX page, run it, patch it, run it
     again. Each exec after a write forces unmap + re-scan + X-only. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:jit_va ~len:4096 Vma.rwx);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  (* Write payload 1: movz x9, #111; ret *)
  Builder.mov_imm64 b 0 jit_va;
  store_insn b ~addr_reg:0 ~off:0 (Insn.Movz (9, 111, 0));
  store_insn b ~addr_reg:0 ~off:4 (Insn.Ret 30);
  Builder.emit b [ Insn.Blr 0 ] (* run it: exec fault, scan, flip to X *);
  (* Patch payload: movz x10, #222 — the page is X-only now, so the
     store triggers the W-flip, then exec re-scans. *)
  store_insn b ~addr_reg:0 ~off:0 (Insn.Movz (10, 222, 0));
  Builder.emit b [ Insn.Blr 0 ];
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (match Api.run t with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "jit cycle: %a" Kmod.pp_outcome o);
  check_int "first payload ran" 111 (Lz_cpu.Core.reg t.Kmod.core 9);
  check_int "patched payload ran" 222 (Lz_cpu.Core.reg t.Kmod.core 10)

let test_jit_sensitive_injection_caught () =
  (* Same flow, but the patch injects ERET: the re-scan must kill. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:jit_va ~len:4096 Vma.rwx);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 jit_va;
  store_insn b ~addr_reg:0 ~off:0 (Insn.Ret 30);
  Builder.emit b [ Insn.Blr 0 ] (* benign first *);
  store_insn b ~addr_reg:0 ~off:0 Insn.Eret;
  Builder.emit b [ Insn.Blr 0; Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  match Api.run t with
  | Kmod.Terminated why ->
      check_bool "sanitizer caught the injected ERET" true
        (contains why "sanitizer")
  | o -> Alcotest.failf "expected termination, got %a" Kmod.pp_outcome o

(* Resume a zone parked at its exit [brk]: the core sits at EL2 until
   the ERET back into the interrupted EL1 context. *)
let resume (t : Kmod.t) ~pc =
  Lz_cpu.Core.eret_from_el2 t.Kmod.core;
  t.Kmod.proc.Proc.exit_code <- None;
  t.Kmod.core.Lz_cpu.Core.pc <- pc

let expect_exit what = function
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "%s: %a" what Kmod.pp_outcome o

let expect_killed what ~by = function
  | Kmod.Terminated why ->
      check_bool (Printf.sprintf "%s: %s" what why) true (contains why by)
  | o -> Alcotest.failf "%s: expected termination, got %a" what
           Kmod.pp_outcome o

(* A JIT page that passed the sanitizer is stamped. A store after the
   clean scan stales the stamp, so the ERET it injects is caught; a
   restore to the clean capture brings back a page that runs. *)
let test_jit_stamp_restore () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:jit_va ~len:4096 Vma.rwx);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 jit_va;
  store_insn b ~addr_reg:0 ~off:0 (Insn.Movz (9, 111, 0));
  store_insn b ~addr_reg:0 ~off:4 (Insn.Ret 30);
  Builder.emit b [ Insn.Blr 0; Insn.Brk 0 ] (* scanned clean *);
  let inject = Builder.here b in
  store_insn b ~addr_reg:0 ~off:0 Insn.Eret;
  let call = Builder.here b in
  Builder.emit b [ Insn.Blr 0; Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit "clean payload" (Api.run t);
  resume t ~pc:inject;
  let clean = Snapshot.capture t in
  expect_killed "ERET over a stamped page" ~by:"sanitizer" (Api.run t);
  ignore (Snapshot.restore t clean);
  Lz_cpu.Core.set_reg t.Kmod.core 9 0;
  t.Kmod.core.Lz_cpu.Core.pc <- call;
  expect_exit "restored payload" (Api.run t);
  check_int "the restored payload ran" 111 (Lz_cpu.Core.reg t.Kmod.core 9);
  Snapshot.release t clean

(* Two forks of one image whose JIT frame is stamped each store one
   word into it, so both frames reach the same generation with
   different bytes. Stamps are per view: the benign fork's clean
   rescan vouches for nothing in the other fork. *)
let test_jit_stamp_forks () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:jit_va ~len:4096 Vma.rwx);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 jit_va;
  store_insn b ~addr_reg:0 ~off:0 (Insn.Movz (9, 111, 0));
  store_insn b ~addr_reg:0 ~off:4 (Insn.Ret 30);
  Builder.emit b [ Insn.Blr 0; Insn.Brk 0 ] (* scanned clean *);
  let patch = Builder.here b in
  Builder.emit b [ Insn.Str32 (12, 0, 0); Insn.Blr 0; Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit "clean payload" (Api.run t);
  resume t ~pc:patch;
  let image = Snapshot.capture t in
  let run_fork insn =
    let f = Snapshot.fork t image in
    Lz_cpu.Core.set_reg f.Kmod.core 12 (Encoding.encode insn);
    let outcome = Kmod.run f in
    let x9 = Lz_cpu.Core.reg f.Kmod.core 9 in
    Snapshot.retire_fork f;
    (outcome, x9)
  in
  let benign, x9 = run_fork (Insn.Movz (9, 222, 0)) in
  expect_exit "benign fork" benign;
  check_int "the benign fork's payload ran" 222 x9;
  expect_killed "ERET fork" ~by:"sanitizer" (fst (run_fork Insn.Eret));
  Snapshot.release t image

let test_munmap_revokes_lz_view () =
  (* The process maps, touches, then munmaps a region through the
     LightZone syscall path; a later touch must be a clean segv — the
     module's synchronized tables may not retain a stale mapping. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 1, 0); Insn.Str (1, 0, 0) ] (* touch *);
  (* munmap(data_va, 4096) *)
  Builder.emit b [ Insn.Movz (8, Kernel.Nr.munmap, 0) ];
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 0x1000, 0); Insn.Hvc 0 ];
  (* touch again: must die *)
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (2, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  match Api.run t with
  | Kmod.Terminated why ->
      check_bool "segv after munmap" true
        (contains why "segmentation fault")
  | o -> Alcotest.failf "expected segv, got %a" Kmod.pp_outcome o

let test_shared_domain_two_pgts () =
  (* One region attached to two page tables: accessible from both,
     inaccessible from a third. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t and p2 = Api.lz_alloc t and p3 = Api.lz_alloc t in
  List.iteri (fun i p -> Api.lz_map_gate_pgt t ~pgt:p ~gate:i) [ p1; p2; p3 ];
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p2
    ~perm:(Perm.read lor Perm.write);
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 7, 0); Insn.Str (1, 0, 0) ];
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (2, 0, 0) ];
  Builder.switch_gate b ~gate:2;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (3, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  match Api.run t with
  | Kmod.Terminated why ->
      check_bool "third table denied" true (contains why "unauthorized");
      check_int "second table read the write" 7
        (Lz_cpu.Core.reg t.Kmod.core 2)
  | o -> Alcotest.failf "expected unauthorized, got %a" Kmod.pp_outcome o

let test_read_only_overlay () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  (* VMA allows writes; the overlay does not: least permission wins. *)
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1 ~perm:Perm.read;
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (1, 0, 0) ] (* read ok *);
  Builder.emit b [ Insn.Str (1, 0, 0); Insn.Brk 0 ] (* write dies *);
  Api.load_and_register t b ~va:code_va;
  match Api.run t with
  | Kmod.Terminated why ->
      check_bool "overlay denies write" true
        (contains why "denies write" || contains why "permission")
  | o -> Alcotest.failf "expected overlay denial, got %a" Kmod.pp_outcome o

let test_guest_lz_gates_end_to_end () =
  (* Full stack: hypervisor -> guest kernel -> Lowvisor-backed
     LightZone process switching TTBR domains via gates. *)
  let machine = Machine.create () in
  let hyp = Lz_hyp.Hypervisor.create machine in
  let vm = Lz_hyp.Hypervisor.create_vm hyp in
  let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
  let proc = Kernel.create_process gk in
  ignore (Kernel.map_anon gk proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  ignore (Kernel.map_anon gk proc ~at:data_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon gk proc ~at:data2_va ~len:0x1000 Vma.rw);
  let lv = Lowvisor.create hyp vm in
  let t =
    Api.lz_enter ~backend:(Kmod.Guest lv) ~allow_scalable:true ~insn_san:1
      ~entry:code_va ~sp:stack_va gk proc
  in
  let p1 = Api.lz_alloc t and p2 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_map_gate_pgt t ~pgt:p2 ~gate:1;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt:p2
    ~perm:(Perm.read lor Perm.write);
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 5, 0); Insn.Str (1, 0, 0) ];
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 data2_va;
  Builder.emit b [ Insn.Movz (1, 6, 0); Insn.Str (1, 0, 0);
                   Insn.Ldr (2, 0, 0) ];
  (* violation from p2 *)
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (3, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (match Api.run t with
  | Kmod.Terminated why ->
      check_bool "guest cross-domain denied" true (contains why "unauthorized")
  | o -> Alcotest.failf "expected unauthorized, got %a" Kmod.pp_outcome o);
  check_int "guest domain data" 6 (Lz_cpu.Core.reg t.Kmod.core 2);
  check_bool "lowvisor really forwarded" true (lv.Lowvisor.forwards > 3)

let test_many_domains_walkabout () =
  (* 64 domains, one pass through each via its gate — a miniature of
     the Table 5 program with correctness checking. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:(64 * 4096) Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  for d = 0 to 63 do
    let pgt = Api.lz_alloc t in
    Api.lz_map_gate_pgt t ~pgt ~gate:d;
    Api.lz_prot t ~addr:(data_va + (d * 4096)) ~len:4096 ~pgt
      ~perm:(Perm.read lor Perm.write)
  done;
  let b = Builder.create ~base:code_va in
  for d = 0 to 63 do
    Builder.switch_gate b ~gate:d;
    Builder.mov_imm64 b 0 (data_va + (d * 4096));
    Builder.emit b
      [ Insn.Movz (1, 1000 + d, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
        Insn.Eor_reg (3, 3, 2) (* accumulate *) ]
  done;
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (match Api.run t with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "walkabout: %a" Kmod.pp_outcome o);
  let expect = List.fold_left (fun acc d -> acc lxor (1000 + d)) 0
      (List.init 64 Fun.id) in
  check_int "all 64 domains visited" expect (Lz_cpu.Core.reg t.Kmod.core 3)

let test_signal_context_saves_pan_and_ttbr () =
  (* Section 6: a signal interrupts code that holds a domain open
     (TTBR = pgt1, PAN clear). The handler must start in pgt 0 with
     PAN set — no inherited access — and sigreturn must restore the
     interrupted context exactly so the open domain keeps working. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:data2_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  (* PAN-protected page, attached everywhere. *)
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt:Perm.pgt_all
    ~perm:(Perm.read lor Perm.write lor Perm.user);
  let handler_va = 0x410000 in
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.set_pan b false;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 1, 0); Insn.Str (1, 0, 0) ];
  (* getpid syscall: the trap boundary where the queued signal is
     delivered. *)
  Builder.emit b [ Insn.Movz (8, Kernel.Nr.getpid, 0); Insn.Hvc 0 ];
  (* After sigreturn: the domain must still be open and PAN clear. *)
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (2, 0, 0) ];
  Builder.mov_imm64 b 0 data2_va;
  Builder.emit b [ Insn.Ldr (3, 0, 0) ] (* PAN-protected: needs PAN=0 *);
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (* The handler: record PSTATE.PAN via an access pattern — reading
     the PAN-protected page would kill the process, so it just tags
     x20 and returns. *)
  let hb = Builder.create ~base:handler_va in
  Builder.emit hb [ Insn.Movz (20, 0x516 land 0xFFF, 0) ] ;
  Builder.emit hb [ Insn.Hvc 2 ];
  ignore hb;
  let hinsns, _ = Builder.finish hb in
  Kernel.load_program kernel proc ~va:handler_va hinsns;
  Kmod.queue_signal t ~handler:handler_va;
  (match Api.run t with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "signal flow: %a" Kmod.pp_outcome o);
  check_int "handler ran" 0x516 (Lz_cpu.Core.reg t.Kmod.core 20);
  check_int "domain survived the signal" 1 (Lz_cpu.Core.reg t.Kmod.core 2);
  check_int "no pending signals left" 0 (Kmod.pending_signals t)

let test_signal_handler_cannot_touch_domain () =
  (* A malicious/buggy handler touching the interrupted context's
     domain must die: it runs in pgt 0 with PAN set. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  let handler_va = 0x410000 in
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Movz (1, 1, 0); Insn.Str (1, 0, 0) ];
  Builder.emit b [ Insn.Movz (8, Kernel.Nr.getpid, 0); Insn.Hvc 0 ];
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  let hb = Builder.create ~base:handler_va in
  Builder.mov_imm64 hb 0 data_va;
  Builder.emit hb [ Insn.Ldr (1, 0, 0); Insn.Hvc 2 ];
  let hinsns, _ = Builder.finish hb in
  Kernel.load_program kernel proc ~va:handler_va hinsns;
  Kmod.queue_signal t ~handler:handler_va;
  match Api.run t with
  | Kmod.Terminated why ->
      check_bool "handler denied the domain" true (contains why "unauthorized")
  | o -> Alcotest.failf "expected denial, got %a" Kmod.pp_outcome o

let test_threads_share_domains_own_context () =
  (* Two threads of one process: each enters a different domain via
     the shared gates; their TTBR0/PAN are independent, the policy is
     shared. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:data2_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:0x410000 ~len:0x1000 Vma.rx);
  Proc.remove_vma_range proc ~start:0x410000 ~len:0x1000 |> ignore;
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t and p2 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_map_gate_pgt t ~pgt:p2 ~gate:1;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt:p2
    ~perm:(Perm.read lor Perm.write);
  (* Thread A: domain 1. *)
  let ba = Builder.create ~base:code_va in
  Builder.switch_gate ba ~gate:0;
  Builder.mov_imm64 ba 0 data_va;
  Builder.emit ba [ Insn.Movz (1, 11, 0); Insn.Str (1, 0, 0);
                    Insn.Ldr (9, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t ba ~va:code_va;
  (* Thread B: domain 2, program at a second code page. *)
  let tb = Kmod.new_thread t ~entry:0x410000 ~sp:(stack_va - 0x8000) in
  let bb = Builder.create ~base:0x410000 in
  Builder.switch_gate bb ~gate:1;
  Builder.mov_imm64 bb 0 data2_va;
  Builder.emit bb [ Insn.Movz (1, 22, 0); Insn.Str (1, 0, 0);
                    Insn.Ldr (9, 0, 0); Insn.Brk 0 ];
  let insns_b, entries_b = Builder.finish bb in
  Kernel.load_program kernel proc ~va:0x410000 insns_b;
  Api.register_entries t entries_b;
  (* Interleave: run A, then B — contexts must not bleed. Thread A's
     brk sets the shared exit code; clear it so B runs. *)
  (match Api.run t with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "thread A: %a" Kmod.pp_outcome o);
  t.Kmod.proc.Proc.exit_code <- None;
  (match Api.run tb with
  | Kmod.Exited 0 -> ()
  | o -> Alcotest.failf "thread B: %a" Kmod.pp_outcome o);
  check_int "A in its domain" 11 (Lz_cpu.Core.reg t.Kmod.core 9);
  check_int "B in its domain" 22 (Lz_cpu.Core.reg tb.Kmod.core 9);
  check_bool "independent TTBR0" true
    (Lz_arm.Sysreg.read t.Kmod.core.Lz_cpu.Core.sys Lz_arm.Sysreg.TTBR0_EL1
    <> Lz_arm.Sysreg.read tb.Kmod.core.Lz_cpu.Core.sys
         Lz_arm.Sysreg.TTBR0_EL1)

let test_thread_violation_kills_process () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:0x410000 ~len:0x1000 Vma.rx);
  Proc.remove_vma_range proc ~start:0x410000 ~len:0x1000 |> ignore;
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  (* Rogue thread touches the domain without a gate pass. *)
  let tb = Kmod.new_thread t ~entry:0x410000 ~sp:(stack_va - 0x8000) in
  let bb = Builder.create ~base:0x410000 in
  Builder.mov_imm64 bb 0 data_va;
  Builder.emit bb [ Insn.Ldr (1, 0, 0); Insn.Brk 0 ];
  let insns_b, _ = Builder.finish bb in
  Kernel.load_program kernel proc ~va:0x410000 insns_b;
  (match Api.run tb with
  | Kmod.Terminated _ -> ()
  | o -> Alcotest.failf "expected kill, got %a" Kmod.pp_outcome o);
  (* The main thread is dead too: the process was terminated. *)
  let bmain = Builder.create ~base:code_va in
  Builder.emit bmain [ Insn.Brk 0 ];
  Api.load_and_register t bmain ~va:code_va;
  match Api.run t with
  | Kmod.Terminated _ -> ()
  | o -> Alcotest.failf "process must be dead, got %a" Kmod.pp_outcome o

let test_lz_free_invalidates_gate () =
  (* After lz_free, the gate's TTBRTab slot is zeroed: switching
     through the stale gate must be caught by the check phase. *)
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let p1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:p1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:p1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_free t p1;
  (* The stale gate "switches" to TTBR 0; globally cached pages still
     execute, but touching the freed domain must be fatal — no residue
     of the freed table grants access. *)
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  match Api.run t with
  | Kmod.Terminated why ->
      (* The walk through the zeroed TTBR dies at stage 2 — any of
         the three layered defenses is an acceptable stop. *)
      check_bool "freed table grants nothing" true
        (contains why "gate" || contains why "TTBR0"
        || contains why "stage-2")
  | o -> Alcotest.failf "expected violation, got %a" Kmod.pp_outcome o

(* The protection registry is one value per machine: what a fork
   registers stays in the fork, and what the source registers after a
   capture stays out of the image. *)
let test_fork_keeps_own_registry () =
  let _, kernel, proc = fresh () in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:4096 Vma.rw);
  let t =
    Api.lz_enter ~allow_scalable:true ~insn_san:1 ~entry:code_va
      ~sp:stack_va kernel proc
  in
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Brk 0 ];
  let touch = Builder.here b in
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (2, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit "entry" (Api.run t);
  resume t ~pc:touch;
  let image = Snapshot.capture t in
  let protect z =
    let p = Kmod.lz_alloc z in
    Kmod.lz_prot z ~addr:data_va ~len:4096 ~pgt:p
      ~perm:(Perm.read lor Perm.write)
  in
  let f = Snapshot.fork t image in
  protect f;
  expect_killed "the fork's own domain" ~by:"unauthorized" (Kmod.run f);
  Snapshot.retire_fork f;
  expect_exit "source after the fork registered" (Kmod.run t);
  ignore (Snapshot.restore t image);
  protect t;
  let g = Snapshot.fork t image in
  expect_exit "fork of the image the source changed since" (Kmod.run g);
  Snapshot.retire_fork g;
  Snapshot.release t image

let () =
  Alcotest.run "lz_integration"
    [ ( "wxe",
        [ Alcotest.test_case "jit flip cycle" `Quick test_jit_flip_cycle;
          Alcotest.test_case "jit injection caught" `Quick
            test_jit_sensitive_injection_caught;
          Alcotest.test_case "jit stamp and restore" `Quick
            test_jit_stamp_restore;
          Alcotest.test_case "jit stamp per fork" `Quick
            test_jit_stamp_forks ] );
      ( "sync",
        [ Alcotest.test_case "munmap revokes" `Quick
            test_munmap_revokes_lz_view ] );
      ( "domains",
        [ Alcotest.test_case "shared across pgts" `Quick
            test_shared_domain_two_pgts;
          Alcotest.test_case "read-only overlay" `Quick
            test_read_only_overlay;
          Alcotest.test_case "64-domain walkabout" `Quick
            test_many_domains_walkabout;
          Alcotest.test_case "fork keeps its registry" `Quick
            test_fork_keeps_own_registry ] );
      ( "guest",
        [ Alcotest.test_case "gates through lowvisor" `Quick
            test_guest_lz_gates_end_to_end ] );
      ( "signals",
        [ Alcotest.test_case "context saved/restored" `Quick
            test_signal_context_saves_pan_and_ttbr;
          Alcotest.test_case "handler confined" `Quick
            test_signal_handler_cannot_touch_domain ] );
      ( "threads",
        [ Alcotest.test_case "share domains, own context" `Quick
            test_threads_share_domains_own_context;
          Alcotest.test_case "violation kills process" `Quick
            test_thread_violation_kills_process;
          Alcotest.test_case "lz_free invalidates gate" `Quick
            test_lz_free_invalidates_gate ] ) ]
