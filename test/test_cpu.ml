(* Tests for the core simulator: programs are assembled to real
   encodings in simulated physical memory and executed. *)

open Lz_arm
open Lz_mem
open Lz_cpu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_va = 0x10000
let data_va = 0x20000

type env = { phys : Phys.t; core : Core.t; root : int }

(* A minimal single-stage environment: one code page and one data page
   mapped in a fresh stage-1 tree, PC at the code page. [code_rw] makes
   the code page writable, for self-modifying programs. *)
let build_env ?engine ?(cost = Cost_model.cortex_a55) ?(el = Pstate.EL1)
    ?(code_rw = false) ?(data_user = false) ?(data_ro = false) program =
  let phys = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root phys in
  let code_pa = Phys.alloc_frame phys in
  let data_pa = Phys.alloc_frame phys in
  let user_code = el = Pstate.EL0 in
  Stage1.map_page phys ~root ~va:code_va ~pa:code_pa
    { Pte.user = user_code; read_only = not code_rw; uxn = not user_code;
      pxn = user_code; ng = true };
  Stage1.map_page phys ~root ~va:data_va ~pa:data_pa
    { Pte.user = data_user || el = Pstate.EL0; read_only = data_ro;
      uxn = true; pxn = true; ng = true };
  List.iteri
    (fun i insn -> Phys.write32 phys (code_pa + (4 * i)) (Encoding.encode insn))
    program;
  let core = Core.create ?engine phys tlb cost el in
  Sysreg.write core.sys Sysreg.TTBR0_EL1 (Mmu.ttbr_value ~root ~asid:1);
  core.pc <- code_va;
  { phys; core; root }

let run env = Core.run env.core

let expect_brk stop =
  match stop with
  | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
  | s -> Alcotest.failf "expected brk, got %a" Core.pp_stop s

(* ------------------------------------------------------------------ *)

let test_alu () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, 7, 0);
        Movz (1, 5, 0);
        Add (2, 0, Reg 1);      (* x2 = 12 *)
        Sub (3, 2, Imm 2);      (* x3 = 10 *)
        Movz (4, 0xBEEF, 0);
        Movk (4, 0xDEAD, 16);   (* x4 = 0xDEADBEEF *)
        Lsl_imm (5, 1, 4);      (* x5 = 80 *)
        Lsr_imm (6, 5, 3);      (* x6 = 10 *)
        Eor_reg (7, 3, 6);      (* x7 = 0 *)
        Brk 1 ]
  in
  expect_brk (run env);
  check_int "add" 12 (Core.reg env.core 2);
  check_int "sub" 10 (Core.reg env.core 3);
  check_int "movk" 0xDEADBEEF (Core.reg env.core 4);
  check_int "lsl" 80 (Core.reg env.core 5);
  check_int "lsr" 10 (Core.reg env.core 6);
  check_int "eor" 0 (Core.reg env.core 7)

let test_load_store () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, data_va land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Movz (1, 1234, 0);
        Str (1, 0, 8);
        Ldr (2, 0, 8);
        Strb (1, 0, 100);
        Ldrb (3, 0, 100);
        Brk 1 ]
  in
  expect_brk (run env);
  check_int "str/ldr" 1234 (Core.reg env.core 2);
  check_int "strb/ldrb" (1234 land 0xFF) (Core.reg env.core 3)

let test_branch_loop () =
  let open Insn in
  (* sum = 5+4+3+2+1 via cbnz loop *)
  let env =
    build_env
      [ Movz (0, 5, 0);          (* counter *)
        Movz (1, 0, 0);          (* sum *)
        Add (1, 1, Reg 0);       (* loop: *)
        Sub (0, 0, Imm 1);
        Cbnz (0, -8);
        Brk 1 ]
  in
  expect_brk (run env);
  check_int "sum" 15 (Core.reg env.core 1)

let test_bl_ret () =
  let open Insn in
  let env =
    build_env
      [ Bl 12;                   (* call +3 insns *)
        Movz (1, 99, 0);         (* executed after return *)
        Brk 1;
        Movz (0, 42, 0);         (* callee *)
        Ret 30 ]
  in
  expect_brk (run env);
  check_int "callee ran" 42 (Core.reg env.core 0);
  check_int "back" 99 (Core.reg env.core 1)

let test_bcond () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, 5, 0);
        Subs (31, 0, Imm 5);     (* cmp x0, #5 *)
        Bcond (EQ, 12);          (* taken *)
        Movz (1, 1, 0);          (* skipped *)
        Brk 1;
        Movz (2, 7, 0);
        Brk 1 ]
  in
  expect_brk (run env);
  check_int "skipped" 0 (Core.reg env.core 1);
  check_int "taken" 7 (Core.reg env.core 2)

let test_svc_routing_tge () =
  let open Insn in
  let env = build_env ~el:Pstate.EL0 [ Movz (8, 64, 0); Svc 0 ] in
  (* VHE host: TGE routes EL0 syscalls to EL2. *)
  Sysreg.write env.core.sys Sysreg.HCR_EL2 (Sysreg.Hcr.tge lor Sysreg.Hcr.e2h);
  (match run env with
  | Core.Trap_el2 (Core.Ec_svc 0) -> ()
  | s -> Alcotest.failf "expected svc->EL2, got %a" Core.pp_stop s);
  check_int "syscall nr in x8" 64 (Core.reg env.core 8)

let test_svc_routing_guest () =
  let open Insn in
  let env = build_env ~el:Pstate.EL0 [ Svc 7 ] in
  (match run env with
  | Core.Trap_el1 (Core.Ec_svc 7) -> ()
  | s -> Alcotest.failf "expected svc->EL1, got %a" Core.pp_stop s);
  (* Architectural entry happened. *)
  check_int "esr ec" 0x15 (Sysreg.read env.core.sys Sysreg.ESR_EL1 lsr 26);
  Alcotest.(check string)
    "now at EL1" "EL1"
    (Format.asprintf "%a" Pstate.pp_el env.core.pstate.el)

let test_hvc () =
  let open Insn in
  let env = build_env [ Hvc 3 ] in
  (match run env with
  | Core.Trap_el2 (Core.Ec_hvc 3) -> ()
  | s -> Alcotest.failf "expected hvc, got %a" Core.pp_stop s);
  (* hvc from EL0 is undefined. *)
  let env0 = build_env ~el:Pstate.EL0 [ Hvc 3 ] in
  match run env0 with
  | Core.Trap_el1 (Core.Ec_undef _) -> ()
  | s -> Alcotest.failf "expected undef, got %a" Core.pp_stop s

let test_pan_blocks () =
  let open Insn in
  let addr_insns =
    [ Movz (0, data_va land 0xFFFF, 0); Movk (0, data_va lsr 16, 16) ]
  in
  (* PAN=1: EL1 load from a user page faults. *)
  let env =
    build_env ~data_user:true
      (addr_insns @ [ Msr_pstate (PAN, 1); Ldr (1, 0, 0) ])
  in
  (match run env with
  | Core.Trap_el1 (Core.Ec_dabort f) ->
      check_int "stage 1" 1 f.Mmu.stage;
      check_bool "permission" true (f.Mmu.kind = Mmu.Permission)
  | s -> Alcotest.failf "expected dabort, got %a" Core.pp_stop s);
  (* PAN=0: same load succeeds. *)
  let env2 =
    build_env ~data_user:true
      (addr_insns
      @ [ Msr_pstate (PAN, 1); Msr_pstate (PAN, 0); Ldr (1, 0, 0); Brk 1 ])
  in
  expect_brk (run env2)

let test_ldtr_semantics () =
  let open Insn in
  let addr_insns =
    [ Movz (0, data_va land 0xFFFF, 0); Movk (0, data_va lsr 16, 16) ]
  in
  (* LDTR to a user page works even under PAN. *)
  let env =
    build_env ~data_user:true
      (addr_insns @ [ Msr_pstate (PAN, 1); Ldtr (1, 0, 0); Brk 1 ])
  in
  expect_brk (run env);
  (* LDTR to a kernel page faults: it is an EL0-style access. *)
  let env2 = build_env (addr_insns @ [ Ldtr (1, 0, 0) ]) in
  match run env2 with
  | Core.Trap_el1 (Core.Ec_dabort _) -> ()
  | s -> Alcotest.failf "expected dabort, got %a" Core.pp_stop s

let test_write_ro_faults () =
  let open Insn in
  let env =
    build_env ~data_ro:true
      [ Movz (0, data_va land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Str (0, 0, 0) ]
  in
  match run env with
  | Core.Trap_el1 (Core.Ec_dabort f) ->
      check_bool "permission" true (f.Mmu.kind = Mmu.Permission)
  | s -> Alcotest.failf "expected dabort, got %a" Core.pp_stop s

let test_tvm_traps_ttbr_write () =
  let open Insn in
  let env = build_env [ Msr (Sysreg.TTBR0_EL1, 0) ] in
  Sysreg.write env.core.sys Sysreg.HCR_EL2 Sysreg.Hcr.tvm;
  match run env with
  | Core.Trap_el2 (Core.Ec_sysreg_trap _) -> ()
  | s -> Alcotest.failf "expected sysreg trap, got %a" Core.pp_stop s

let test_ttbr_switch_changes_translation () =
  let open Insn in
  (* Two stage-1 trees map data_va to different frames; switching
     TTBR0 (different ASIDs) must change what a load observes. *)
  let env =
    build_env
      [ Movz (0, data_va land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Ldr (1, 0, 0);           (* via root A *)
        Msr (Sysreg.TTBR0_EL1, 9);  (* x9 preloaded with root B value *)
        Isb;
        Ldr (2, 0, 0);           (* via root B *)
        Brk 1 ]
  in
  (* Root B maps data_va and the code page; ASID 2. *)
  let root_b = Stage1.create_root env.phys in
  let frame_b = Phys.alloc_frame env.phys in
  Phys.write64 env.phys frame_b 222;
  (match Stage1.walk env.phys ~root:env.root ~va:code_va with
  | Ok w ->
      Stage1.map_page env.phys ~root:root_b ~va:code_va ~pa:w.Stage1.pa
        w.Stage1.attrs
  | Error _ -> Alcotest.fail "code mapped");
  Stage1.map_page env.phys ~root:root_b ~va:data_va ~pa:frame_b
    { Pte.user = false; read_only = false; uxn = true; pxn = true; ng = true };
  (* Root A's data holds 111. *)
  (match Stage1.walk env.phys ~root:env.root ~va:data_va with
  | Ok w -> Phys.write64 env.phys w.Stage1.pa 111
  | Error _ -> Alcotest.fail "data mapped");
  env.core.regs.(9) <- Mmu.ttbr_value ~root:root_b ~asid:2;
  expect_brk (run env);
  check_int "before switch" 111 (Core.reg env.core 1);
  check_int "after switch" 222 (Core.reg env.core 2)

let test_watchpoint () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, data_va land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Ldr (1, 0, 16) ]
  in
  (* Watch [data_va, data_va + 4K). MASK=12 -> 4096 bytes. *)
  Sysreg.write env.core.sys Sysreg.DBGWVR0_EL1 data_va;
  Sysreg.write env.core.sys Sysreg.DBGWCR0_EL1 ((12 lsl 24) lor 1);
  match run env with
  | Core.Trap_el1 (Core.Ec_watchpoint va) -> check_int "va" (data_va + 16) va
  | s -> Alcotest.failf "expected watchpoint, got %a" Core.pp_stop s

let test_fetch_fault () =
  let open Insn in
  let env = build_env [ Movz (0, 0x9999, 0); Movk (0, 9, 16); Br 0 ] in
  match run env with
  | Core.Trap_el1 (Core.Ec_iabort f) -> check_int "va" 0x99999 f.Mmu.va
  | s -> Alcotest.failf "expected iabort, got %a" Core.pp_stop s

let test_eret_to_el0 () =
  let open Insn in
  (* EL1 code erets to EL0 code mapped in the same tree. *)
  let env = build_env [ Eret ] in
  let user_pa = Phys.alloc_frame env.phys in
  let user_va = 0x30000 in
  Stage1.map_page env.phys ~root:env.root ~va:user_va ~pa:user_pa
    { Pte.user = true; read_only = true; uxn = false; pxn = true; ng = true };
  Phys.write32 env.phys user_pa (Encoding.encode (Svc 5));
  Sysreg.write env.core.sys Sysreg.ELR_EL1 user_va;
  let spsr = Pstate.to_spsr (Pstate.make Pstate.EL0) in
  Sysreg.write env.core.sys Sysreg.SPSR_EL1 spsr;
  match run env with
  | Core.Trap_el1 (Core.Ec_svc 5) -> ()
  | s -> Alcotest.failf "expected svc from EL0, got %a" Core.pp_stop s

let test_undef () =
  let env = build_env [] in
  (* Garbage word. *)
  (match Stage1.walk env.phys ~root:env.root ~va:code_va with
  | Ok w -> Phys.write32 env.phys w.Stage1.pa 0xFFFFFFFF
  | Error _ -> Alcotest.fail "code mapped");
  match run env with
  | Core.Trap_el1 (Core.Ec_undef _) -> ()
  | s -> Alcotest.failf "expected undef, got %a" Core.pp_stop s

let test_el0_cannot_msr () =
  let open Insn in
  let env = build_env ~el:Pstate.EL0 [ Msr (Sysreg.TTBR0_EL1, 0) ] in
  (match run env with
  | Core.Trap_el1 (Core.Ec_undef _) -> ()
  | s -> Alcotest.failf "expected undef, got %a" Core.pp_stop s);
  let env2 = build_env ~el:Pstate.EL0 [ Msr_pstate (PAN, 0) ] in
  match run env2 with
  | Core.Trap_el1 (Core.Ec_undef _) -> ()
  | s -> Alcotest.failf "PAN toggle at EL0 must be undef, got %a"
           Core.pp_stop s

let test_cycles_accumulate () =
  let open Insn in
  let env = build_env [ Movz (0, 1, 0); Nop; Nop; Brk 1 ] in
  expect_brk (run env);
  check_bool "cycles counted" true (env.core.cycles > 0);
  check_int "insns counted" 4 env.core.insns

let test_cntvct_reads_cycles () =
  let open Insn in
  let env = build_env [ Nop; Nop; Mrs (0, Sysreg.CNTVCT_EL0); Brk 1 ] in
  expect_brk (run env);
  check_bool "nonzero virtual counter" true (Core.reg env.core 0 > 0)

let test_tlbi_flushes () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, data_va land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Ldr (1, 0, 0);    (* populate TLB *)
        Tlbi_vmalle1;
        Brk 1 ]
  in
  expect_brk (run env);
  (* After vmalle1 the TLB holds nothing for vmid 0. *)
  check_bool "flushed" true
    (Tlb.lookup env.core.tlb ~vmid:0 ~asid:1 ~va:data_va = None)

(* Map a second data page right after [data_va]'s, backed by a
   deliberately discontiguous frame, so accesses straddling the page
   boundary must translate both pages. *)
let map_second_data_page ?(ro = false) env =
  let gap = Phys.alloc_frame env.phys in
  ignore gap;
  let pa2 = Phys.alloc_frame env.phys in
  Stage1.map_page env.phys ~root:env.root ~va:(data_va + 0x1000) ~pa:pa2
    { Pte.user = false; read_only = ro; uxn = true; pxn = true; ng = true }

let test_straddle_load_store () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, (data_va + 0xFFC) land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Ldr (1, 0, 0);             (* load straddling 4 + 4 bytes *)
        Add (2, 1, Imm 1);
        Str (2, 0, 0);             (* straddling store *)
        Ldr32 (3, 0, 4);           (* 32-bit read of the high half *)
        Brk 1 ]
  in
  map_second_data_page env;
  let v = 0x0123456789ABCDEF in
  (match Core.write_mem env.core ~width:8 (data_va + 0xFFC) v with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "harness straddling write failed");
  expect_brk (run env);
  check_int "straddling load" v (Core.reg env.core 1);
  (match Core.read_mem env.core ~width:8 (data_va + 0xFFC) with
  | Ok got -> check_int "straddling store" (v + 1) got
  | Error _ -> Alcotest.fail "harness straddling read failed");
  (* The two halves really live in discontiguous frames: check each
     side of the boundary byte-by-byte. *)
  (match Core.read_mem env.core ~width:1 (data_va + 0xFFF) with
  | Ok b -> check_int "low-page byte" (((v + 1) lsr 24) land 0xFF) b
  | Error _ -> Alcotest.fail "low byte");
  check_int "high half" (((v + 1) lsr 32) land 0xFFFFFFFF)
    (Core.reg env.core 3)

let test_straddle_fault_second_page () =
  let open Insn in
  let env =
    build_env
      [ Movz (0, (data_va + 0xFFC) land 0xFFFF, 0);
        Movk (0, data_va lsr 16, 16);
        Movz (1, 0x5A5A, 0);
        Str (1, 0, 0);             (* straddles into a read-only page *)
        Brk 1 ]
  in
  map_second_data_page ~ro:true env;
  (match run env with
  | Core.Trap_el1 (Core.Ec_dabort f) ->
      check_int "fault on second page" (data_va + 0x1000) f.Mmu.va
  | s -> Alcotest.failf "expected dabort, got %a" Core.pp_stop s);
  (* Both pages are translated before any byte is written, so the
     faulting store must not have partially updated the first page. *)
  match Core.read_mem env.core ~width:1 (data_va + 0xFFC) with
  | Ok b -> check_int "no partial write" 0 b
  | Error _ -> Alcotest.fail "readback"

let test_run_limit () =
  let open Insn in
  let env = build_env [ B 0 ] in
  (* infinite loop *)
  match Core.run ~max_insns:1000 env.core with
  | Core.Limit -> ()
  | s -> Alcotest.failf "expected limit, got %a" Core.pp_stop s

(* ------------------------------------------------------------------ *)
(* Superblock cache invalidation *)

(* IC IALLU mid-loop: each iteration patches the MOVZ at the patch
   site with the loop counter, flushes the decode caches, executes it
   and accumulates. The superblock covering the loop body is chained
   to itself, so a stale-block bug would re-run the old immediate.
   x6 must equal 1+2+...+iters — and every engine must agree with the
   slow one. *)
let smc_ic_iallu_program ~iters ~with_ic =
  let open Insn in
  let base = Encoding.encode (Movz (5, 0, 0)) in
  [ Movz (0, iters, 0);                   (*  0 *)
    Movz (1, code_va land 0xFFFF, 0);     (*  1 *)
    Movk (1, code_va lsr 16, 16);         (*  2 *)
    Movz (9, base land 0xFFFF, 0);        (*  3 *)
    Movk (9, base lsr 16, 16);            (*  4 *)
    Lsl_imm (8, 0, 5);                    (*  5: loop head *)
    Orr_reg (10, 9, 8);                   (*  6 *)
    Str32 (10, 1, 4 * 9);                 (*  7: patch slot 9 *)
    (if with_ic then Ic_iallu else Nop);  (*  8 *)
    Movz (5, 0, 0);                       (*  9: patch site *)
    Add (6, 6, Reg 5);                    (* 10 *)
    Sub (0, 0, Imm 1);                    (* 11 *)
    Cbnz (0, 4 * (5 - 12));               (* 12 *)
    Brk 0 ]                               (* 13 *)

let test_smc_ic_iallu_mid_loop () =
  let iters = 40 in
  let want = iters * (iters + 1) / 2 in
  List.iter
    (fun with_ic ->
      let o =
        Differential.across_engines (fun engine ->
            let env =
              build_env ~engine ~code_rw:true
                (smc_ic_iallu_program ~iters ~with_ic)
            in
            expect_brk (run env);
            Differential.observe env.core)
      in
      check_int "patched sum" want o.Differential.regs.(6))
    [ true; false ]

let test_flush_decode_drops_blocks () =
  let env =
    Lz_workloads.Microbench.build ~engine:Core.Blocks ~iters:50 "aes"
  in
  Lz_workloads.Microbench.run_to_brk env;
  let fp = env.Lz_workloads.Microbench.core.Core.fp in
  let st = Fastpath.stats fp in
  check_bool "blocks entered" true (st.Fastpath.blk_entries > 0);
  check_bool "blocks cached" true (st.Fastpath.blk_hits > 0);
  check_bool "chains followed" true (st.Fastpath.chain_follows > 0);
  check_bool "multi-insn blocks" true (Fastpath.avg_block_len st > 1.0);
  let epoch0 = fp.Fastpath.epoch in
  Fastpath.flush_decode fp;
  check_bool "epoch bumped" true (fp.Fastpath.epoch > epoch0);
  (* Every cached block predates the new epoch, so the dispatcher and
     the chain memos refuse them all; the per-page decode cache and
     bias profiles survive (they revalidate against frame write
     generations instead). *)
  for i = 0 to fp.Fastpath.n_dpages - 1 do
    Array.iter
      (function
        | Some b ->
            check_bool "stale block refused" true
              (b.Fastpath.b_epoch < fp.Fastpath.epoch)
        | None -> ())
      fp.Fastpath.dpages.(i).Fastpath.blk
  done;
  check_bool "decode cache survives the flush" true
    (fp.Fastpath.n_dpages > 0);
  let epoch1 = fp.Fastpath.epoch in
  Fastpath.reset fp;
  check_bool "reset also bumps the epoch" true (fp.Fastpath.epoch > epoch1)

(* Chain links must die with their target: a frame write-generation
   bump (self- or cross-modifying code) and an epoch bump (IC IALLU)
   must each make [chain_lookup] refuse a memoized successor. *)
let test_chain_links_severed () =
  let phys = Phys.create () in
  let fp = Fastpath.create Fastpath.Blocks in
  let enc = Encoding.encode in
  let pa1 = Phys.alloc_frame phys and pa2 = Phys.alloc_frame phys in
  Phys.write32 phys pa1 (enc (Insn.Movz (1, 1, 0)));
  Phys.write32 phys (pa1 + 4) (enc (Insn.B 8));
  Phys.write32 phys pa2 (enc (Insn.Movz (2, 2, 0)));
  Phys.write32 phys (pa2 + 4) (enc (Insn.Brk 0));
  let a = Fastpath.block_at fp phys pa1 in
  let b = Fastpath.block_at fp phys pa2 in
  check_bool "branch-terminated block is chainable" true a.Fastpath.b_chainable;
  Fastpath.chain_store a ~va:0x2000 b;
  (match Fastpath.chain_lookup fp phys a ~va:0x2000 ~pa:pa2 with
  | Some b' -> check_bool "chain link live" true (b' == b)
  | None -> Alcotest.fail "fresh chain link not returned");
  (* A store anywhere in the target's page severs the link. *)
  Phys.write32 phys (pa2 + 64) 0;
  check_bool "severed by write-generation bump" true
    (Fastpath.chain_lookup fp phys a ~va:0x2000 ~pa:pa2 = None);
  (* Rebuild and re-link, then IC IALLU: the epoch severs it. *)
  let b2 = Fastpath.block_at fp phys pa2 in
  Fastpath.chain_store a ~va:0x2000 b2;
  Fastpath.flush_decode fp;
  check_bool "severed by epoch bump" true
    (Fastpath.chain_lookup fp phys a ~va:0x2000 ~pa:pa2 = None);
  (* A mismatching translated target also refuses the link. *)
  let a3 = Fastpath.block_at fp phys pa1 in
  let b3 = Fastpath.block_at fp phys pa2 in
  Fastpath.chain_store a3 ~va:0x2000 b3;
  check_bool "severed by pa mismatch" true
    (Fastpath.chain_lookup fp phys a3 ~va:0x2000 ~pa:(pa2 + 4) = None)

(* LZ_ENGINE is parsed with [engine_of_string]: exactly the three
   names, nothing that merely looks like a flag. *)
let test_engine_names () =
  List.iter
    (fun e ->
      check_bool (Core.engine_name e) true
        (Core.engine_of_string (Core.engine_name e) = Some e))
    Core.engines;
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) true
        (Core.engine_of_string s = None))
    [ "1"; "true"; "" ]

let () =
  Alcotest.run "lz_cpu"
    [ ( "execute",
        [ Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "branch loop" `Quick test_branch_loop;
          Alcotest.test_case "bl/ret" `Quick test_bl_ret;
          Alcotest.test_case "b.cond" `Quick test_bcond ] );
      ( "exceptions",
        [ Alcotest.test_case "svc TGE->EL2" `Quick test_svc_routing_tge;
          Alcotest.test_case "svc guest->EL1" `Quick test_svc_routing_guest;
          Alcotest.test_case "hvc" `Quick test_hvc;
          Alcotest.test_case "fetch fault" `Quick test_fetch_fault;
          Alcotest.test_case "eret to EL0" `Quick test_eret_to_el0;
          Alcotest.test_case "undef" `Quick test_undef;
          Alcotest.test_case "run limit" `Quick test_run_limit ] );
      ( "protection",
        [ Alcotest.test_case "pan blocks" `Quick test_pan_blocks;
          Alcotest.test_case "ldtr semantics" `Quick test_ldtr_semantics;
          Alcotest.test_case "ro write faults" `Quick test_write_ro_faults;
          Alcotest.test_case "tvm traps" `Quick test_tvm_traps_ttbr_write;
          Alcotest.test_case "ttbr switch" `Quick
            test_ttbr_switch_changes_translation;
          Alcotest.test_case "watchpoint" `Quick test_watchpoint;
          Alcotest.test_case "el0 privilege" `Quick test_el0_cannot_msr ] );
      ( "straddle",
        [ Alcotest.test_case "load/store across pages" `Quick
            test_straddle_load_store;
          Alcotest.test_case "fault on second page" `Quick
            test_straddle_fault_second_page ] );
      ( "accounting",
        [ Alcotest.test_case "cycles" `Quick test_cycles_accumulate;
          Alcotest.test_case "cntvct" `Quick test_cntvct_reads_cycles;
          Alcotest.test_case "tlbi" `Quick test_tlbi_flushes ] );
      ( "superblocks",
        [ Alcotest.test_case "ic iallu mid-loop smc" `Quick
            test_smc_ic_iallu_mid_loop;
          Alcotest.test_case "flush drops blocks" `Quick
            test_flush_decode_drops_blocks;
          Alcotest.test_case "chain links severed" `Quick
            test_chain_links_severed ] );
      ( "engines",
        [ Alcotest.test_case "names round-trip" `Quick test_engine_names ] )
    ]
