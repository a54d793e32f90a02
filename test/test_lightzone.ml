(* End-to-end tests of the LightZone core: sanitizer classification
   (Table 3), kernel-mode process execution, PAN- and TTBR-based
   isolation, the secure call gate, and the fake-physical layer. *)

open Lz_arm
open Lz_kernel
open Lightzone

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let code_va = 0x400000
let data_va = 0x600000
let data2_va = 0x700000
let stack_va = 0x7F0000000000

(* Fresh host kernel + process with a stack and two data VMAs. *)
let fresh ?(cost = Lz_cpu.Cost_model.cortex_a55) () =
  let machine = Machine.create ~cost () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x4000 Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:data2_va ~len:0x4000 Vma.rw);
  (machine, kernel, proc)

let enter ?backend ?(scalable = true) kernel proc =
  Api.lz_enter ?backend ~allow_scalable:scalable
    ~insn_san:(if scalable then 1 else 2)
    ~entry:code_va ~sp:stack_va kernel proc

let expect_exit code outcome =
  match outcome with
  | Kmod.Exited c -> check_int "exit code" code c
  | o -> Alcotest.failf "expected exit, got %a" Kmod.pp_outcome o

(* tiny substring helper to avoid a dependency *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_terminated substr outcome =
  match outcome with
  | Kmod.Terminated reason ->
      if not (contains reason substr) then
        Alcotest.failf "expected %S in %S" substr reason
  | o -> Alcotest.failf "expected termination, got %a" Kmod.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Sanitizer *)

let cls mode insn = Sanitizer.classify mode (Encoding.encode insn)

let test_sanitizer_eret () =
  check_bool "eret forbidden ttbr" true
    (cls Sanitizer.Ttbr_mode Insn.Eret <> Sanitizer.Allowed);
  check_bool "eret forbidden pan" true
    (cls Sanitizer.Pan_mode Insn.Eret <> Sanitizer.Allowed)

let test_sanitizer_unpriv () =
  check_bool "ldtr ok in ttbr mode" true
    (cls Sanitizer.Ttbr_mode (Insn.Ldtr (0, 1, 0)) = Sanitizer.Allowed);
  check_bool "sttr forbidden in pan mode" true
    (cls Sanitizer.Pan_mode (Insn.Sttr (0, 1, 0)) <> Sanitizer.Allowed);
  check_bool "ldtrb forbidden in pan mode" true
    (cls Sanitizer.Pan_mode (Insn.Ldtrb (0, 1, 0)) <> Sanitizer.Allowed)

let test_sanitizer_pan_toggle () =
  check_bool "pan toggle ok both" true
    (cls Sanitizer.Ttbr_mode (Insn.Msr_pstate (Insn.PAN, 0))
     = Sanitizer.Allowed
    && cls Sanitizer.Pan_mode (Insn.Msr_pstate (Insn.PAN, 1))
       = Sanitizer.Allowed);
  check_bool "daifset forbidden" true
    (cls Sanitizer.Ttbr_mode (Insn.Msr_pstate (Insn.DAIFSet, 0xF))
    <> Sanitizer.Allowed);
  check_bool "spsel forbidden" true
    (cls Sanitizer.Pan_mode (Insn.Msr_pstate (Insn.SPSel, 1))
    <> Sanitizer.Allowed)

let test_sanitizer_sysregs () =
  let open Sysreg in
  check_bool "ttbr0 write gate-only in ttbr mode" true
    (cls Sanitizer.Ttbr_mode (Insn.Msr (TTBR0_EL1, 0)) = Sanitizer.Gate_only);
  check_bool "ttbr0 forbidden in pan mode" true
    (match cls Sanitizer.Pan_mode (Insn.Msr (TTBR0_EL1, 0)) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "ttbr1 forbidden" true
    (match cls Sanitizer.Ttbr_mode (Insn.Msr (TTBR1_EL1, 0)) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "sctlr forbidden" true
    (match cls Sanitizer.Ttbr_mode (Insn.Msr (SCTLR_EL1, 0)) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "vbar forbidden" true
    (match cls Sanitizer.Ttbr_mode (Insn.Msr (VBAR_EL1, 0)) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "elr forbidden" true
    (match cls Sanitizer.Ttbr_mode (Insn.Msr (ELR_EL1, 0)) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "nzcv allowed" true
    (cls Sanitizer.Ttbr_mode (Insn.Mrs (0, NZCV)) = Sanitizer.Allowed);
  check_bool "fpcr allowed" true
    (cls Sanitizer.Pan_mode (Insn.Msr (FPCR, 0)) = Sanitizer.Allowed);
  check_bool "tpidr_el0 allowed" true
    (cls Sanitizer.Pan_mode (Insn.Msr (TPIDR_EL0, 0)) = Sanitizer.Allowed)

let test_sanitizer_sys_ops () =
  check_bool "dc civac forbidden" true
    (match cls Sanitizer.Ttbr_mode (Insn.Dc_civac 0) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "at s1e1r forbidden" true
    (match cls Sanitizer.Pan_mode (Insn.At_s1e1r 0) with
    | Sanitizer.Forbidden _ -> true
    | _ -> false);
  check_bool "tlbi passes sanitizer (HCR-monitored)" true
    (cls Sanitizer.Ttbr_mode Insn.Tlbi_vmalle1 = Sanitizer.Allowed);
  check_bool "nop/isb/svc allowed" true
    (cls Sanitizer.Pan_mode Insn.Nop = Sanitizer.Allowed
    && cls Sanitizer.Pan_mode Insn.Isb = Sanitizer.Allowed
    && cls Sanitizer.Pan_mode (Insn.Svc 0) = Sanitizer.Allowed)

(* Table 3 boundary audit: canonical encodings sitting one field
   value away from an accept/reject edge of the sanitizer, assembled
   from raw (op0, op1, CRn, CRm, op2) fields so the test pins the
   mask/value pairs themselves, not the [Insn] constructors. Found the
   original CRn=4 off-by-one (DAIF/DIT/SSBS/TCO and the unallocated
   CRm=2/4 slots classified Allowed) via the fuzz generator's
   bit-flip mutator. *)
let test_sanitizer_boundary () =
  let w = Lz_fuzz.Fuzz_case.sys_word in
  let rows =
    [ (* CRn=4 accept islands and their immediate neighbours. *)
      ("nzcv mrs", `Both, w ~l:1 ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:0 (), `A);
      ("nzcv msr", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:0 (), `A);
      ("daif (nzcv op2+1)", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:1 (), `F);
      ("crm=2 op2=2 unalloc", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:2 (), `F);
      ("dit", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:5 (), `F);
      ("ssbs", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:6 (), `F);
      ("tco", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:2 ~op2:7 (), `F);
      ("crm=3 unalloc", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:3 ~op2:0 (), `F);
      ("fpcr", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:4 ~op2:0 (), `A);
      ("fpsr", `Both, w ~l:1 ~op0:3 ~op1:3 ~crn:4 ~crm:4 ~op2:1 (), `A);
      ("crm=4 op2=2 (fpsr op2+1)", `Both,
       w ~op0:3 ~op1:3 ~crn:4 ~crm:4 ~op2:2 (), `F);
      ("crm=5 (fpcr crm+1)", `Both, w ~op0:3 ~op1:3 ~crn:4 ~crm:5 ~op2:0 (), `F);
      ("nzcv fields, op1=2", `Both, w ~op0:3 ~op1:2 ~crn:4 ~crm:2 ~op2:0 (), `F);
      ("spsr_el1", `Both, w ~op0:3 ~op1:0 ~crn:4 ~crm:0 ~op2:0 (), `F);
      ("elr_el1", `Both, w ~op0:3 ~op1:0 ~crn:4 ~crm:0 ~op2:1 (), `F);
      ("sp_el0", `Both, w ~op0:3 ~op1:0 ~crn:4 ~crm:1 ~op2:0 (), `F);
      (* TTBR0 is the gate's own instruction; its op2 neighbour is
         TTBR1. *)
      ("ttbr0 ttbr-mode", `Ttbr, w ~op0:3 ~op1:0 ~crn:2 ~crm:0 ~op2:0 (), `G);
      ("ttbr0 pan-mode", `Pan, w ~op0:3 ~op1:0 ~crn:2 ~crm:0 ~op2:0 (), `F);
      ("ttbr1 (op2+1)", `Both, w ~op0:3 ~op1:0 ~crn:2 ~crm:0 ~op2:1 (), `F);
      ("sctlr", `Both, w ~op0:3 ~op1:0 ~crn:1 ~crm:0 ~op2:0 (), `F);
      (* op1=3 EL0 space outside CRn=4 stays open. *)
      ("tpidr_el0", `Both, w ~op0:3 ~op1:3 ~crn:13 ~crm:0 ~op2:2 (), `A);
      ("cntvct_el0", `Both, w ~l:1 ~op0:3 ~op1:3 ~crn:14 ~crm:0 ~op2:2 (), `A);
      (* SYS space: CRn=7 maintenance rejected, CRn=8 TLBI passes to
         the HCR trap bits. *)
      ("dc civac", `Both, w ~op0:1 ~op1:3 ~crn:7 ~crm:14 ~op2:1 (), `F);
      ("ic iallu", `Both, w ~op0:1 ~op1:0 ~crn:7 ~crm:5 ~op2:0 (), `F);
      ("at s1e1r", `Both, w ~op0:1 ~op1:0 ~crn:7 ~crm:8 ~op2:0 (), `F);
      ("tlbi vmalle1 (crn 7+1)", `Both,
       w ~op0:1 ~op1:0 ~crn:8 ~crm:7 ~op2:0 (), `A);
      (* MSR (immediate): PAN's op2 island only. *)
      ("msr pan imm", `Both, w ~op0:0 ~op1:0 ~crn:4 ~crm:1 ~op2:4 ~rt:31 (), `A);
      ("msr uao imm (op2-1)", `Both,
       w ~op0:0 ~op1:0 ~crn:4 ~crm:1 ~op2:3 ~rt:31 (), `F);
      ("msr spsel imm", `Both, w ~op0:0 ~op1:0 ~crn:4 ~crm:1 ~op2:5 ~rt:31 (), `F);
      ("msr daifset imm", `Both,
       w ~op0:0 ~op1:3 ~crn:4 ~crm:0xF ~op2:6 ~rt:31 (), `F);
      ("msr daifclr imm", `Both,
       w ~op0:0 ~op1:3 ~crn:4 ~crm:0xF ~op2:7 ~rt:31 (), `F);
      ("hint space (crn 4-2)", `Both,
       w ~op0:0 ~op1:3 ~crn:2 ~crm:0 ~op2:0 ~rt:31 (), `A);
      (* The exception-return class, including the pointer-signed
         variants. *)
      ("eret", `Both, 0xD69F03E0, `F);
      ("eretaa", `Both, 0xD69F0BFF, `F);
      ("eretab", `Both, 0xD69F0FFF, `F);
      (* Unprivileged load/store flips verdict with the isolation
         mode; dropping the unpriv bit (LDUR) is plain EL0 code. *)
      ("ldtr", `Ttbr, 0xF8400820, `A);
      ("ldtr", `Pan, 0xF8400820, `F);
      ("ldur (ldtr - unpriv bit)", `Both, 0xF8400020, `A) ]
  in
  let verdict mode word =
    match Sanitizer.classify mode word with
    | Sanitizer.Allowed -> `A
    | Sanitizer.Gate_only -> `G
    | Sanitizer.Forbidden _ -> `F
  in
  let name v = match v with `A -> "allowed" | `G -> "gate-only" | `F -> "forbidden" in
  List.iter
    (fun (label, modes, word, expect) ->
      let check mode mname =
        let got = verdict mode word in
        if got <> expect then
          Alcotest.failf "%s (0x%08X, %s): expected %s, got %s" label word
            mname (name expect) (name got)
      in
      (match modes with
      | `Both ->
          check Sanitizer.Ttbr_mode "ttbr";
          check Sanitizer.Pan_mode "pan"
      | `Ttbr -> check Sanitizer.Ttbr_mode "ttbr"
      | `Pan -> check Sanitizer.Pan_mode "pan"))
    rows

let test_scan_page () =
  let phys = Lz_mem.Phys.create () in
  let pa = Lz_mem.Phys.alloc_frame phys in
  (* NOPs pass; a hidden ERET fails. Empty (zero) words decode to Udf
     which is Allowed by classify (it traps at run time anyway). *)
  for i = 0 to 1023 do
    Lz_mem.Phys.write32 phys (pa + (4 * i)) (Encoding.encode Insn.Nop)
  done;
  check_bool "clean page passes" true
    (Result.is_ok (Sanitizer.scan_page Sanitizer.Ttbr_mode phys ~pa));
  Lz_mem.Phys.write32 phys (pa + 512) (Encoding.encode Insn.Eret);
  match Sanitizer.scan_page Sanitizer.Ttbr_mode phys ~pa with
  | Error (off, _, _) -> check_int "offset found" 512 off
  | Ok () -> Alcotest.fail "eret must be caught"

(* ------------------------------------------------------------------ *)
(* Kernel-mode process basics *)

let test_lz_basic_run () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Movz (0, 42, 0); Insn.Brk 42 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_exit 42 (Api.run t)

let test_lz_memory_and_fakephys () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b
    [ Insn.Movz (1, 777, 0); Insn.Str (1, 0, 8); Insn.Ldr (2, 0, 8);
      Insn.Brk 0 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "store/load through LZ tables" 777 (Lz_cpu.Core.reg t.Kmod.core 2);
  (* The data page's stage-1 PTE holds a fake address, not the real
     frame. *)
  let real = Option.get (Proc.mapped_pa proc ~va:data_va) in
  let fake = Option.get (Fake_phys.fake_of_real t.Kmod.fake real) in
  check_bool "fake differs from real" true (fake <> Lz_arm.Bits.align_down real 4096);
  check_bool "fake addresses are small and sequential" true (fake < 0x100000)

let test_lz_syscall () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  (* getpid via hvc #0 *)
  Builder.emit b
    [ Insn.Movz (8, Kernel.Nr.getpid, 0); Insn.Hvc 0; Insn.Mov_reg (9, 0);
      Insn.Brk 0 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "getpid result" proc.Proc.pid (Lz_cpu.Core.reg t.Kmod.core 9)

let test_lz_write_syscall () =
  let _, kernel, proc = fresh () in
  Kernel.write_user kernel proc ~va:data_va (Bytes.of_string "hello lz\n");
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Movz (8, Kernel.Nr.write, 0); Insn.Movz (0, 1, 0) ];
  Builder.mov_imm64 b 1 data_va;
  Builder.emit b [ Insn.Movz (2, 9, 0); Insn.Hvc 0; Insn.Brk 0 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  Alcotest.(check string) "stdout" "hello lz\n" (Api.output t)

let test_lz_segv () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 0x123456000;
  Builder.emit b [ Insn.Ldr (1, 0, 0) ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_terminated "segmentation fault" (Api.run t)

(* ------------------------------------------------------------------ *)
(* PAN-based isolation *)

let pan_setup () =
  let _, kernel, proc = fresh () in
  let t = enter ~scalable:false kernel proc in
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:Perm.pgt_all
    ~perm:(Perm.read lor Perm.write lor Perm.user);
  (kernel, proc, t)

let test_pan_allows_when_clear () =
  let _, _, t = pan_setup () in
  let b = Builder.create ~base:code_va in
  Builder.set_pan b false;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b
    [ Insn.Movz (1, 5, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0) ];
  Builder.set_pan b true;
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "protected data readable with PAN clear" 5
    (Lz_cpu.Core.reg t.Kmod.core 2)

let test_pan_blocks_when_set () =
  let _, _, t = pan_setup () in
  let b = Builder.create ~base:code_va in
  (* First touch with PAN clear to fault the page in, then set PAN and
     try again: the second access must be a PAN violation. *)
  Builder.set_pan b false;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (1, 0, 0) ];
  Builder.set_pan b true;
  Builder.emit b [ Insn.Ldr (2, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_terminated "PAN violation" (Api.run t)

(* ------------------------------------------------------------------ *)
(* TTBR-based isolation with the secure call gate *)

(* Two mutually distrusting parts: data_va in pgt1 (gate 0), data2_va
   in pgt2 (gate 1). *)
let ttbr_setup () =
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let pgt1 = Api.lz_alloc t in
  let pgt2 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:pgt1 ~gate:0;
  Api.lz_map_gate_pgt t ~pgt:pgt2 ~gate:1;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:pgt1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt:pgt2
    ~perm:(Perm.read lor Perm.write);
  (kernel, proc, t, pgt1, pgt2)

let test_gate_switch_allows_access () =
  let _, _, t, _, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b
    [ Insn.Movz (1, 100, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0) ];
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 data2_va;
  Builder.emit b
    [ Insn.Movz (1, 200, 0); Insn.Str (1, 0, 0); Insn.Ldr (3, 0, 0) ];
  Builder.emit b [ Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "domain 1 data" 100 (Lz_cpu.Core.reg t.Kmod.core 2);
  check_int "domain 2 data" 200 (Lz_cpu.Core.reg t.Kmod.core 3)

let test_cross_domain_access_denied () =
  let _, _, t, _, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  (* In pgt1; data2_va belongs to pgt2 only. *)
  Builder.mov_imm64 b 0 data2_va;
  Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_terminated "unauthorized access" (Api.run t)

let test_default_pgt_denied_protected () =
  let _, _, t, _, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  (* No gate switch: still in pgt 0. *)
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_terminated "unauthorized access" (Api.run t)

let test_unprotected_shared_across_domains () =
  let _, kernel, proc = fresh () in
  ignore kernel;
  ignore proc;
  let _, _, t, _, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  (* data2_va + 0x2000 page is unprotected (lz_prot covered one page):
     accessible from any domain. *)
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 (data2_va + 0x2000);
  Builder.emit b
    [ Insn.Movz (1, 9, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
      Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "unprotected page usable" 9 (Lz_cpu.Core.reg t.Kmod.core 2)

(* ------------------------------------------------------------------ *)
(* Attacks *)

let test_direct_ttbr_write_sanitized () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Msr (Sysreg.TTBR0_EL1, 0); Insn.Brk 0 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_terminated "sensitive instruction" (Api.run t)

let test_eret_sanitized () =
  let _, kernel, proc = fresh () in
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Eret; Insn.Brk 0 ];
  let t = enter kernel proc in
  Api.load_and_register t b ~va:code_va;
  expect_terminated "sensitive instruction" (Api.run t)

let test_gate_midentry_hijack_detected () =
  let _, _, t, pgt1, _ = ttbr_setup () in
  (* The attacker reads the legal TTBR for pgt1 from TTBRTab (readable)
     and jumps straight to the gate's msr instruction with the value in
     x12 and a forged return address — the check phase must catch the
     forged entry. *)
  let msr_index =
    (* position of the Msr instruction inside the gate body *)
    let rec find i = function
      | Insn.Msr (Sysreg.TTBR0_EL1, _) :: _ -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> assert false
    in
    find 0 (Gate.gate_code ~gate_id:0)
  in
  let b = Builder.create ~base:code_va in
  (* x12 := TTBRTab[pgt1] *)
  Builder.mov_imm64 b 11 (Gate.ttbrtab_base + (8 * pgt1));
  Builder.emit b [ Insn.Ldr (12, 11, 0) ];
  (* x30 := attacker code (here), then jump into the gate middle *)
  let attacker_target = Builder.here b in
  ignore attacker_target;
  Builder.mov_imm64 b 30 code_va (* forged entry: program start *);
  Builder.mov_imm64 b 17 (Gate.gate_va 0 + (4 * msr_index));
  Builder.emit b [ Insn.Br 17; Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_terminated "call gate violation" (Api.run t)

let test_gatetab_write_denied () =
  let _, _, t, _, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 Gate.gatetab_base;
  Builder.emit b [ Insn.Movz (1, 0xBAD, 0); Insn.Str (1, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_terminated "module region" (Api.run t)

let test_ttbrtab_readable () =
  (* TTBRTab must be readable (the gate reads it); reading it back
     from app code is fine and leaks only fake addresses. *)
  let _, _, t, pgt1, _ = ttbr_setup () in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 (Gate.ttbrtab_base + (8 * pgt1));
  Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "ttbr value visible" (Kmod.pgt_ttbr t pgt1)
    (Lz_cpu.Core.reg t.Kmod.core 1)

let test_pan_mode_ttbr_trap () =
  (* In PAN-only mode TVM traps any stage-1 register write that
     somehow slips through (defense in depth below the sanitizer). *)
  let _, kernel, proc = fresh () in
  let t = enter ~scalable:false kernel proc in
  (* Force a TTBR write into an already-sanitized page by patching
     the physical frame after the scan (TOCTTOU attempt against a
     read-only code page is not possible from the process; we patch
     from the "devil's position" to show the trap fires). *)
  let b = Builder.create ~base:code_va in
  Builder.emit b [ Insn.Nop; Insn.Nop; Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  (* Run once to get the page sanitized and mapped. *)
  expect_exit 0 (Api.run t);
  (* Patch the NOP with a TTBR0 write behind the sanitizer's back. *)
  let real = Option.get (Proc.mapped_pa proc ~va:code_va) in
  Lz_mem.Phys.write32 (t.Kmod.machine).Machine.phys real
    (Encoding.encode (Insn.Msr (Sysreg.TTBR0_EL1, 0)));
  (* The first run parked the core at EL2 (trap context); drop back to
     the process's EL1 state before re-running. *)
  Lz_cpu.Core.eret_from_el2 t.Kmod.core;
  t.Kmod.core.Lz_cpu.Core.pc <- code_va;
  t.Kmod.proc.Proc.exit_code <- None;
  expect_terminated "trapped sensitive operation" (Api.run t)

(* ------------------------------------------------------------------ *)
(* Guest backend *)

let test_guest_backend_runs () =
  let machine = Machine.create () in
  let hyp = Lz_hyp.Hypervisor.create machine in
  let vm = Lz_hyp.Hypervisor.create_vm hyp in
  let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
  let proc = Kernel.create_process gk in
  ignore (Kernel.map_anon gk proc ~at:(stack_va - 0x10000) ~len:0x10000 Vma.rw);
  ignore (Kernel.map_anon gk proc ~at:data_va ~len:0x4000 Vma.rw);
  let lv = Lowvisor.create hyp vm in
  let b = Builder.create ~base:code_va in
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b
    [ Insn.Movz (1, 31, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
      Insn.Brk 7 ];
  let t = enter ~backend:(Kmod.Guest lv) gk proc in
  Api.load_and_register t b ~va:code_va;
  expect_exit 7 (Api.run t);
  check_int "guest data" 31 (Lz_cpu.Core.reg t.Kmod.core 2);
  check_bool "lowvisor forwarded traps" true (lv.Lowvisor.forwards > 0)

let test_guest_traps_cost_more () =
  let run_one backend_of =
    let machine = Machine.create ~cost:Lz_cpu.Cost_model.carmel () in
    let kernel, proc, backend =
      match backend_of machine with
      | `Host ->
          let k = Kernel.create machine Kernel.Host_vhe in
          let p = Kernel.create_process k in
          (k, p, Kmod.Host)
      | `Guest ->
          let hyp = Lz_hyp.Hypervisor.create machine in
          let vm = Lz_hyp.Hypervisor.create_vm hyp in
          let gk = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
          let p = Kernel.create_process gk in
          (gk, p, Kmod.Guest (Lowvisor.create hyp vm))
    in
    ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000)
              ~len:0x10000 Vma.rw);
    let b = Builder.create ~base:code_va in
    Builder.emit b
      [ Insn.Movz (8, Kernel.Nr.getpid, 0); Insn.Hvc 0; Insn.Brk 0 ];
    let t =
      Api.lz_enter ~backend ~allow_scalable:true ~insn_san:1 ~entry:code_va
        ~sp:stack_va kernel proc
    in
    Api.load_and_register t b ~va:code_va;
    expect_exit 0 (Api.run t);
    t.Kmod.core.Lz_cpu.Core.cycles
  in
  let host = run_one (fun _ -> `Host) in
  let guest = run_one (fun _ -> `Guest) in
  check_bool "guest trap path costs more than host" true (guest > 2 * host)

(* ------------------------------------------------------------------ *)
(* Accounting *)

(* Exact frame counts through a table's life: the TTBR1 region and
   pgt 0 at entry, a new table's root, the three tables below the root
   that the first domain page needs, none for a second page in the
   same 2 MiB, three more for the stack page in another level-0 slot,
   and all of them back on lz_free. *)
let test_table_memory_accounting () =
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let frames () = Kmod.table_memory_frames t in
  check_int "at entry" 6 (frames ());
  let pgt = Api.lz_alloc t in
  check_int "alloc adds the root" 7 (frames ());
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt ~perm:(Perm.read lor Perm.write);
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt
    ~perm:(Perm.read lor Perm.write);
  Kmod.set_current_pgt t pgt;
  Kmod.prefault t ~va:data_va ~access:Lz_mem.Mmu.Write;
  check_int "first page walks a new path" 10 (frames ());
  Kmod.prefault t ~va:data2_va ~access:Lz_mem.Mmu.Read;
  check_int "same 2 MiB shares the leaf table" 10 (frames ());
  Kmod.prefault t ~va:(stack_va - 4096) ~access:Lz_mem.Mmu.Write;
  check_int "another level-0 slot" 13 (frames ());
  Kmod.set_current_pgt t 0;
  Api.lz_free t pgt;
  check_int "lz_free gives every frame back" 6 (frames ())

(* ------------------------------------------------------------------ *)
(* ASID recycling (tenant-scale churn) *)

(* Regression: before generation-based recycling, the module handed
   out ASIDs from a monotonic counter. A zone-per-connection server
   that allocates and frees one table per connection marched the
   counter through the 14-bit space: churn number 16384 composed an
   out-of-range ASID and [Mmu.ttbr_value] raised [Invalid_argument]
   ("Mmu.ttbr_value: asid") — and had the value been masked instead,
   it would have silently aliased a live zone's TLB entries. The churn
   below crosses that boundary; with the generation allocator it
   recycles through rollover instead. *)
let test_asid_wrap_regression () =
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  for _ = 1 to 17_000 do
    let id = Api.lz_alloc t in
    Api.lz_free t id
  done;
  check_bool "crossed the 14-bit ASID space" true
    (Asid_alloc.rollovers t.Kmod.asids >= 1);
  check_bool "asids were recycled" true
    (Asid_alloc.recycled t.Kmod.asids > 0);
  (* pgt ids recycle through the free list: 17k churned connections
     never push the id high-water past a handful of slots. *)
  check_bool "pgt id space stayed dense" true
    (Zone_tab.high_water t.Kmod.pgts <= 2)

(* Live ASIDs must survive generation rollover: park a zone with
   protected data, churn enough tables through a deliberately tiny
   ASID space to force several rollovers, then gate-switch into the
   parked zone — its ASID is still valid and its data intact. *)
let test_asid_rollover_preserves_live () =
  let _, kernel, proc = fresh () in
  let t =
    Kmod.enter ~asid_bits:4 ~allow_scalable:true
      ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x77 ~entry:code_va ~sp:stack_va
      kernel proc
  in
  let pgt1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:pgt1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:pgt1
    ~perm:(Perm.read lor Perm.write);
  (* 2^4 - 1 = 15 allocatable ASIDs, 2 pinned live: 64 churned
     connections force several rollovers. *)
  for _ = 1 to 64 do
    let id = Api.lz_alloc t in
    Api.lz_free t id
  done;
  check_bool "rollovers forced" true (Asid_alloc.rollovers t.Kmod.asids >= 2);
  let live_asid = (Zone_tab.get t.Kmod.pgts pgt1).Lz_table.asid in
  check_bool "parked zone's ASID still live" true
    (Asid_alloc.is_live t.Kmod.asids live_asid);
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data_va;
  Builder.emit b
    [ Insn.Movz (1, 321, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
      Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "domain data readable after rollovers" 321
    (Lz_cpu.Core.reg t.Kmod.core 2);
  (* Golden simulated outputs of the whole churn: rollover flushes
     and recycled ASIDs must not move a cycle or a TLB count. *)
  let core = t.Kmod.core in
  check_int "cycles" 2998 core.Lz_cpu.Core.cycles;
  check_int "insns" 43 core.Lz_cpu.Core.insns;
  check_int "tlb hits" 43 (Lz_mem.Tlb.hits core.Lz_cpu.Core.tlb);
  check_int "tlb misses" 8 (Lz_mem.Tlb.misses core.Lz_cpu.Core.tlb)

(* A freed table's gate slot is zeroed and its id reissued to the next
   tenant: a switch through the re-pointed gate must land in the new
   tenant's table, with the old tenant's protected page unreachable. *)
let test_pgt_id_recycling_isolates () =
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let pgt1 = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:pgt1 ~gate:0;
  Api.lz_prot t ~addr:data_va ~len:4096 ~pgt:pgt1
    ~perm:(Perm.read lor Perm.write);
  Api.lz_free t pgt1;
  let pgt2 = Api.lz_alloc t in
  check_int "id recycled" pgt1 pgt2;
  Api.lz_map_gate_pgt t ~pgt:pgt2 ~gate:0;
  Api.lz_prot t ~addr:data2_va ~len:4096 ~pgt:pgt2
    ~perm:(Perm.read lor Perm.write);
  (* data_va's registry entry still names the freed tenant: the
     recycled table (same id) inherits its domain membership by id —
     the paper's id-scoped registry. Access to the new tenant's page
     succeeds; the switch itself must pass through the recycled
     TTBRTab slot. *)
  let b = Builder.create ~base:code_va in
  Builder.switch_gate b ~gate:0;
  Builder.mov_imm64 b 0 data2_va;
  Builder.emit b
    [ Insn.Movz (1, 55, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0);
      Insn.Brk 0 ];
  Api.load_and_register t b ~va:code_va;
  expect_exit 0 (Api.run t);
  check_int "recycled tenant's data" 55 (Lz_cpu.Core.reg t.Kmod.core 2)

(* Lz_table.destroy frees a zone's table frames children first, in
   descriptor-index order: the order of a full 512-entry scan of each
   table, kept here as the reference. Freed frames go to the head of
   Phys's free list, so alloc_frame hands them back last-freed first,
   which is how the order is observed. *)
let rec scan_free_order phys fake ~table_real ~level freed =
  let freed = ref freed in
  if level < 3 then
    for i = 0 to 511 do
      let pte = Lz_mem.Phys.read64 phys (table_real + (8 * i)) in
      if Lz_mem.Pte.is_table ~level pte then
        match Fake_phys.real_of_fake fake (Lz_mem.Pte.out_addr pte) with
        | Some real ->
            freed :=
              scan_free_order phys fake ~table_real:real ~level:(level + 1)
                !freed
        | None -> ()
    done;
  table_real :: !freed

let prop_destroy_free_order =
  (* Few distinct upper indexes, spread over the table, so tables share
     children and siblings sit far apart. *)
  let idx = QCheck2.Gen.oneofl [ 0; 1; 170; 341; 510; 511 ] in
  QCheck2.Test.make ~name:"destroy frees in descriptor-scan order" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 24)
        (quad (oneofl [ 0; 1; 255 ]) idx idx (int_range 0 511)))
    (fun vas ->
      let phys = Lz_mem.Phys.create () in
      let fake = Fake_phys.create Fake_phys.Sequential in
      let s2_root = Lz_mem.Stage2.create_root phys in
      let t = Lz_table.create phys fake ~s2_root ~id:1 ~asid:1 in
      let attrs =
        { Lz_mem.Pte.user = true; read_only = false; uxn = true;
          pxn = true; ng = true }
      in
      List.iteri
        (fun i (a, b, c, d) ->
          let va = (a lsl 39) lor (b lsl 30) lor (c lsl 21) lor (d lsl 12) in
          Lz_table.map_page phys fake ~s2_root t ~va ~fake_pa:((i + 1) * 0x1000)
            attrs)
        vas;
      let expected =
        scan_free_order phys fake ~table_real:t.Lz_table.root_real ~level:0 []
      in
      Lz_table.destroy phys fake ~s2_root t;
      List.map (fun _ -> Lz_mem.Phys.alloc_frame phys) expected = expected)

(* Fake_phys restores by undoing the assignments added since a capture
   when it can and rebuilding otherwise; either way the tables must say
   what a plain association list says. Restores pick any captured
   state, so many land on a timeline a later restore abandoned. *)
type fake_op = Assign of int | Capture | Restore of int | Clone

let prop_fake_phys_restore =
  let op =
    QCheck2.Gen.(
      frequency
        [ (5, map (fun r -> Assign r) (int_range 0 23));
          (2, return Capture);
          (2, map (fun i -> Restore i) nat);
          (1, return Clone) ])
  in
  let print = function
    | Assign r -> Printf.sprintf "assign %d" r
    | Capture -> "capture"
    | Restore i -> Printf.sprintf "restore %d" i
    | Clone -> "clone"
  in
  QCheck2.Test.make ~name:"fake-PA restore matches a model" ~count:300
    ~print:QCheck2.Print.(list print)
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
      let t = ref (Fake_phys.create Fake_phys.Sequential) in
      (* model: (real, fake) pairs and the next fake address *)
      let m = ref ([], 0x1000) in
      let saved = ref [] in
      let agrees () =
        let pairs, _ = !m in
        List.length pairs = Fake_phys.assigned !t
        && List.for_all
             (fun r ->
               Fake_phys.fake_of_real !t (r * 4096)
               = List.assoc_opt (r * 4096) pairs)
             (List.init 24 Fun.id)
        && List.for_all
             (fun k ->
               let fake = 0x1000 + (k * 4096) in
               Fake_phys.real_of_fake !t fake
               = Option.map fst (List.find_opt (fun (_, f) -> f = fake) pairs))
             (List.init 64 Fun.id)
      in
      List.for_all
        (fun o ->
          (match o with
          | Assign r ->
              let real = (r * 4096) + (r land 7) in
              let pairs, next = !m in
              let want =
                match List.assoc_opt (r * 4096) pairs with
                | Some f -> f
                | None ->
                    m := ((r * 4096, next) :: pairs, next + 4096);
                    next
              in
              if Fake_phys.assign !t ~real <> want then
                QCheck2.Test.fail_reportf "assign %d: not %#x" r want
          | Capture -> saved := (Fake_phys.capture !t, !m) :: !saved
          | Restore i -> (
              match !saved with
              | [] -> ()
              | l ->
                  let st, model = List.nth l (i mod List.length l) in
                  Fake_phys.restore !t st;
                  m := model)
          | Clone -> t := Fake_phys.clone !t);
          agrees ())
        ops)

(* The allocator's bitmaps are shared by pointer with every state
   captured from it or restored into it: an allocator writes only
   after copying them. What a state's allocator does next — its live
   set, then eleven allocations across a rollover — must not change
   however the allocators around it are written after a capture, a
   restore or an [of_state]. *)
let test_asid_state_copy_on_write () =
  let a = Asid_alloc.create ~bits:4 ~flush:ignore () in
  let held = List.init 6 (fun _ -> Asid_alloc.alloc a) in
  let free_every parity =
    List.iteri
      (fun i asid -> if i mod 2 = parity then Asid_alloc.free a asid)
      held
  in
  free_every 0;
  let s = Asid_alloc.capture a in
  let future x =
    let live = List.filter (Asid_alloc.is_live x) (List.init 16 Fun.id) in
    let allocs = List.init 11 (fun _ -> Asid_alloc.alloc x) in
    (live, allocs, Asid_alloc.recycled x, Asid_alloc.rollovers x)
  in
  let of_s () = future (Asid_alloc.of_state s ~flush:ignore) in
  let expected = of_s () in
  let _, _, _, rollovers = expected in
  check_int "the future crosses a rollover" 1 rollovers;
  check_bool "a write after of_state left the state alone" true
    (of_s () = expected);
  free_every 1;
  ignore (future a);
  check_bool "writes after the capture left the state alone" true
    (of_s () = expected);
  Asid_alloc.restore a s;
  check_bool "the restored allocator replays the state" true
    (future a = expected);
  check_bool "writes after the restore left the state alone" true
    (of_s () = expected)

(* ------------------------------------------------------------------ *)
(* Tracer markers *)

let payload =
  Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf (Lz_trace.Trace.payload_name p))
    ( = )

(* Kmod's gate markers: on a fresh tracer, exactly one Gate_entry at
   each gate's entry and one Gate_check at its check phase, on the
   gates' 16 pages and nowhere in the page on either side. *)
let test_gate_markers_exact () =
  let module Trace = Lz_trace.Trace in
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let tr = Trace.create () in
  Kmod.set_tracer t (Some tr);
  let base = Gate.gate_va 0 in
  let pages = Gate.max_gates * Gate.gate_stride / 4096 in
  check_int "the gates span 16 pages" 16 pages;
  let pcs = List.init ((pages + 2) * 1024) (fun i -> base - 4096 + (4 * i)) in
  let found =
    List.filter_map
      (fun pc -> Option.map (fun p -> (pc, p)) (Trace.marker_at tr pc))
      pcs
  in
  let expected =
    List.concat_map
      (fun g ->
        [ (Gate.gate_va g, Trace.Gate_entry { gate = g });
          (Gate.gate_va g + Gate.phase2_off, Trace.Gate_check { gate = g }) ])
      (List.init Gate.max_gates Fun.id)
  in
  Alcotest.(check (list (pair int payload)))
    "the gates' entry and check PCs" expected found;
  for p = -1 to pages do
    check_bool
      (Printf.sprintf "gate page %d marked" p)
      (p >= 0 && p < pages)
      (Trace.page_marked tr (base + (p * 4096)))
  done

(* A tracer's markers are one value its clones share: what one adds —
   by hand, or through [register_gate_entry] while attached as a fuzz
   case's run does — no other sees. A clone that replaced a gate
   marker gets it back when attached. *)
let test_clone_markers_isolated () =
  let module Trace = Lz_trace.Trace in
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let src = Trace.create () in
  Kmod.set_tracer t (Some src);
  let c1 = Trace.clone_config src and c2 = Trace.clone_config src in
  let has tr pc = Trace.marker_at tr pc <> None in
  let seen pc = (has src pc, has c1 pc, has c2 pc) in
  let check_seen what expected pc =
    check_bool what true (seen pc = expected)
  in
  Trace.add_marker c1 ~pc:(code_va + 8) (Trace.Syscall { nr = 1 });
  check_seen "a clone's marker stays in the clone" (false, true, false)
    (code_va + 8);
  check_bool "and so does its page" true
    (Trace.page_marked c1 code_va && not (Trace.page_marked src code_va));
  Trace.add_marker src ~pc:(code_va + 16) (Trace.Syscall { nr = 2 });
  check_seen "the source's marker stays in the source" (true, false, false)
    (code_va + 16);
  Kmod.set_tracer t (Some c2);
  Kmod.register_gate_entry t ~gate:3 ~entry:(code_va + 24);
  check_seen "a gate exit registered under a clone" (false, false, true)
    (code_va + 24);
  Alcotest.(check (option payload))
    "the attached clone carries the gate markers"
    (Some (Trace.Gate_entry { gate = 5 }))
    (Trace.marker_at c2 (Gate.gate_va 5));
  Trace.add_marker c1 ~pc:(Gate.gate_va 7) (Trace.Syscall { nr = 3 });
  Kmod.set_tracer t (Some c1);
  Alcotest.(check (option payload))
    "attaching restores a replaced gate marker"
    (Some (Trace.Gate_entry { gate = 7 }))
    (Trace.marker_at c1 (Gate.gate_va 7));
  Alcotest.(check (option payload))
    "and leaves the clone's own" (Some (Trace.Syscall { nr = 1 }))
    (Trace.marker_at c1 (code_va + 8));
  Alcotest.(check (option payload))
    "the source keeps its gate marker"
    (Some (Trace.Gate_entry { gate = 7 }))
    (Trace.marker_at src (Gate.gate_va 7))

(* What the fuzz oracle does per engine run: clone the case's attached
   tracer and attach the clone. Neither rebuilds the gate markers. *)
let test_clone_attach_allocation () =
  let module Trace = Lz_trace.Trace in
  let _, kernel, proc = fresh () in
  let t = enter kernel proc in
  let tr = Trace.create () in
  Kmod.set_tracer t (Some tr);
  Kmod.register_gate_entry t ~gate:0 ~entry:(code_va + 12);
  let attach () = Kmod.set_tracer t (Some (Trace.clone_config tr)) in
  attach ();
  let w0 = Gc.minor_words () in
  attach ();
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "clone + attach allocated %.0f minor words" words)
    true (words <= 48.)

(* The ASID index of a fork is sized to the image's largest live ASID
   and grows as zones register past it; every restore sizes it again.
   Through random zone churn from a fork of a four-zone image, with
   captures and restores to earlier points: after each step every
   live zone's TTBR0 must resolve (a prefault in it maps the page),
   while a just-freed zone's TTBR0 and an ASID past the index's end
   must be refused. *)
type zone_step = Z_alloc | Z_free of int | Z_capture | Z_restore of int

let asid_image =
  lazy
    (let _, kernel, proc = fresh () in
     let t = enter kernel proc in
     for _ = 1 to 3 do
       ignore (Api.lz_alloc t)
     done;
     (t, Lz_snap.Snapshot.capture t))

let not_a_zone = "TTBR0 does not name a LightZone page table"

let prop_asid_index =
  let module Snapshot = Lz_snap.Snapshot in
  let step =
    QCheck2.Gen.(
      frequency
        [ (4, return Z_alloc);
          (2, map (fun i -> Z_free i) nat);
          (1, return Z_capture);
          (1, map (fun i -> Z_restore i) nat) ])
  in
  QCheck2.Test.make ~name:"fork's ASID index resolves exactly the live zones"
    ~count:40
    QCheck2.Gen.(list_size (int_range 1 40) step)
    (fun steps ->
      let z, image = Lazy.force asid_image in
      let f = Snapshot.fork z image in
      let snaps = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter (Snapshot.release f) !snaps;
          Snapshot.retire_fork f)
      @@ fun () ->
      let live () =
        Zone_tab.fold (fun id _ acc -> id :: acc) f.Kmod.pgts []
      in
      let resolves id =
        Kmod.set_current_pgt f id;
        Kmod.prefault f ~va:data_va ~access:Lz_mem.Mmu.Read;
        f.Kmod.terminated = None
        && Lz_table.mapped f.Kmod.machine.Machine.phys f.Kmod.fake
             (Zone_tab.get f.Kmod.pgts id) ~va:data_va
      in
      (* On a scratch timeline, so the termination is undone. *)
      let refused ttbr =
        let now = Snapshot.capture f in
        Sysreg.write f.Kmod.core.Lz_cpu.Core.sys Sysreg.TTBR0_EL1 ttbr;
        Kmod.prefault f ~va:data_va ~access:Lz_mem.Mmu.Read;
        let r = f.Kmod.terminated = Some not_a_zone in
        ignore (Snapshot.restore f now);
        Snapshot.release f now;
        r
      in
      let past_end () =
        let root = (Zone_tab.get f.Kmod.pgts 0).Lz_table.root_fake in
        let asid = Array.length !(f.Kmod.asid_pgt) in
        refused (Lz_mem.Mmu.ttbr_value ~root ~asid)
      in
      let pick l i = List.nth l (i mod List.length l) in
      List.for_all resolves (live ())
      && past_end ()
      && List.for_all
           (fun st ->
             let step_ok =
               match st with
               | Z_alloc -> resolves (Api.lz_alloc f)
               | Z_free i -> (
                   match List.filter (fun id -> id <> 0) (live ()) with
                   | [] -> true
                   | ids ->
                       let id = pick ids i in
                       let ttbr = Kmod.pgt_ttbr f id in
                       Api.lz_free f id;
                       refused ttbr)
               | Z_capture ->
                   snaps := Snapshot.capture f :: !snaps;
                   true
               | Z_restore i ->
                   if !snaps <> [] then
                     ignore (Snapshot.restore f (pick !snaps i));
                   true
             in
             step_ok && List.for_all resolves (live ()) && past_end ())
           steps)

let () =
  Alcotest.run "lightzone"
    [ ( "sanitizer",
        [ Alcotest.test_case "eret" `Quick test_sanitizer_eret;
          Alcotest.test_case "unpriv ls" `Quick test_sanitizer_unpriv;
          Alcotest.test_case "pan toggle" `Quick test_sanitizer_pan_toggle;
          Alcotest.test_case "sysregs" `Quick test_sanitizer_sysregs;
          Alcotest.test_case "sys ops" `Quick test_sanitizer_sys_ops;
          Alcotest.test_case "table 3 boundary" `Quick
            test_sanitizer_boundary;
          Alcotest.test_case "scan page" `Quick test_scan_page ] );
      ( "kernel-mode process",
        [ Alcotest.test_case "basic run" `Quick test_lz_basic_run;
          Alcotest.test_case "memory + fake phys" `Quick
            test_lz_memory_and_fakephys;
          Alcotest.test_case "syscall" `Quick test_lz_syscall;
          Alcotest.test_case "write syscall" `Quick test_lz_write_syscall;
          Alcotest.test_case "segv" `Quick test_lz_segv ] );
      ( "pan isolation",
        [ Alcotest.test_case "allows when clear" `Quick
            test_pan_allows_when_clear;
          Alcotest.test_case "blocks when set" `Quick
            test_pan_blocks_when_set ] );
      ( "ttbr isolation",
        [ Alcotest.test_case "gate switch" `Quick
            test_gate_switch_allows_access;
          Alcotest.test_case "cross-domain denied" `Quick
            test_cross_domain_access_denied;
          Alcotest.test_case "default pgt denied" `Quick
            test_default_pgt_denied_protected;
          Alcotest.test_case "unprotected shared" `Quick
            test_unprotected_shared_across_domains ] );
      ( "attacks",
        [ Alcotest.test_case "direct ttbr write" `Quick
            test_direct_ttbr_write_sanitized;
          Alcotest.test_case "eret injection" `Quick test_eret_sanitized;
          Alcotest.test_case "gate mid-entry hijack" `Quick
            test_gate_midentry_hijack_detected;
          Alcotest.test_case "gatetab write" `Quick test_gatetab_write_denied;
          Alcotest.test_case "ttbrtab readable" `Quick test_ttbrtab_readable;
          Alcotest.test_case "pan-mode ttbr trap" `Quick
            test_pan_mode_ttbr_trap ] );
      ( "guest",
        [ Alcotest.test_case "runs" `Quick test_guest_backend_runs;
          Alcotest.test_case "costs more" `Quick test_guest_traps_cost_more ]
      );
      ( "accounting",
        [ Alcotest.test_case "table memory" `Quick
            test_table_memory_accounting;
          QCheck_alcotest.to_alcotest prop_destroy_free_order;
          QCheck_alcotest.to_alcotest prop_fake_phys_restore ] );
      ( "asid recycling",
        [ Alcotest.test_case "14-bit wrap regression" `Quick
            test_asid_wrap_regression;
          Alcotest.test_case "rollover preserves live zones" `Quick
            test_asid_rollover_preserves_live;
          Alcotest.test_case "pgt id recycling isolates" `Quick
            test_pgt_id_recycling_isolates;
          Alcotest.test_case "snapshot bitmaps copy on write" `Quick
            test_asid_state_copy_on_write;
          QCheck_alcotest.to_alcotest prop_asid_index ] );
      ( "tracer markers",
        [ Alcotest.test_case "gate markers exact" `Quick
            test_gate_markers_exact;
          Alcotest.test_case "clones isolated" `Quick
            test_clone_markers_isolated;
          Alcotest.test_case "clone + attach allocates O(1)" `Quick
            test_clone_attach_allocation ] ) ]
