open Lz_arm
open Lz_mem
open Lz_cpu

let names = [ "aes"; "mysql"; "nginx" ]

type env = { core : Core.t; data_pas : int list }

let code_va = 0x10000
let data_va = 0x20000
let data_pages = 4

(* Each program receives its iteration count in x0 and the data base
   address in x1, loops with Sub/Cbnz and ends in BRK #0. Offsets in
   the loop bodies stay inside the [data_pages] 4 KiB pages mapped at
   [data_va]. *)

let prologue ~iters extra =
  [ Insn.Movz (0, iters land 0xFFFF, 0);
    Insn.Movk (0, (iters lsr 16) land 0xFFFF, 16);
    Insn.Movz (1, data_va land 0xFFFF, 0);
    Insn.Movk (1, data_va lsr 16, 16) ]
  @ extra

(* Backward branch from the instruction at index [src] to index [dst]. *)
let back ~src ~dst = 4 * (dst - src)

(* ALU-dense mixing with table-lookup loads, one hot page. *)
let aes_program ~iters =
  let body =
    [ Insn.Ldr (2, 1, 0);                 (* 4: loop head *)
      Insn.Ldr (3, 1, 8);
      Insn.Eor_reg (4, 2, 3);
      Insn.Add (5, 4, Insn.Reg 2);
      Insn.Lsr_imm (6, 5, 3);
      Insn.And_reg (7, 6, 3);
      Insn.Ldr32 (8, 1, 16);
      Insn.Orr_reg (9, 8, 7);
      Insn.Str (9, 1, 24);
      Insn.Str32 (7, 1, 32);
      Insn.Eor_reg (10, 9, 5);
      Insn.Lsl_imm (11, 10, 2);
      Insn.Sub (0, 0, Insn.Imm 1);
      Insn.Cbnz (0, back ~src:17 ~dst:4);
      Insn.Brk 0 ]
  in
  prologue ~iters body

(* Pointer-striding loads/stores across all four pages. *)
let mysql_program ~iters =
  let body =
    [ Insn.Movz (10, 0, 0);
      Insn.Movz (11, 0x3FF8, 0);          (* 16 KiB, 8-aligned mask *)
      Insn.Ldr_reg (2, 1, 10);            (* 6: loop head *)
      Insn.Add (10, 10, Insn.Imm 1032);
      Insn.And_reg (10, 10, 11);
      Insn.Ldr_reg (3, 1, 10);
      Insn.Add (4, 2, Insn.Reg 3);
      Insn.Str_reg (4, 1, 10);
      Insn.Add (10, 10, Insn.Imm 2056);
      Insn.And_reg (10, 10, 11);
      Insn.Ldr_reg (5, 1, 10);
      Insn.Eor_reg (6, 5, 4);
      Insn.Str_reg (6, 1, 10);
      Insn.Sub (0, 0, Insn.Imm 1);
      Insn.Cbnz (0, back ~src:18 ~dst:6);
      Insn.Brk 0 ]
  in
  prologue ~iters body

(* Buffer copy between two pages with byte accesses and a data-
   dependent branch. *)
let nginx_program ~iters =
  let body =
    [ Insn.Movz (2, 0x1000, 0);
      Insn.Movk (2, data_va lsr 16, 16);  (* x2 = dst page *)
      Insn.Movz (10, 0, 0);
      Insn.Movz (11, 0xFF8, 0);           (* one page, 8-aligned mask *)
      Insn.Ldr_reg (3, 1, 10);            (* 8: loop head *)
      Insn.Str_reg (3, 2, 10);
      Insn.Ldrb (4, 1, 5);
      Insn.Strb (4, 2, 7);
      Insn.Add (10, 10, Insn.Imm 8);
      Insn.And_reg (10, 10, 11);
      Insn.Subs (5, 3, Insn.Imm 0);
      Insn.Bcond (Insn.NE, 8);            (* skip the Add when x3 <> 0 *)
      Insn.Add (6, 6, Insn.Imm 1);
      Insn.Sub (0, 0, Insn.Imm 1);
      Insn.Cbnz (0, back ~src:18 ~dst:8);
      Insn.Brk 0 ]
  in
  prologue ~iters body

let program_of_name ~iters = function
  | "aes" -> aes_program ~iters
  | "mysql" -> mysql_program ~iters
  | "nginx" -> nginx_program ~iters
  | n -> invalid_arg ("Microbench.build: unknown program " ^ n)

let build ?engine ~iters name =
  let program = program_of_name ~iters name in
  let phys = Phys.create () in
  let tlb = Tlb.create () in
  let root = Stage1.create_root phys in
  let code_pa = Phys.alloc_frame phys in
  Stage1.map_page phys ~root ~va:code_va ~pa:code_pa
    { Pte.user = false; read_only = true; uxn = true; pxn = false; ng = true };
  let data_pas =
    List.init data_pages (fun i ->
        let pa = Phys.alloc_frame phys in
        Stage1.map_page phys ~root ~va:(data_va + (i * 4096)) ~pa
          { Pte.user = false; read_only = false; uxn = true; pxn = true;
            ng = true };
        pa)
  in
  (* Seed the data pages so the mixing programs chew on real values. *)
  List.iteri
    (fun i pa ->
      for w = 0 to 511 do
        Phys.write64 phys (pa + (8 * w)) ((w * 0x9E3779B9) lxor (i * 0xABCD))
      done)
    data_pas;
  List.iteri
    (fun i insn -> Phys.write32 phys (code_pa + (4 * i)) (Encoding.encode insn))
    program;
  let core = Core.create ?engine phys tlb Cost_model.cortex_a55 Pstate.EL1 in
  Sysreg.write core.sys Sysreg.TTBR0_EL1 (Mmu.ttbr_value ~root ~asid:1);
  core.pc <- code_va;
  { core; data_pas }

let run_to_brk env =
  match Core.run ~max_insns:max_int env.core with
  | Core.Trap_el1 (Core.Ec_brk _) | Core.Trap_el2 (Core.Ec_brk _) -> ()
  | s -> Format.kasprintf failwith "Microbench: unexpected stop: %a"
           Core.pp_stop s

let run_summary ?engine ~iters name =
  let env = build ?engine ~iters name in
  run_to_brk env;
  Differential.observe ~pages:env.data_pas env.core
