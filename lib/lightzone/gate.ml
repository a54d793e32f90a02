open Lz_arm

(* TTBR1 half: bit 47 set. *)
let stub_base = 0x800000000000
let gate_base = 0x800000100000
let gate_stride = 256
let max_gates = 256
let gatetab_base = 0x800001000000
let ttbrtab_base = 0x800001100000

(* 8 bytes per pgt: 8192 ids span 16 contiguous TTBRTab frames, well
   inside the 1 MiB hole before the next module region. Raised from
   512 so tenant-per-zone servers can hold 4096+ concurrent zones. *)
let max_pgts = 8192

let gate_va g =
  if g < 0 || g >= max_gates then invalid_arg "Gate.gate_va";
  gate_base + (g * gate_stride)

let violation_brk = 0x1D
let hvc_syscall = 0
let hvc_exception = 1
let hvc_sigreturn = 2

let mov_addr reg addr =
  [ Insn.Movz (reg, addr land 0xFFFF, 0);
    Insn.Movk (reg, (addr lsr 16) land 0xFFFF, 16);
    Insn.Movk (reg, (addr lsr 32) land 0xFFFF, 32) ]

(* Gate body. Register use: x17 table pointer, x10 pgtid/index, x11
   TTBRTab base, x12 ttbr in flight, x14 legal entry, x15 legal ttbr.
   x30 carries the return address = the claimed entry. *)
let phase1_insns ~gate_id =
  let gatetab_entry = gatetab_base + (16 * gate_id) in
  mov_addr 17 gatetab_entry
  @ [ Insn.Ldr (10, 17, 8);              (* PGTID *)
      Insn.Lsl_imm (10, 10, 3) ]
  @ mov_addr 11 ttbrtab_base
  @ [ Insn.Ldr_reg (12, 11, 10);         (* legal TTBR0 for PGTID *)
      Insn.Msr (Sysreg.TTBR0_EL1, 12);   (* ① the switch *)
      Insn.Isb ]

let phase2_insns ~gate_id =
  let gatetab_entry = gatetab_base + (16 * gate_id) in
  (* ② re-materialize pointers from immediates and re-query. *)
  mov_addr 17 gatetab_entry
  @ [ Insn.Ldr (14, 17, 0);              (* legal ENTRY *)
      Insn.Ldr (10, 17, 8);
      Insn.Lsl_imm (10, 10, 3) ]
  @ mov_addr 11 ttbrtab_base
  @ [ Insn.Ldr_reg (15, 11, 10);         (* legal TTBR0, re-read *)
      Insn.Mrs (12, Sysreg.TTBR0_EL1) ]  (* the in-register value *)

let gate_code ~gate_id =
  let phase1 = phase1_insns ~gate_id in
  let phase2 = phase2_insns ~gate_id in
  let prologue = phase1 @ phase2 in
  (* Branch targets relative to instruction index; "fail:" label sits
     right after "ret". *)
  let n = List.length prologue in
  let fail_index = n + 5 in
  let tail =
    [ Insn.Subs (31, 12, Insn.Reg 15);
      Insn.Bcond (Insn.NE, 4 * (fail_index - (n + 1)));
      Insn.Subs (31, 30, Insn.Reg 14);
      Insn.Bcond (Insn.NE, 4 * (fail_index - (n + 3)));
      Insn.Ret 30;
      (* fail: *)
      Insn.Brk violation_brk ]
  in
  let code = prologue @ tail in
  assert (List.length code * 4 <= gate_stride);
  code

(* Byte offsets of the phase boundaries inside a gate body, used by
   the tracer's PC markers to attribute cycles to Fig. 2 phases ①/②.
   Derived from the emitted instruction lists so they cannot drift. *)
let phase2_off = 4 * List.length (phase1_insns ~gate_id:0)

let stub_insns_at _offset = [ Insn.Hvc hvc_exception ]

let switch_site_code ~gate_id =
  mov_addr 17 (gate_va gate_id) @ [ Insn.Blr 17 ]

let set_gate_entry phys ~gatetab_pa ~gate ~entry =
  if gate < 0 || gate >= max_gates then invalid_arg "Gate.set_gate_entry";
  Lz_mem.Phys.write64 phys (gatetab_pa + (16 * gate)) entry

let set_gate_pgt phys ~gatetab_pa ~gate ~pgt =
  if gate < 0 || gate >= max_gates then invalid_arg "Gate.set_gate_pgt";
  Lz_mem.Phys.write64 phys (gatetab_pa + (16 * gate) + 8) pgt

let set_ttbr phys ~ttbrtab_pa ~pgt ~ttbr =
  if pgt < 0 || pgt >= max_pgts then invalid_arg "Gate.set_ttbr";
  Lz_mem.Phys.write64 phys (ttbrtab_pa + (8 * pgt)) ttbr
