type t = {
  base : int;
  mutable rev_insns : Lz_arm.Insn.t list;
  mutable count : int;
  mutable gates : (int * int) list;
}

let create ~base = { base; rev_insns = []; count = 0; gates = [] }

let here t = t.base + (4 * t.count)

let emit t insns =
  List.iter
    (fun i ->
      t.rev_insns <- i :: t.rev_insns;
      t.count <- t.count + 1)
    insns

let switch_gate t ~gate =
  emit t (Gate.switch_site_code ~gate_id:gate);
  t.gates <- (gate, here t) :: t.gates

let set_pan t v =
  emit t [ Lz_arm.Insn.Msr_pstate (Lz_arm.Insn.PAN, if v then 1 else 0) ]

let mov_imm64 t reg v =
  emit t
    [ Lz_arm.Insn.Movz (reg, v land 0xFFFF, 0);
      Lz_arm.Insn.Movk (reg, (v lsr 16) land 0xFFFF, 16);
      Lz_arm.Insn.Movk (reg, (v lsr 32) land 0xFFFF, 32) ]

let finish t = (List.rev t.rev_insns, List.rev t.gates)
