open Lz_arm

type mode = Ttbr_mode | Pan_mode

type verdict = Allowed | Gate_only | Forbidden of string

(* ERET and its pointer-authenticated variants ERETAA/ERETAB — any of
   them fabricates an exception return from attacker-chosen
   ELR_EL1/SPSR_EL1, so the whole class is forbidden. *)
let eret_word = 0xD69F03E0
let eretaa_word = 0xD69F0BFF
let eretab_word = 0xD69F0FFF

let[@inline] is_eret w = w = eret_word || w = eretaa_word || w = eretab_word

(* Unprivileged load/store: size(2) 111 0 00 opc(2) 0 imm9 10 Rn Rt.
   Mask out size, opc, imm9, registers. *)
let is_unpriv_ls w =
  w land 0x3F200C00 = 0x38000800

let ttbr0_enc = Sysreg.encoding Sysreg.TTBR0_EL1

let classify_system mode w =
  let op0 = Encoding.sys_op0 w in
  let op1 = Encoding.sys_op1 w in
  let crn = Encoding.sys_crn w in
  let crm = Encoding.sys_crm w in
  let op2 = Encoding.sys_op2 w in
  match op0 with
  | 0 when crn = 4 ->
      (* MSR (immediate). PAN: op1=0, op2=0b100. *)
      if op1 = 0 && op2 = 4 then Allowed
      else Forbidden "MSR(imm) to a PSTATE field other than PAN"
  | 0 -> Allowed (* hints, barriers *)
  | 1 ->
      if crn = 7 then Forbidden "cache/AT maintenance (op0=1, CRn=7)"
      else Allowed (* TLBI etc.: monitored by HCR_EL2 trap bits *)
  | 2 -> Allowed (* debug registers: monitored by MDCR_EL2 *)
  | _ ->
      (* op0 = 3: MSR/MRS register forms. *)
      if crn = 4 then
        (* Only NZCV (op1=3, CRm=2, op2=0) and FPCR/FPSR (op1=3,
           CRm=4, op2=0/1). The rest of the CRm=2/4 rows are PSTATE
           accessors — DAIF (CRm=2, op2=1) would let a zone mask its
           own preemption; DIT/SSBS/TCO and the unallocated slots are
           rejected with the SPSR/ELR class rather than whitelisted. *)
        if op1 = 3 && ((crm = 2 && op2 = 0) || (crm = 4 && op2 <= 1)) then
          Allowed
        else Forbidden "access to SPSR/ELR/SP/DAIF-class register (CRn=4)"
      else if op1 = 3 then Allowed (* EL0-accessible registers *)
      else if
        op0 = ttbr0_enc.Sysreg.op0 && op1 = ttbr0_enc.Sysreg.op1
        && crn = ttbr0_enc.Sysreg.crn && crm = ttbr0_enc.Sysreg.crm
        && op2 = ttbr0_enc.Sysreg.op2
      then
        match mode with
        | Ttbr_mode -> Gate_only
        | Pan_mode -> Forbidden "TTBR0_EL1 access under PAN-based isolation"
      else Forbidden "privileged system-register access"

let classify mode w =
  let w = w land 0xFFFFFFFF in
  if is_eret w then Forbidden "ERET"
  else if is_unpriv_ls w then
    match mode with
    | Ttbr_mode -> Allowed
    | Pan_mode -> Forbidden "unprivileged load/store under PAN isolation"
  else if Encoding.is_system_space w then classify_system mode w
  else Allowed

(* Most words of a code page are in none of the three classes
   [classify] can reject (ERET, LDTR/STTR, the system space), so the
   scan tests their masks inline and calls [classify] only for the
   rest: same verdicts, half the cost per page. *)
let scan_page mode phys ~pa =
  let rec scan i =
    if i >= 1024 then Ok ()
    else
      let w = Lz_mem.Phys.read32 phys (pa + (4 * i)) in
      if
        (not (is_eret w)) && (not (is_unpriv_ls w))
        && w land 0xFFC00000 <> 0xD5000000
      then scan (i + 1)
      else
        match classify mode w with
        | Allowed -> scan (i + 1)
        | Gate_only ->
            Error (4 * i, w, "TTBR0_EL1 access outside the call gate")
        | Forbidden why -> Error (4 * i, w, why)
  in
  scan 0
