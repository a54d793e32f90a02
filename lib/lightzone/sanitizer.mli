(** Sensitive-instruction sanitizer (paper Section 6.3, Table 3).

    Scans raw 32-bit instruction words before a page may become
    executable. Classification follows Table 3's bit-level rules over
    the system-instruction space (bits 31..22 = 0b1101010100, op0 =
    bits 20..19, op1 = 18..16, CRn = 15..12, op2 = 7..5):

    - [ERET] (and the pointer-authenticated [ERETAA]/[ERETAB]) —
      forbidden in both modes (would fabricate an exception return).
    - Unprivileged load/stores ([LDTR*]/[STTR*]) — allowed under
      TTBR-based isolation (mode ①), forbidden under PAN-based
      isolation (mode ②) where they would bypass PAN.
    - MSR (immediate), op0=0b00 ∧ CRn=0b0100: only the PAN field
      (op1=0, op2=0b100) is allowed.
    - SYS, op0=0b01 ∧ CRn=7 (cache maintenance / AT) — forbidden.
    - op0=0b11 ∧ CRn=4: only NZCV (op1=3, CRm=2, op2=0) and
      FPCR/FPSR (op1=3, CRm=4, op2=0/1) — SPSR_EL1, ELR_EL1, SP_EL0
      and the register-form PSTATE accessors (DAIF, DIT, SSBS, TCO)
      are not.
    - op0=0b11 ∧ CRn≠4: op1=3 (EL0 registers) allowed; TTBR0_EL1 is
      allowed *only inside the call gate* in mode ① and forbidden in
      mode ②; every other target is forbidden.

    Instructions the hypervisor configuration registers already
    monitor (TLBI under HCR.TTLB, WFI under HCR.TWI, plain traps) pass
    the sanitizer — trapping covers them at run time. *)

type mode = Ttbr_mode | Pan_mode

type verdict =
  | Allowed
  | Gate_only  (** legal only in kernel-module-emitted gate pages. *)
  | Forbidden of string

val classify : mode -> int -> verdict
(** Classify one instruction word. *)

val scan_page :
  mode -> Lz_mem.Phys.t -> pa:int -> (unit, int * int * string) result
(** Scan a 4 KiB frame; [Error (offset, word, why)] on the first
    sensitive instruction found. *)
