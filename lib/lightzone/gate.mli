(** The TTBR1-mapped secure call gate (paper Section 6.2, Figure 2).

    Gates, the vector stub, and the two kernel-managed read-only
    tables live in the upper (TTBR1) half of the address space, which
    the process can never remap: the sanitizer forbids TTBR1_EL1
    writes and the pages are read-only (gates: execute-only + read).

    Each gate [g] is a fixed code sequence at [gate_va g] that
    hardcodes its own identifier and the *immediate* addresses of
    GateTab\[g\] and TTBRTab — so a control-flow hijack into the middle
    of the gate cannot substitute attacker-controlled tables: the
    check phase re-materializes the pointers from immediates and
    re-queries through TTBR1, which translates independently of the
    attacker-controlled TTBR0.

    Layout of the read-only tables:
    - GateTab: 16 bytes per gate — \[+0\] legal ENTRY VA, \[+8\] PGTID.
    - TTBRTab: 8 bytes per page table — the legal TTBR0 value
      (fake root address | ASID). *)

(** {1 Layout} *)

val stub_base : int
(** VBAR_EL1 of every LightZone process (one page). *)

val gate_base : int
val gate_stride : int
val max_gates : int
val gatetab_base : int
val ttbrtab_base : int
val max_pgts : int

val gate_va : int -> int
(** Entry address of gate [g]. *)

(** {1 Code emission} *)

val gate_code : gate_id:int -> Lz_arm.Insn.t list
(** The gate body (switch phase ①, then check phase ②; ends in
    [ret] or [brk #0x1D] on a detected violation). *)

val violation_brk : int
(** The BRK immediate a failing gate raises (0x1D). *)

val phase2_off : int
(** Byte offset from [gate_va g] of the first check-phase (②)
    instruction — where the tracer places its [Gate_check] marker. *)

val stub_insns_at : int -> Lz_arm.Insn.t list
(** Vector-stub instructions at the given vector offset (0x200 for
    current-EL, 0x400 for lower-EL entries): forward via [hvc #1]. *)

val hvc_syscall : int
(** HVC immediate the API library uses to forward syscalls (0). *)

val hvc_exception : int
(** HVC immediate of the vector stub (1). *)

val hvc_sigreturn : int
(** HVC immediate a signal handler executes to return to the
    interrupted context (2). *)

val switch_site_code : gate_id:int -> Lz_arm.Insn.t list
(** Application-side expansion of [lz_switch_to_ttbr_gate(gate)]:
    materialize the gate address and [blr] to it — the link register
    becomes the legitimate entry, the first instruction after the
    site. Clobbers x17. *)

val mov_addr : int -> int -> Lz_arm.Insn.t list
(** [mov_addr reg addr]: movz/movk sequence loading a 48-bit address
    (always 3 instructions). *)

(** {1 Table access (kernel-module side, direct physical writes)} *)

val set_gate_entry : Lz_mem.Phys.t -> gatetab_pa:int -> gate:int -> entry:int -> unit
val set_gate_pgt : Lz_mem.Phys.t -> gatetab_pa:int -> gate:int -> pgt:int -> unit
val set_ttbr : Lz_mem.Phys.t -> ttbrtab_pa:int -> pgt:int -> ttbr:int -> unit
