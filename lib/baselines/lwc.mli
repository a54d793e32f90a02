(** Simulated light-weight contexts (lwC, Litton et al., OSDI'16) —
    the general-purpose comparison point of the paper's evaluation
    ("a simulated version of lwC, originally implemented on x86").

    Each context is a separate address-space view of the same process:
    a full copy of the unprotected mappings plus the one protected
    domain it may access. [lwswitch] is a system call; the kernel
    switches page tables (new TTBR0/ASID) and pays a context-switch
    cost on top of the bare trap — the reason lwC loses to every
    trap-free mechanism in Figures 3–5. *)

type t = {
  kernel : Lz_kernel.Kernel.t;
  proc : Lz_kernel.Proc.t;
  mutable contexts : (int * int) list;  (** ctx id -> stage-1 root. *)
  mutable domains : (int * int * int) list;
      (** (va, len, owning ctx) — regions visible only to one context. *)
  mutable switches : int;
}

val lwswitch_nr : int
(** Syscall number of lwSwitch (x0 = context id). *)

val create : Lz_kernel.Kernel.t -> Lz_kernel.Proc.t -> t
(** Install the lwC trap handler. *)

val new_context : t -> domain:(int * int) option -> int
(** Create a context that sees all current unprotected mappings of the
    process plus optionally one protected [va, len) domain. Returns
    the context id. Pages of every registered domain are hidden from
    every other context. *)
