(** Processor state (PSTATE) for the simulated ARM64 core.

    Carries the pieces of PSTATE that matter to LightZone: the current
    exception level, the Privileged Access Never bit, condition flags
    and interrupt masking. *)

type el = EL0 | EL1 | EL2
(** Exception levels. EL0 = user, EL1 = (guest) kernel, EL2 =
    hypervisor / VHE host kernel. *)

type t = {
  mutable el : el;
  mutable pan : bool;  (** Privileged Access Never. *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable daif : int;  (** Interrupt masks, bits DAIF (4 bits). *)
  mutable sp_sel : bool;  (** true = SP_ELx, false = SP_EL0. *)
}

val make : el -> t
(** Fresh PSTATE at the given exception level, PAN clear, flags clear,
    interrupts unmasked, SP_ELx selected. *)

val copy : t -> t

val el_number : el -> int
(** [el_number el] is 0, 1 or 2. *)

val to_spsr : t -> int
(** Pack PSTATE into an SPSR-format word (for exception entry). *)

val of_spsr : t -> int -> unit
(** Restore PSTATE fields from an SPSR-format word (for ERET). *)

val nzcv : t -> int
(** Condition flags packed as bits 3..0 = N,Z,C,V. *)

val set_nzcv : t -> int -> unit

val pp_el : Format.formatter -> el -> unit
