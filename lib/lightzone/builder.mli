(** Small assembler for LightZone application programs.

    Examples and tests build their simulated code with this: it tracks
    the current address, expands the [lz_switch_to_ttbr_gate] macro
    (recording the legitimate entry address for GateTab), and provides
    the PAN intrinsics — mirroring how the paper's user-space API
    library is used from C (Listing 1). *)

type t

val create : base:int -> t
(** [base] is the virtual address the program will be loaded at. *)

val here : t -> int
(** Address of the next instruction to be emitted. *)

val emit : t -> Lz_arm.Insn.t list -> unit

val switch_gate : t -> gate:int -> unit
(** Expand [lz_switch_to_ttbr_gate(gate)]: jump through the call gate;
    the address after the site is recorded as the gate's legitimate
    entry. Clobbers x17. *)

val set_pan : t -> bool -> unit
(** The [set_pan(v)] intrinsic: [msr PAN, #v]. *)

val mov_imm64 : t -> int -> int -> unit
(** [mov_imm64 b reg v]: movz/movk chain loading an arbitrary 48-bit
    value. *)

val finish : t -> Lz_arm.Insn.t list * (int * int) list
(** The program and the [(gate, entry)] registrations to pass to
    {!Api.register_entries}. *)
