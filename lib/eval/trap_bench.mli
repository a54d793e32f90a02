(** Table 4 — cycles spent on empty trap-and-return roundtrips.

    Every row is *measured* by running the corresponding simulated
    program (a getpid loop) through the real machinery: host EL0
    processes under the VHE host kernel, guest EL0 processes inside a
    KVM-style VM, LightZone processes on the host module and on the
    Lowvisor-forwarded guest path, and a guest kernel issuing KVM
    hypercalls with the full world switch. Costs are extracted as the
    slope between two run lengths, which cancels warm-up (demand
    paging, sanitizer scans). *)

type row = {
  label : string;
  lo : int;
  hi : int;  (** equals [lo] unless the path fluctuates. *)
}

val host_user_to_el2 : Lz_cpu.Cost_model.t -> int
val guest_user_to_el1 : Lz_cpu.Cost_model.t -> int
val lz_to_host_el2 : Lz_cpu.Cost_model.t -> int
val lz_to_guest_kernel : Lz_cpu.Cost_model.t -> int * int
(** (steady, with pt_regs re-location) — the Table 4 range. *)

val table : Lz_cpu.Cost_model.t -> row list
(** The seven Table 4 rows for one platform. *)

val paper : (string * (int * int) * (int * int)) list
(** Reference values from the paper: label, (Carmel lo, hi),
    (Cortex A55 lo, hi). *)
