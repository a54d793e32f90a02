(** NVM data-isolation benchmark (paper Section 9.3, Figure 5).

    Emulates persistent-memory objects with DRAM, exactly as the paper
    does: [buffers] buffers of 2 MiB each, filled with '\n'-separated
    strings. Each operation picks a random string in a random buffer
    and performs a real substring search over it (fixed work per
    operation, ~7,000-8,500 cycles on the paper's platforms). Every
    buffer is one protected domain; the operation enters the domain
    before the search and exits after (Merr-style exposure-time
    reduction). *)

type params = {
  buffers : int;          (** domain count (paper sweeps 1..128). *)
  buffer_bytes : int;     (** paper: 2 MiB. *)
  string_len : int;
  needle_len : int;
  operations : int;       (** paper: 5,000,000. *)
}

val default_params : params

type result = {
  overhead_pct : float;       (** vs the unprotected run. *)
  cycles_per_op_base : float;
  cycles_per_op_protected : float;
  hits : int;                 (** real substring matches found. *)
}

val run : Lz_cpu.Cost_model.t -> iso:Iso_profile.t -> params -> result
