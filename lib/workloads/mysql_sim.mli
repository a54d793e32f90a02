(** Multi-threaded OLTP database model (paper Section 9.2, Figure 4).

    A real in-memory storage engine backs the workload: [tables]
    hash-indexed tables of [rows_per_table] records, and a MEMORY-
    engine-style block heap ([Hp_ptrs]) holding the row payloads —
    the structure the paper protects with PAN. Connection threads run
    sysbench-style OLTP read-write transactions (10 point selects,
    4 updates per transaction by default) against it.

    Isolation mirrors the paper: each connection thread's stack is a
    TTBR domain (entered once per scheduling quantum via the call
    gate), and every MEMORY-engine access to the protected heap is a
    PAN enter/exit pair. *)

module Hp_ptrs : sig
  (** The HP_PTRS block heap: rows live in 16 KiB blocks chained per
      table, as in MySQL's HEAP engine. *)

  type t

  val create : unit -> t
  val alloc : t -> Bytes.t -> int
  (** Store a payload; returns its handle. *)

  val read : t -> int -> Bytes.t
  val update : t -> int -> Bytes.t -> unit
  val blocks : t -> int
end

type params = {
  tables : int;           (** paper: 10. *)
  rows_per_table : int;   (** paper: 10,000. *)
  threads : int;          (** sysbench client threads. *)
  transactions : int;     (** total transactions to run. *)
  point_selects : int;    (** per transaction (sysbench: 10). *)
  updates : int;          (** per transaction (sysbench: 4). *)
}

val default_params : params

type result = {
  throughput_tps : float;
  cycles_per_txn : float;
  rows_touched : int;
  verify_checksum : int;  (** checksum over read rows — proof the
                              engine really executed. *)
}

val run : Lz_cpu.Cost_model.t -> iso:Iso_profile.t -> params -> result
