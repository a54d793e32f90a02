(** Nginx/OpenSSL HTTPS-server model (paper Section 9.1, Figure 3).

    A single-worker event-loop server serves a 1 KiB file over
    HTTPS-like connections: per request the worker performs the
    TLS-record work — real AES-128-CBC over the body using a
    per-connection [AES_KEY] — plus request parsing and one syscall
    (keep-alive connections, one [writev]-style call per response).

    Isolation configurations mirror the paper: every AES key schedule
    sits in a protected domain (one shared domain under PAN; one
    domain per key under TTBR); each function touching a key opens and
    closes the domain ([key_accesses_per_request] enter/exit pairs,
    function-grained isolation as in ERIM). An ab-style load generator
    sweeps client concurrency. *)

type params = {
  requests : int;        (** per measurement run (paper: 10,000). *)
  concurrency : int;     (** concurrent clients. *)
  file_bytes : int;      (** body size (paper: 1024). *)
  keys : int;            (** distinct connections/keys in play. *)
  key_accesses_per_request : int;  (** enter/exit pairs per request. *)
}

val default_params : params

type result = {
  throughput_rps : float;
  cycles_per_request : float;
  requests_served : int;
  aes_blocks : int;      (** real AES block operations performed. *)
  sample_cipher : string;  (** hex of the first ciphertext block —
                               proof the crypto really ran. *)
}

val cpu_hz : Lz_cpu.Cost_model.t -> float
(** Simulated clock: 2.2 GHz Carmel, 2.0 GHz Cortex A55 (the paper's
    SoCs). *)

val run :
  Lz_cpu.Cost_model.t -> iso:Iso_profile.t -> params -> result
(** Serve [params.requests] requests under the given isolation
    profile, really encrypting the body (the ciphertext of request 0
    is returned), and account cycles per the profile. *)
