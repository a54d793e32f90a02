(** Synthetic simulated-instruction microbenchmarks.

    Unlike the cycle-accounting workload models ({!Aes_workload},
    {!Mysql_sim}, {!Nginx_sim}), these are real instruction streams
    assembled into simulated memory and executed by {!Lz_cpu.Core} —
    the fuel for the throughput benchmark ([bench/throughput.ml]) and
    the three-engine {!Lz_cpu.Differential} property tests. Three
    programs echo the paper's workload mix:

    - ["aes"]    — ALU-dense block mixing with table-lookup loads;
    - ["mysql"]  — pointer-striding loads/stores across several pages
                   (B-tree-ish data traffic);
    - ["nginx"]  — buffer copying with byte accesses and branches.

    Each program loops a register-counted number of iterations and
    ends in BRK. *)

val names : string list
(** ["aes"; "mysql"; "nginx"]. *)

val code_va : int
(** VA of the (single) code page every program is assembled at — also
    the entry pc, useful for planting PC markers on the code page. *)

type env = {
  core : Lz_cpu.Core.t;
  data_pas : int list;  (** physical frames backing the data pages. *)
}

val build : ?engine:Lz_cpu.Core.engine -> iters:int -> string -> env
(** [build name] assembles the named program with an [iters]-iteration
    loop into a fresh machine. [?engine] is passed to
    {!Lz_cpu.Core.create}. Raises [Invalid_argument] on an unknown
    name. *)

val run_to_brk : env -> unit
(** Run until the final BRK; raises [Failure] on any other stop. *)

val run_summary :
  ?engine:Lz_cpu.Core.engine -> iters:int -> string -> Lz_cpu.Differential.t
(** Build, run to the final BRK and observe the core, digesting every
    data page. *)
