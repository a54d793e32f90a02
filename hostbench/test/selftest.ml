(* Benchmark self-test at a tiny length: per workload, two runs of one
   seed agree on sim_digest and counters, another seed changes the
   inputs, a traced run leaves sim_digest unchanged, and the traced
   run's layer self times plus the harness residual account for the
   op time. *)

module Bench = Hostbench.Bench
module W = Hostbench.Workloads

let ops = 2

let run ?(trace = false) w seed =
  let w = Option.get (W.find w) in
  Bench.run { Bench.workload = w; seed; seconds = 0.; ops = Some ops; trace }

let counters (r : Bench.result) = W.counter_list r.Bench.delta

let metric name ms =
  (List.find (fun (x : Bench.metric) -> x.Bench.m_name = name) ms).Bench.value

let test_workload name () =
  let a = run name 7 in
  let b = run name 7 in
  let c = run name 8 in
  let t = run ~trace:true name 7 in
  Alcotest.(check int) "ops attempted" ops a.Bench.attempted;
  Alcotest.(check int) "no failed ops" 0 a.Bench.failed;
  let (W.W spec) = Option.get (W.find name) in
  Alcotest.(check int) "set-ups made"
    (1 + (Bench.setup_samples * spec.W.setup_batch))
    a.Bench.setups;
  Alcotest.(check string) "same seed, same sim_digest" a.Bench.sim_digest
    b.Bench.sim_digest;
  Alcotest.(check (list int)) "same seed, same counters" (counters a)
    (counters b);
  Alcotest.(check string) "same seed, same inputs" a.Bench.input_digest
    b.Bench.input_digest;
  Alcotest.(check bool) "other seed, other inputs" true
    (a.Bench.input_digest <> c.Bench.input_digest);
  Alcotest.(check int) "other seed, no failed ops" 0 c.Bench.failed;
  Alcotest.(check string) "tracing leaves sim_digest unchanged"
    a.Bench.sim_digest t.Bench.sim_digest;
  Alcotest.(check (list int)) "tracing leaves counters unchanged"
    (counters a) (counters t);
  let layer = Bench.per_layer t in
  let covered =
    List.fold_left
      (fun acc l -> acc +. metric (l ^ ".self_pct") layer)
      (metric "harness.self_pct" layer)
      Bench.layers
  in
  Alcotest.(check (float 1e-6)) "self times account for the op time" 100.
    covered;
  Alcotest.(check bool) "simulated work per op" true
    (metric "lz_cpu.sim_insns_per_op" layer > 0.)

let () =
  Alcotest.run "hostbench"
    [ ( "workloads",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_workload n))
          W.names ) ]
