.PHONY: all build test bench bench-smoke engine-diff fleet fleet-smoke \
	fuzz fuzz-smoke smp smp-smoke scale scale-smoke profile snap-demo \
	trace-demo clean

all: build

build:
	dune build

test:
	dune runtest

# Full host-throughput benchmark: fast vs slow execution engine,
# writes BENCH_throughput.json in the repo root. Every bench below
# writes BENCH_<name>.json, or BENCH_<name>.smoke.json with --smoke;
# --check compares against that file (the committed baseline of its
# own mode) and writes BENCH_<name>[.smoke].check.json instead, so a
# checking run never replaces the baseline. Re-record a baseline with
# the run without --check.
bench: build
	dune exec bench/throughput.exe

# Quick harness check (small iteration count) via the dune alias,
# then the full-iteration throughput run gated against the committed
# baseline (report in BENCH_throughput.check.json): exits non-zero if
# any workload's fast-engine MIPS or block_speedup regressed more than
# 20%, if an instruction count or block statistic moved, or if nginx
# misses its floors.
bench-smoke:
	dune build @bench-smoke
	dune exec bench/throughput.exe -- --check

# Engine differential over the CLI: traps, pentest, switch and two
# trace exports (host and guest) run under LZ_ENGINE=slow, per-insn and
# blocks, and every output must be byte-identical to the slow engine's;
# an unknown LZ_ENGINE must fail.
# Outputs land in _build/engine-diff/<engine>/.
engine-diff: build
	@set -e; lz=$(CURDIR)/_build/default/bin/lzctl.exe; \
	out=$(CURDIR)/_build/engine-diff; rm -rf $$out; \
	for e in slow per-insn blocks; do \
	  mkdir -p $$out/$$e; cd $$out/$$e; export LZ_ENGINE=$$e; \
	  $$lz traps > traps.txt; \
	  $$lz pentest > pentest.txt; \
	  $$lz switch > switch.txt; \
	  $$lz trace export -o host.jsonl > host.txt; \
	  $$lz trace export -e guest -o guest.jsonl > guest.txt; \
	done; \
	for e in per-insn blocks; do \
	  diff -rq $$out/slow $$out/$$e || \
	    { diff -r $$out/slow $$out/$$e | head -20; exit 1; }; \
	done; \
	if LZ_ENGINE=bogus $$lz traps > /dev/null 2>&1; then \
	  echo "engine-diff: LZ_ENGINE=bogus was accepted"; exit 1; \
	fi; \
	echo "engine-diff: slow, per-insn and blocks outputs identical"

# Fleet-forking benchmark: 1024 instances off one warm 128-domain
# image, writes BENCH_fleet.json in the repo root; fails if forking
# is not >= 10x cheaper than cold setup.
fleet: build
	dune exec bench/fleet.exe

# CI variant: 64 forks; every fork's digest must equal the image's,
# and every churned fork must equal the source on digest, cycles,
# instructions, TLB hits and misses, fault traps and table frames;
# writes BENCH_fleet.smoke.json.
fleet-smoke: build
	dune exec bench/fleet.exe -- --smoke

# Coverage-guided differential fuzzing of the gate/sanitizer/trap
# surface: 6000 cases, corpus under fuzz-corpus/, writes
# BENCH_fuzz.json in the repo root (not committed).
fuzz: build
	dune exec bench/fuzz.exe

# CI variant: fixed seed, 2000 cases, gated against the committed
# BENCH_fuzz.smoke.json (report in BENCH_fuzz.smoke.check.json) —
# exits non-zero on any engine divergence, on losing a baseline
# coverage key (coverage regression), or on any change to the
# simulated rows: corpus size and digest, key count, cases per kind
# and the coverage curve. Deterministic: two consecutive runs produce
# identical key sets and corpora.
fuzz-smoke: build
	dune exec bench/fuzz.exe -- --smoke --check

# Multi-core simulation benchmark: MIPS vs core count (1/2/4/8) on
# one host domain per core, plus shootdown ack latency; writes
# BENCH_smp.json in the repo root. Always enforces the gates: 2-core
# sequential ≡ parallel digest, shootdown acks <= 2 barriers, and
# (only on hosts with >= 4 cpus) 4-core aggregate MIPS >= 2x 1-core.
smp: build
	dune exec bench/smp.exe

# CI smoke: 2-core sequential ≡ parallel digest/trace identity and a
# 100-shootdown latency check; writes BENCH_smp.smoke.json.
smp-smoke: build
	dune exec bench/smp.exe -- --smoke

# Tenant-scale connection churn: 4096 zones in a 13-bit ASID space,
# enough alloc/free cycles to force generation rollover, with the
# per-switch cycle flatness, pgt-id density and zero-allocation
# gates; writes BENCH_scale.check.json in the repo root and fails if
# the top-zone-count MIPS regressed more than 20% or any simulated
# count moved against the committed BENCH_scale.json.
scale: build
	dune exec bench/scale.exe -- --check

# CI variant: 256 zones in a 9-bit space — same rollover, flatness
# and zero-allocation gates at a fraction of the runtime. Compares
# every simulated count against the committed BENCH_scale.smoke.json
# (its MIPS are informational: the smoke run is too short to time)
# and writes BENCH_scale.smoke.check.json, so it never touches either
# baseline.
scale-smoke: build
	dune exec bench/scale.exe -- --smoke --check

# Host-time CPU profile of one hostbench workload:
#   make profile W=<switch128|churn4096|fuzz>
# Runs hostbench/lzbench.exe (seed 1, untraced, hostbench's 30 s
# window) under gprofng's clock sampling at its default rate, writes
# the experiment to _build/profile/<W>.er and prints the top functions
# by exclusive CPU time. Without gprofng it says so and exits 0.
W ?= switch128
profile:
	@if ! command -v gprofng >/dev/null 2>&1; then \
	  echo "profile: gprofng not found (part of GNU binutils); skipped"; \
	  exit 0; \
	fi; \
	set -e; \
	dune build ./hostbench/lzbench.exe; \
	mkdir -p _build/profile; \
	gprofng collect app -O _build/profile/$(W).er \
	  ./_build/default/hostbench/lzbench.exe --workload $(W) --seed 1 \
	  --seconds 30 --trace 0 > _build/profile/$(W).out; \
	gprofng display text -limit 25 -functions _build/profile/$(W).er

# Snapshot/fork/replay walkthrough (lz_snap demo).
snap-demo: build
	dune exec examples/snapshot_fork.exe

# Cycle attribution of a 128-domain gate-switch run (lz_trace demo).
trace-demo: build
	dune exec examples/trace_gate.exe

clean:
	dune clean
