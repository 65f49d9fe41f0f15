.PHONY: all build test lint bench fault-smoke batch-smoke bench-obs obs-smoke analyze-smoke bench-absint store-smoke chaos-smoke bench-resil prog-smoke bench-prog examples fuzz doc clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Store gate: sweep the tiny network twice through a fresh persistent
# store in fresh CLI processes — the second run must be 100% store hits,
# at least 5x faster and bit-identical — then truncate an entry and
# check corruption degrades to a recomputed miss (exit 1 on any
# violation).
store-smoke:
	dune build bin/tensorlib_cli.exe bench/main.exe
	dune exec bench/main.exe -- store-smoke

# Software-chaos gate: a seeded fault campaign over the toolchain's probe
# sites — store I/O (torn writes, injected Sys_error, corrupt payloads),
# Tl_par tasks (kills, delays), and the serve loop's stdin (oversized
# lines, mid-line EOF).  Asserts >= 200 injected faults, zero crashes,
# store faults degrading to misses, and that an interrupted sweep, rerun
# against its store, is bit-identical to an uninterrupted run at pool
# widths 1 and 3 (probe catalog: docs/RESILIENCE.md).
chaos-smoke:
	dune build bin/tensorlib_cli.exe bench/main.exe
	dune exec bench/main.exe -- chaos-smoke

# Software-resilience benchmark: retry economics under injected read
# weather, budget-degraded partial-sweep latency vs a full sweep, and
# the speedup of rerunning an interrupted sweep against its store;
# writes BENCH_resil.json.
bench-resil:
	dune build bin/tensorlib_cli.exe bench/main.exe
	dune exec bench/main.exe -- bench-resil
	grep -q '"schema": "tensorlib-bench-resil/1"' BENCH_resil.json

# Resilience gate: 1000-trial fault campaigns on the baseline and the
# TMR+parity+ABFT-hardened 4x4 GEMM accelerator, plus a 10000-trial
# tape-vs-batch throughput campaign on the 8x8 GEMM; writes
# BENCH_fault.json (fault models and outcome taxonomy:
# docs/RESILIENCE.md).  Fails on any hardened SDC or on any seeded
# outcome count other than its pinned value.
fault-smoke:
	dune exec bench/main.exe -- bench-fault

# Batch-backend gate: 62-lane differential against the golden run and a
# stuck-at campaign cross-check against the scalar tape, plus a quick
# throughput sanity figure.  Fails (exit 1) on any lane divergence —
# small enough for a pre-commit hook.
batch-smoke:
	dune exec bench/main.exe -- batch-smoke

# Observability gate: counter-vs-model validation and measured-activity
# power over the four tier-1 workloads, plus a traced DSE sweep and fault
# campaign; writes BENCH_obs.json and TRACE_obs.json (counter catalog and
# trace schema: docs/OBSERVABILITY.md).
bench-obs:
	dune exec bench/main.exe -- bench-obs

# Smoke check: CLI profile run on the 4x4 GEMM (exit 1 on any counter
# mismatch), then the bench-obs gate, then validate the emitted JSON
# artifacts carry the expected schemata.
obs-smoke:
	dune build bin/tensorlib_cli.exe
	dune exec bin/tensorlib_cli.exe -- profile -w gemm-small -d MNK-SST \
	  --rows 4 --cols 4 --json --trace TRACE_obs.json > /dev/null
	grep -q '"traceEvents"' TRACE_obs.json
	dune exec bench/main.exe -- bench-obs
	grep -q '"schema": "tensorlib-bench-obs/1"' BENCH_obs.json
	grep -q '"traceEvents"' TRACE_obs.json
	@echo "obs-smoke: OK"

# Abstract-interpretation gate: every tier-1 workload's generated netlist
# must statically prove the L200/L201/L202 safety rules — from the
# fixpoint and the control slice recorded on the tape, with no run on
# data — via the CLI netlist analyzer (exit 1 on any unproven rule;
# engine and rule family: docs/ANALYSIS.md).
analyze-smoke:
	dune build bin/tensorlib_cli.exe
	dune exec bin/tensorlib_cli.exe -- analyze -w gemm-small -d MNK-SST \
	  --netlist --rows 4 --cols 4 > /dev/null
	dune exec bin/tensorlib_cli.exe -- analyze -w conv2d-small -d KCX-SST \
	  --netlist --rows 4 --cols 4 > /dev/null
	dune exec bin/tensorlib_cli.exe -- analyze -w depthwise-small -d XYP-MMM \
	  --netlist --rows 4 --cols 4 > /dev/null
	dune exec bin/tensorlib_cli.exe -- analyze -w mttkrp-small -d IKL-UBBB \
	  --netlist --rows 4 --cols 4 > /dev/null
	@echo "analyze-smoke: OK"

# Proof + narrowing benchmark over the four tier-1 workloads; writes
# BENCH_absint.json (fails if any safety rule is unproven).
bench-absint:
	dune exec bench/main.exe -- bench-absint
	grep -q '"schema": "tensorlib-bench-absint/1"' BENCH_absint.json

# Programmable-accelerator gate: one 4x4 MNK-SST netlist with writable
# schedule memories serves three GEMM shapes, each bit-identical to a
# freshly generated per-shape ROM build, with the reference interpreter
# ending in the tape's state, a program-codec roundtrip and lint/absint
# no-new-findings checks on the programmable variant (exit 1 on any
# divergence).
prog-smoke:
	dune exec bench/main.exe -- prog-smoke

# Reprogramming benchmark: loading a compiled program into the standing
# array vs regenerating + re-elaborating a per-shape ROM accelerator
# (compile cost reported separately); writes BENCH_prog.json and fails
# if reprogramming is less than 10x faster or any output diverges.
bench-prog:
	dune exec bench/main.exe -- bench-prog
	grep -q '"schema": "tensorlib-bench-prog/1"' BENCH_prog.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/conv2d_explorer.exe
	dune exec examples/mttkrp_dataflows.exe
	dune exec examples/design_space.exe
	dune exec examples/verilog_tour.exe
	dune exec examples/tiled_reuse.exe
	dune exec examples/custom_einsum.exe

# Static-analysis gate: every supported design of the small workloads must
# report zero error-severity findings (rule catalog: docs/LINT.md).
lint:
	dune build bin/tensorlib_cli.exe
	dune exec bin/tensorlib_cli.exe -- lint -w gemm-small
	dune exec bin/tensorlib_cli.exe -- lint -w conv2d-small
	dune exec bin/tensorlib_cli.exe -- lint -w depthwise-small
	dune exec bin/tensorlib_cli.exe -- lint -w mttkrp-small

# Random designs vs the golden executor, the lint differential oracle over
# random netlists (Rewrite must never introduce findings), and the absint
# soundness oracle (simulated values stay inside the abstract fixpoint on
# the tape and the reference interpreter; narrowing stays
# output-equivalent), and the batch lanes against per-lane replays.
fuzz:
	dune exec bin/fuzz.exe -- 500

clean:
	dune clean
