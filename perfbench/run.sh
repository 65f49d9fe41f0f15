#!/usr/bin/env bash
# Build the benchmark and the tensorlib CLI from source, then run it.
#
#   bash perfbench/run.sh --workload sweep|generate|campaign|serve \
#        --seed N --seconds S --trace 0|1 [--out FILE] [--trace-file FILE]
#   bash perfbench/run.sh steady --workload W [--runs K] [--sets 2]
#
# The last line of standard output is the result object; see
# perfbench/GLOSSARY.md for every workload and metric.
set -eu
cd "$(dirname "$0")/.."
if ! dune build --root . --display quiet \
     ./perfbench/main.exe ./bin/tensorlib_cli.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
# One CPU for the benchmark and the serve processes it starts: the
# host-speed kernel (perfbench/calib.ml) then measures the CPU the work
# runs on.
cpu=$(( $(nproc) - 1 ))
if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
