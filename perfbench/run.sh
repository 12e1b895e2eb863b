#!/bin/sh
# Build the CLI and the benchmark from source, then run the benchmark.
# Run from the repository root:
#   sh perfbench/run.sh --workload query-point --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --self-check
# Build output goes to stderr, so the last stdout line stays the result.
set -eu
# keep dune from writing to a shared cache outside the repository
export DUNE_CACHE=disabled
cd "$(dirname "$0")/.."
dune build --root . ./bin/guarded_cli.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
