#!/usr/bin/env bash
# Build the benchmark from source and run it from the root of the checkout:
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
