#!/usr/bin/env bash
# Build the benchmark harness from source, then run it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload spec-sweep --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the harness prints its result as the last
# line of stdout. The build stays inside the checkout (no shared cache).
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
