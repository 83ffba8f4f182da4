#!/usr/bin/env bash
# Build the trial benchmark from source in this checkout, then run it.
#   bash perfbench/run.sh --workload random|corpus|observed --seed N --seconds S --trace 0|1
# The last line of stdout is the JSON result; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . perfbench/main.exe 1>&2
PERFBENCH_NPROC="$(nproc 2>/dev/null || echo 0)"
PERFBENCH_COMMIT=unknown
if [ -e .git ]; then
  PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_NPROC PERFBENCH_COMMIT
# runtime_events puts its ring file here; the runtime removes it at exit
mkdir -p _perfbench
export OCAML_RUNTIME_EVENTS_DIR="$PWD/_perfbench"
exec ./_build/default/perfbench/main.exe "$@"
