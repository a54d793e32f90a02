#!/usr/bin/env bash
# Build the host-time benchmark from source and run one workload.
#
#   bash hostbench/run.sh --workload <switch128|churn4096|fuzz> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "hostbench: run from the root of a LightZone checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout's _build.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./hostbench/lzbench.exe >&2
exec ./_build/default/hostbench/lzbench.exe "$@"
