#!/usr/bin/env bash
# Calibrates the bounds in BENCHMARK.json: runs --sets N (default 2) sets
# of --runs R (default 10) runs per workload on this commit, each run on
# another seed, alternating the workload order between sets, and prints per
# metric and workload each set's median, their ratio, each set's spread
# and PASS/FAIL against the bound. Writes benchmark/results/spread.json.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$@"
