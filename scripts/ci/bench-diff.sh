#!/usr/bin/env bash
# The BENCH regression sentinel (CI job `bench-diff`), runnable locally:
# reproduces every committed structural baseline with a fresh flash_cli
# build at the seed recorded in the file, diffs each against its committed
# file, then proves the differ fires on injected structural drift and stays
# silent on a report that differs only in timing leaves.
#
# `bench-diff` is exact: timing fields are stripped, never compared —
# benchmark/ is the only stopwatch.
#
# Fresh reports go to the directory given as $1 (default target/bench-diff,
# which .gitignore already covers). The committed baselines were generated
# at the AVX-512 dispatch level; on a weaker host the diffs are not exact.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:-target/bench-diff}"
mkdir -p "$out"

cargo build --release --bin flash_cli
cli=./target/release/flash_cli

for name in steady_zipf fault_storm churn_lsm diurnal_burst; do
  seed=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["seed"])' "BENCH_$name.json")
  "$cli" scenario --name "$name" --seed "$seed" --out "$out/BENCH_fresh_$name.json"
  "$cli" bench-diff --old "BENCH_$name.json" --new "$out/BENCH_fresh_$name.json"
done

# Canaries: one report mutated in two structural counters, one mutated in
# every kind of timing leaf only.
python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
fresh = f"{out}/BENCH_fresh_steady_zipf.json"

report = json.load(open(fresh))
report["profile"]["hops_base"] += 1
report["queries"] += 1
json.dump(report, open(f"{out}/BENCH_mutated.json", "w"))

report = json.load(open(fresh))
report["qps"] *= 1000
report["wall_seconds"] += 3600
report["latency_ms"]["max"] *= 1000
for tenant in report["tenants"]:
    tenant["latency_ms"]["p50"] += 50
stages = report["trace"]["stage_ms"]
for stage in stages:
    stages[stage] += 1000
json.dump(report, open(f"{out}/BENCH_retimed.json", "w"))
PY
if "$cli" bench-diff --old BENCH_steady_zipf.json --new "$out/BENCH_mutated.json" 2> "$out/canary.txt"; then
  echo "bench-diff failed to flag an injected structural regression" >&2
  exit 1
fi
grep -qF '$.profile.hops_base' "$out/canary.txt"
grep -qF '$.queries' "$out/canary.txt"
"$cli" bench-diff --old BENCH_steady_zipf.json --new "$out/BENCH_retimed.json"
echo "bench-diff: four baselines reproduced, structural canary fired, timing-only canary passed"
