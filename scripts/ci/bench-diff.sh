#!/usr/bin/env bash
# The BENCH regression sentinel (CI job `bench-diff`), runnable locally:
# reproduces the three committed structural baselines with a fresh
# flash_cli build, diffs each against its committed file, then proves the
# differ still fires by injecting drift into one fresh report.
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

"$cli" scenario --name steady_zipf --seed 335533 --out "$out/BENCH_fresh_steady_zipf.json"
"$cli" scenario --name fault_storm --seed 1024279 --out "$out/BENCH_fresh_fault_storm.json"
"$cli" hotpath --smoke --out "$out/BENCH_fresh_hotpath.json"

for name in steady_zipf fault_storm hotpath; do
  "$cli" bench-diff --old "BENCH_$name.json" --new "$out/BENCH_fresh_$name.json"
done

# Canary: the sentinel must flag an injected structural regression.
python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
report = json.load(open(f"{out}/BENCH_fresh_steady_zipf.json"))
report["profile"]["hops_base"] += 1
report["queries"] += 1
json.dump(report, open(f"{out}/BENCH_mutated.json", "w"))
PY
if "$cli" bench-diff --old BENCH_steady_zipf.json --new "$out/BENCH_mutated.json"; then
  echo "bench-diff failed to flag an injected structural regression" >&2
  exit 1
fi
echo "bench-diff: three baselines reproduced, canary fired"
