#!/usr/bin/env bash
# The scenario harness gate (CI job `scenario-smoke`), runnable locally:
# replays the CI-sized steady_zipf scenario and checks the emitted report
# carries every required key with sane values and no timing key.
#
# The report goes to the directory given as $1 (default
# target/scenario-smoke, which .gitignore already covers).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:-target/scenario-smoke}"
mkdir -p "$out"

cargo build --release --bin flash_cli
./target/release/flash_cli scenario --name steady_zipf --smoke \
  --out "$out/BENCH_steady_zipf_smoke.json"

python3 - "$out" <<'PY'
import json, sys
with open(f"{sys.argv[1]}/BENCH_steady_zipf_smoke.json") as f:
    report = json.load(f)
required = ["schema_version", "scenario", "seed", "topology", "config",
            "queries", "recall", "cache", "admission", "trace", "profile",
            "slo", "mutations", "tenants"]
missing = [k for k in required if k not in report]
assert not missing, f"missing keys: {missing}"
assert report["scenario"] == "steady_zipf"
assert report["queries"] > 0
assert 0.0 <= report["recall"]["recall_at_k"] <= 1.0
profile = report["profile"]
assert profile["dist_coded"] + profile["dist_exact"] > 0, profile
assert report["slo"]["ticks"] > 0, report["slo"]
timing = {"qps", "wall_seconds", "latency_ms", "stage_ms"}
def timing_keys(value, path="$"):
    if isinstance(value, dict):
        for key, inner in value.items():
            if key in timing:
                yield f"{path}.{key}"
            yield from timing_keys(inner, f"{path}.{key}")
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from timing_keys(inner, f"{path}[{i}]")
found = list(timing_keys(report))
assert not found, f"timing keys in the report: {found}"
print("BENCH schema OK:", {k: report[k] for k in ("scenario", "topology", "queries")})
PY
