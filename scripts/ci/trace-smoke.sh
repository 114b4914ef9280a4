#!/usr/bin/env bash
# The trace plane gate (CI job `trace-smoke`), runnable locally: replays the
# CI-sized steady_zipf scenario with trace export and checks every line is
# a well-formed span tree that reconciles with the report's span ledger.
#
# Outputs go to the directory given as $1 (default target/trace-smoke,
# which .gitignore already covers).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:-target/trace-smoke}"
mkdir -p "$out"

cargo build --release --bin flash_cli
./target/release/flash_cli scenario --name steady_zipf --smoke \
  --out "$out/BENCH_trace_smoke.json" --trace-out "$out/trace.jsonl"

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
span_keys = {"kind", "lane", "elapsed_ns"}
kinds = {"cache_lookup", "route", "replica_attempt", "shard_fanout",
         "gather", "rerank", "wire_exchange", "queue_wait"}
traces = 0
spans = 0
with open(f"{out}/trace.jsonl") as f:
    for n, line in enumerate(f, 1):
        tree = json.loads(line)  # every line must parse
        assert set(tree) == {"trace_id", "spans"}, f"line {n}: keys {set(tree)}"
        int(tree["trace_id"], 16)
        for span in tree["spans"]:
            missing = span_keys - set(span)
            assert not missing, f"line {n}: span missing {missing}"
            assert span["kind"] in kinds, f"line {n}: kind {span['kind']}"
            spans += 1
        traces += 1
with open(f"{out}/BENCH_trace_smoke.json") as f:
    report = json.load(f)
assert traces == report["queries"], (traces, report["queries"])
assert report["trace"]["dropped"] == 0
assert spans == sum(report["trace"]["spans"].values())
print(f"trace plane OK: {traces} traces, {spans} spans")
PY
