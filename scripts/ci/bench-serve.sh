#!/usr/bin/env bash
# The serving front-end gate (CI job `bench-serve-smoke`), runnable locally:
# drills the socket server with pipelined clients (parity against in-process
# search) and an overload flood that must shed without dropping a request,
# checks that the retired server-selection flag is rejected by name, then
# runs the overload scenario twice on one seed and requires the admission
# counters to reproduce.
#
# Outputs go to the directory given as $1 (default target/bench-serve, which
# .gitignore already covers). The drill's qps is printed, never gated:
# `serve_zipf_stack` in benchmark/ is the ruler for serving speed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:-target/bench-serve}"
mkdir -p "$out"

cargo build --release --bin flash_cli
cli=./target/release/flash_cli

"$cli" bench-serve --n 1500 --queries 200 --flood 800 | tee "$out/bench_serve.txt"
python3 - "$out" <<'PY'
import re, sys
text = open(f"{sys.argv[1]}/bench_serve.txt").read()
bench = re.search(
    r"bench-serve: qps=(\d+) p99=([\d.]+)ms parity=ok", text)
assert bench, f"no parseable bench-serve line in: {text!r}"
qps = int(bench.group(1))
assert qps > 0, qps
over = re.search(
    r"overload: submitted=(\d+) answered=(\d+) ok=(\d+) "
    r"overloaded=(\d+) admitted=(\d+) shed=(\d+)", text)
assert over, f"no parseable overload line in: {text!r}"
submitted, answered, ok, overloaded = map(int, over.groups()[:4])
assert answered == submitted, "every request answered or shed, never dropped"
assert overloaded > 0, "the flood must shed"
print(f"bench-serve OK: {qps} qps, {overloaded}/{submitted} shed under flood")
PY

# The retired server-selection flag is rejected by name.
if "$cli" serve-node --event-loop 2> "$out/retired_flag.txt"; then
  echo "serve-node accepted a flag that no longer exists" >&2
  exit 1
fi
grep -q "unknown option --event-loop" "$out/retired_flag.txt"

"$cli" scenario --name overload --smoke --out "$out/BENCH_overload_a.json"
"$cli" scenario --name overload --smoke --out "$out/BENCH_overload_b.json"
python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
a = json.load(open(f"{out}/BENCH_overload_a.json"))
b = json.load(open(f"{out}/BENCH_overload_b.json"))
adm = a["admission"]
assert adm == b["admission"], "admission counters must reproduce run to run"
assert adm["shed"] > 0, "the overload scenario must shed"
assert adm["retried"] > 0, "shed requests with retry budget must retry"
assert adm["admitted"] + adm["shed"] == adm["submitted"], "every request resolves"
assert a["queries"] == adm["admitted"], "only admitted requests execute"
print("overload admission OK:", adm)
PY
echo "bench-serve: drill parity ok, flood shed, admission counters reproduced"
