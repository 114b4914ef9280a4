#!/usr/bin/env bash
# The serving front-end gate (CI job `bench-serve-smoke`), runnable locally:
# floods an under-provisioned socket server past its admission deadline — it
# must shed without dropping a request while /metrics is scraped and
# /healthz degrades — checks that the retired flags are rejected by name,
# then runs the overload scenario twice on one seed and requires the
# admission counters to reproduce.
#
# Outputs go to the directory given as $1 (default target/bench-serve, which
# .gitignore already covers). Nothing here is timed: `serve_zipf_stack` in
# benchmark/ is the ruler for serving speed, and wire parity with in-process
# search is tests/distributed.rs.
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
over = re.search(
    r"overload: submitted=(\d+) answered=(\d+) ok=(\d+) "
    r"overloaded=(\d+) admitted=(\d+) shed=(\d+)", text)
assert over, f"no parseable overload line in: {text!r}"
submitted, answered, ok, overloaded = map(int, over.groups()[:4])
assert answered == submitted, "every request answered or shed, never dropped"
assert overloaded > 0, "the flood must shed"
print(f"bench-serve OK: {overloaded}/{submitted} shed under flood")
PY

# Retired flags are rejected by name (options are parsed before the command
# runs, so any command will do).
for flag in event-loop pipeline passes; do
  if "$cli" serve-node "--$flag" 1 2> "$out/retired_flag.txt"; then
    echo "flash_cli accepted --$flag, a flag that no longer exists" >&2
    exit 1
  fi
  grep -q "unknown option --$flag" "$out/retired_flag.txt"
done

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
echo "bench-serve: flood shed and answered in full, scrape plane live, admission counters reproduced"
