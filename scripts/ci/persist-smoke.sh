#!/usr/bin/env bash
# The persisted flat-kind gate, runnable locally: builds a `vamana:flash`
# index over a small generated corpus, saves its topology to a `.hfg` file,
# prints it with `info`, then serves it with `search --graph` against exact
# ground truth. Fails on any non-zero exit, when `info` does not name the
# method the file was built with, when `search --graph` serves the file
# under another method (`hnsw:pq`) instead of refusing it, and when the
# matching `search` prints no `recall@10` line or one below RECALL_FLOOR.
#
# Outputs go to the directory given as $1 (default target/persist-smoke,
# which .gitignore already covers).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
out="${1:-target/persist-smoke}"
mkdir -p "$out"

# recall@10 of this corpus and build was 0.9760 when the gate was set; the
# floor sits 0.02 below it.
RECALL_FLOOR=0.956

cargo build --release --bin flash_cli
cli=./target/release/flash_cli

"$cli" generate --profile ssnpp-like --n 2000 --nq 50 --k 10 \
  --base "$out/base.fvecs" --queries "$out/q.fvecs" --gt "$out/gt.ivecs" --seed 3
"$cli" build --base "$out/base.fvecs" --method vamana:flash --c 64 --r 16 \
  --graph "$out/index.hfg" 2>&1 | tee "$out/build.txt"
"$cli" info --graph "$out/index.hfg" | tee "$out/info.txt"

if ! grep -q 'method: *vamana:flash$' "$out/info.txt"; then
  echo "info does not name the method the graph was built with (vamana:flash)" >&2
  exit 1
fi

if "$cli" search --base "$out/base.fvecs" --graph "$out/index.hfg" \
  --method hnsw:pq --c 64 --r 16 --queries "$out/q.fvecs" --k 10 --ef 96 \
  --gt "$out/gt.ivecs" >"$out/mismatch.txt" 2>&1; then
  echo "search served a vamana:flash graph as hnsw:pq instead of refusing it" >&2
  exit 1
fi
cat "$out/mismatch.txt"

"$cli" search --base "$out/base.fvecs" --graph "$out/index.hfg" \
  --method vamana:flash --c 64 --r 16 --queries "$out/q.fvecs" --k 10 --ef 96 \
  --gt "$out/gt.ivecs" | tee "$out/search.txt"

recall=$(sed -n 's/.*recall@10: *\([0-9.]*\).*/\1/p' "$out/search.txt" | head -n 1)
if [ -z "$recall" ]; then
  echo "search over the persisted graph printed no recall@10 line" >&2
  exit 1
fi
if ! awk -v r="$recall" -v f="$RECALL_FLOOR" 'BEGIN { exit !(r >= f) }'; then
  echo "recall@10 $recall over the persisted graph is below the floor $RECALL_FLOOR" >&2
  exit 1
fi
