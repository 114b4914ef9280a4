#!/usr/bin/env bash
# The tracked line count (ROADMAP aim 2): physical lines of tracked `*.rs`
# files under crates/ and src/, files in a `tests/` directory excluded, each
# file counted up to (not including) its first line that begins with
# `#[cfg(test)]` — the module-level test block; an indented attribute on a
# single item does not end the count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
git ls-files -z -- 'crates/*.rs' 'src/*.rs' | grep -zv '/tests/' |
  xargs -0 awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }'
