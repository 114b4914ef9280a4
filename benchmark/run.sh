#!/usr/bin/env bash
# Builds the benchmark package from source, then runs it with the given
# arguments (see README.md). The build log goes to standard error, so the
# last line of standard output is the run's JSON result. If the repository
# is not around the package the build fails and nothing is printed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# glibc otherwise raises its mmap threshold as large blocks are freed, and
# where a later block then lands depends on thread timing: peak RSS came out
# 8-12 % apart between runs on one seed. Pinned, it repeats to 0.1 %.
export MALLOC_MMAP_THRESHOLD_=131072
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/flash-benchmark" "$@"
