#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, untraced + traced
#   benchmark/run.sh --quick              the same at 1/20 length (< 30 s)
#   benchmark/run.sh --workload steady --seed 3 --seconds 15 --trace 0
#                                         one run; last stdout line is the
#                                         result (the form BENCHMARK.json's
#                                         driver uses)
#
# Flags: --workload NAME  --seed N  --seconds S  --trace 0|1  --world N
#        --quick  --out DIR      (see benchmark/README.md)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/ef-benchmark" --out "$here/out" "$@"
