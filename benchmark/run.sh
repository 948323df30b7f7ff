#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload in one
# process:
#
#   benchmark/run.sh --workload investigate|serve|ingest \
#       [--seed N] [--seconds S] [--trace 0|1] [--smoke 0|1]
#
# Build output goes to standard error; the metrics go to standard output,
# the last line being the JSON result. Everything written — the build, the
# store directories, the span file of a traced run — stays under
# $CARGO_TARGET_DIR (default: target), relative to the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/aiql-benchmark" \
    --work-dir "$CARGO_TARGET_DIR/aiql-bench-work" "$@"
