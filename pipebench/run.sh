#!/usr/bin/env bash
# Builds the release `llstar` binary and the benchmark from this
# checkout, then runs the benchmark with the given arguments, e.g.
#   bash pipebench/run.sh --workload java8-corpus --seed 7 --seconds 10 --trace 0
#   bash pipebench/run.sh --self-check
# Build output goes to stderr, so the benchmark's JSON result stays the
# last line of stdout. Everything is written under $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet -p llstar --bin llstar >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pipebench" \
    --llstar "$CARGO_TARGET_DIR/release/llstar" \
    --out "$CARGO_TARGET_DIR/pipebench" \
    "$@"
