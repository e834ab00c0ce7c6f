#!/usr/bin/env bash
# Builds the `slotsel` daemon and the serving benchmark from source, then
# runs the benchmark. Run it from the repository root:
#
#   bash servebench/run.sh --workload steady --seed 1 --seconds 15 --trace 0
#
# Every flag is passed to `serve-bench` (see servebench/SERVE_BENCH.md).
# Build outputs go to $CARGO_TARGET_DIR (default `target`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --bin slotsel
cargo build --release --quiet --offline --manifest-path servebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/serve-bench" --slotsel "$CARGO_TARGET_DIR/release/slotsel" "$@"
