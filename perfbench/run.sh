#!/usr/bin/env bash
# Builds `soct` and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload sl-large|l-dstar|serve-mix --seed N \
#        --seconds S --trace 0|1 [--heldout-seed N]
#
# Run from anywhere inside a checkout; build output goes to
# $CARGO_TARGET_DIR (default .bench_build), traces to .bench_out.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p soct_cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/soct-perfbench" \
    --soct "$CARGO_TARGET_DIR/release/soct" --out-dir .bench_out "$@"
