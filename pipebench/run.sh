#!/usr/bin/env bash
# Build the `pkgm` CLI and the benchmark from source, then run one workload.
#
#   bash pipebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); the last stdout line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pkgm-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/pipebench" --pkgm "$CARGO_TARGET_DIR/release/pkgm" "$@"
