#!/usr/bin/env bash
# Build the daemon and the ledger from this checkout, then run one
# workload. All arguments go to the ledger, e.g.
#
#   bash ledger/run.sh --workload serve-cached --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); run files go to .bench_run at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p objectrunner-serve --bin objectrunner-serve
cargo build --release --quiet --manifest-path "$root/ledger/Cargo.toml"

exec "$CARGO_TARGET_DIR/release/ledger" --root "$root" "$@"
