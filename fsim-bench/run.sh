#!/usr/bin/env bash
# Builds `fsim` and `fsim-bench` from source, then runs the benchmark with
# the given arguments. Run it from the repository root:
#
#   bash fsim-bench/run.sh --workload stuck-large --seed 3 --seconds 10 --trace 0
#
# Both binaries land in the same cargo target directory, where
# `fsim-bench` finds `fsim` next to itself.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p cfs-cli --bin fsim >&2
cargo build --offline --release --quiet --manifest-path fsim-bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fsim-bench" "$@"
