#!/usr/bin/env bash
# Build pgmine and the benchmark from source, then run the benchmark.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#        bash perfbench/run.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The machine is shared: cap every process of the run at 6 GiB of address
# space, so a mine whose pattern set explodes fails instead of exhausting
# memory. The flex_mine mine peaks near 2.5 GB resident.
ulimit -v $((6 * 1024 * 1024))
cargo build --release --quiet -p perigap-cli --bin pgmine >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --pgmine "$CARGO_TARGET_DIR/release/pgmine" "$@"
