#!/usr/bin/env bash
# Builds the service binary and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Cargo's target directory is CARGO_TARGET_DIR when set, else `target`.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/service ]]; then
    echo "perfbench: run from the repository root (crates/service not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p uprov-service --bin uprov-service >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_SERVER="$target/release/uprov-service"
exec "$target/release/perfbench" "$@"
