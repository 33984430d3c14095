#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds into $CARGO_TARGET_DIR (default perfbench/target), relative to
# the repository root. See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
