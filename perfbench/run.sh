#!/usr/bin/env bash
# Builds the production `ftd` binary and the benchmark harness from source,
# then runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 20
#
# Build output goes to stderr so the last stdout line stays the JSON result.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --locked --quiet --manifest-path Cargo.toml --bin ftd >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --ftd "$target/release/ftd" "$@"
