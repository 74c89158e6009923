#!/usr/bin/env bash
# Build the benchmark (and the `wmd` it spawns) from source, then run it.
# Run from the repository root:
#   bash jobbench/run.sh --workload sim-flat --seed 1 --seconds 10 --trace 0
# Cargo's progress goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path jobbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-jobbench/target}/release/jobbench" "$@"
