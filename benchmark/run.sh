#!/usr/bin/env bash
# Build the benchmark, then run every workload — each run in a process of its
# own, untraced runs first, one traced run after — and merge the results into
# benchmark/out/results.json. Arguments go to `tbmd-benchmark --all`
# (--seed N, --seconds S, --runs R, --json FILE); `--compare PARENT.json
# CHANGE.json` holds two merged files against the bounds instead.
set -euo pipefail

# The repository root: .cargo/config.toml (target-cpu=native) applies from
# here, and `benchmark/out` resolves against it.
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/tbmd-benchmark"

if [ "${1:-}" = "--compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" --all --json benchmark/out/results.json "$@"
