#!/usr/bin/env bash
# Builds gca-cc and bench_e2e from the repository's workspace into one
# target directory, then runs bench_e2e with the given arguments. Run from
# the repository root:
#
#   bash crates/bench/src/bin/bench_e2e/run.sh --workload cli-dense-1024 --seed 1
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

root="$(dirname "$0")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p gca-cli --bin gca-cc -p gca-bench --bin bench_e2e >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
