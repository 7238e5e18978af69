#!/usr/bin/env bash
# The benchmark's one entry command. Builds the package (offline, release)
# and runs it from the repo root:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
#       one workload; the last line of stdout is its result
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--smoke]
#       the suite: one process per workload -> benchmark/out/results.json
#   benchmark/run.sh compare A.json B.json
#
# `--trace 1` on a single workload runs the traced binary (same program,
# counting allocator installed); the suite picks the binaries itself.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

binary=dapsp-benchmark
previous=
for arg in "$@"; do
    if [[ $previous == --trace && $arg == 1 && " $* " == *" --workload "* ]]; then
        binary=dapsp-benchmark-traced
    fi
    previous=$arg
done
exec "$CARGO_TARGET_DIR/release/$binary" "$@"
