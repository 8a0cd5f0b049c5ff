#!/usr/bin/env bash
# Builds the release `harmonyd` and the benchmark package, then runs the
# benchmark. Run from the root of the repository (or of a checkout of it).
#
#   benchmark/run.sh [--seed N] [--smoke]    all four workloads, then the traced pass
#   benchmark/run.sh --aa [--runs N]         two interleaved sets of N seeds; writes benchmark/AA.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; the last line of output is the result object
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f BENCHMARK.json ]]; then
    echo "benchmark/run.sh: run from the repository root (Cargo.toml and BENCHMARK.json expected here)" >&2
    exit 3
fi

# One target directory for both builds, inside the checkout; a relative
# CARGO_TARGET_DIR is made absolute because cargo resolves it against the
# directory it runs in.
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr so that standard output ends with the result.
cargo build --release --offline -p harmony-proto --bin harmonyd 1>&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/e2e" --harmonyd "$target/release/harmonyd" "$@"
