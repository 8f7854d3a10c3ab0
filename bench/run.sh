#!/usr/bin/env bash
# The benchmark's one entry point. Run from the repository root:
#
#   bash bench/run.sh --workload kv-mem --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --smoke                 # every workload, 2 s, no gating
#   bash bench/run.sh repeat --runs 5         # the repeatability tool
#   bash bench/run.sh describe                # workload and metric names
#
# Builds bench/ (a package of its own, offline) and hands the arguments
# to the binary. Build output goes to stderr; the last line of stdout is
# the result object. Everything written lands under bench/out/ (or
# $CARGO_TARGET_DIR for the build).
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out_dir="$bench_dir/out"

# CARGO_TARGET_DIR may be relative to the caller's directory, so the
# build runs from there; only the manifest path is absolute.
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$bench_dir/target}/release/e2e-bench"

# WAL directories and ledger scratch files go where
# std::env::temp_dir() points: inside the checkout.
mkdir -p "$out_dir/tmp"
export TMPDIR="$out_dir/tmp"

if [[ "${1:-}" == "--smoke" ]]; then
    for workload in kv-mem kv-batched kv-durable dlog-multi; do
        for trace in 0 1; do
            "$bin" --workload "$workload" --seed 1 --seconds 2 --trace "$trace" --out "$out_dir" | tail -n 1
        done
    done
    exit 0
fi

exec "$bin" "$@" --out "$out_dir"
