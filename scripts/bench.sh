#!/usr/bin/env sh
# Build one of the crates/bench benches in release mode and run it. Emits
# BENCH_<name>.json in the repo root, or, with --smoke (reduced scale, no
# thresholds), BENCH_<name>_smoke.json — the committed baselines that
# scripts/check_bench_regression.py compares against in CI. What a bench
# measures, its scale knobs and its thresholds are in the module doc of
# crates/bench/src/bin/<name>_bench.rs.
#
# Usage: scripts/bench.sh <executor|workloads|columnar|rollup> [--smoke]
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
    executor | workloads | columnar | rollup) name=$1; shift ;;
    *) echo "usage: $0 <executor|workloads|columnar|rollup> [--smoke]" >&2; exit 2 ;;
esac

echo "==> build $name bench (release)"
cargo build --release -p citrus-bench --bin "${name}_bench"

echo "==> run $name bench $*"
"./target/release/${name}_bench" "$@"

case " $* " in
    *" --smoke "*) echo "==> wrote BENCH_${name}_smoke.json" ;;
    *) echo "==> wrote BENCH_${name}.json" ;;
esac
