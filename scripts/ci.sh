#!/usr/bin/env sh
# Tier-1 CI gate. Mirrors what the driver runs, plus a warnings-as-errors
# pass over the paper-contribution crate, the bench smokes and one run of
# the wall-clock benchmark.
#
#   1. release build of the whole workspace
#   2. full test suite (quiet). The root manifest's `default-members` is the
#      whole workspace, so this one command runs every suite (~500 tests):
#      fault injection, parallel-executor equivalence, the pipelining /
#      wire-round wall, trace goldens + the differential oracle, the
#      vectorized wall, rebalancer crash drills, the snapshot-isolation
#      anomaly wall, MX fence drills, the rollup recompute differential and
#      the seeded sim chaos corpus. There is no filter to skip one by.
#   3. crates/core must compile warning-free (tests included)
#   4. one-iteration smoke of each crates/bench bench, no thresholds:
#      `executor` (the wall-clock fan-out and plan-cache paths end to end),
#      `workloads` (the §4 evaluation; also writes the snapshot-isolation
#      mode-off vs mode-on overhead artifact; the distributed
#      real-time-analytics arm serves its dashboard from the incrementally
#      maintained commit rollup), `columnar` (vectorized vs volcano) and
#      `rollup` (incremental vs recompute)
#   5. bench regression gate: the smoke artifacts' virtual-time numbers are
#      deterministic, so they are compared against the committed
#      BENCH_*_smoke.json baselines — TPC-C / YCSB / columnar-vectorized
#      units_per_vsec must not regress more than 10%, the warm plan-cache arm
#      must stay cheaper than cold (and a warm worker plan cheaper than
#      planning, on the wall clock), the vectorized columnar arm must beat
#      volcano on the virtual clock, and snapshot isolation must cost
#      nothing when off (mode-off vs committed baseline) and <=10% when on
#      (mode-on vs fresh mode-off); the incremental rollup arm must beat
#      recompute and not regress more than 10% against its baseline
#   6. the wall-clock benchmark (benchmark/, see BENCHMARK.json) for
#      `dtxn_wire`, `tpcc` and `ycsb_a` at --seconds 1: the two workloads
#      through the commit protocol, with and without real wire time, and the
#      one that runs almost entirely from the workers' warm plan caches. No
#      timing is gated; the run must pass its correctness check with no
#      failed operation
#
# Usage: scripts/ci.sh [--long]
#   --long   widen the sim chaos corpus (CITRUS_SIM_SEEDS=60; default 25)
set -eu

cd "$(dirname "$0")/.."

SIM_SEEDS=25
for arg in "$@"; do
    case "$arg" in
        --long) SIM_SEEDS=60 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> [1/6] cargo build --release"
cargo build --release

echo "==> [2/6] cargo test -q (whole workspace; sim chaos corpus: ${SIM_SEEDS} seeds)"
CITRUS_SIM_SEEDS="$SIM_SEEDS" cargo test -q

echo "==> [3/6] warnings-as-errors check of crates/core"
RUSTFLAGS="-Dwarnings" cargo check -p citrus --all-targets

echo "==> [4/6] bench smokes"
for bench in executor workloads columnar rollup; do
    sh scripts/bench.sh "$bench" --smoke
done

echo "==> [5/6] bench regression gate (vs committed smoke baselines)"
python3 scripts/check_bench_regression.py

echo "==> [6/6] wall-clock benchmark: dtxn_wire, tpcc and ycsb_a, correctness only"
for workload in dtxn_wire tpcc ycsb_a; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "benchmark $workload: wrong output or failed operations" >&2; exit 1 ;;
    esac
done

echo "==> CI green"
