#!/usr/bin/env sh
# Tier-1 CI gate: build, the full test suite, a warnings-as-errors pass
# over every target of the workspace and one run of the wall-clock
# benchmark. Each clock has one home: virtual-time figures are gated inside
# step 2, wall-clock numbers come from step 4's program and nowhere else.
#
#   1. release build of the whole workspace
#   2. full test suite (quiet): `cargo test -q` at the root runs every
#      crate's unit and integration tests, because the root manifest's
#      `default-members` is the whole workspace. There is no filter to skip
#      a test by. The figure gate among them (crates/bench/tests/figures.rs)
#      holds the smoke reports to the five goldens in
#      crates/bench/tests/golden/ byte for byte; BENCH_<name>_smoke.json
#      re-blesses with
#      `cargo run --release -p citrus-bench --bin <name>_bench -- --smoke`
#      for `figures`, `columnar` and `rollup`, and the `workloads` binary
#      writes both BENCH_workloads_smoke.json and BENCH_snapshot_smoke.json.
#      The benchmark crate is a package outside the workspace, so its unit
#      tests run in a second command, `cargo test --release --offline -q
#      --manifest-path benchmark/Cargo.toml`
#   3. the whole workspace must compile warning-free, every target included
#      (tests, examples and binaries), and so must the benchmark package,
#      which sits outside the workspace; the workspace's library code must
#      also pass clippy with no warning (test targets stay outside that
#      gate), and the library code of the five crates that serve statements
#      (`sqlparse`, `netsim`, `pgmini`, `citrus`, `workloads`) must hold no
#      `unwrap`, `expect`, `panic!` or `unreachable!` but at an item that
#      allows one and names its invariant: the panic ratchet
#   4. the wall-clock benchmark (benchmark/, see BENCHMARK.json) for all
#      five workloads at --seconds 1: `dtxn_wire` and `tpcc` through the
#      commit protocol, with and without real wire time; `ycsb_a`, which runs
#      almost entirely from the workers' warm plan caches; `tpch` and `rta`,
#      the two that plan pushdowns and an INSERT..SELECT (`tpch` plans one
#      subplan, Q22's NOT IN under a reference table; Q4, Q18 and Q21 are
#      co-located semi-joins and push down whole). No timing
#      is gated; the run must pass its correctness check with no failed
#      operation
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

echo "==> [1/4] cargo build --release"
cargo build --release

echo "==> [2/4] cargo test -q (whole workspace; sim chaos corpus: ${SIM_SEEDS} seeds)"
CITRUS_SIM_SEEDS="$SIM_SEEDS" cargo test -q
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> [3/4] warnings-as-errors check of every workspace target and the benchmark, clippy on library code"
RUSTFLAGS="-Dwarnings" cargo check --workspace --all-targets
RUSTFLAGS="-Dwarnings" cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
cargo clippy --workspace --lib -- -D warnings
cargo clippy -p sqlparse -p netsim -p pgmini -p citrus -p workloads --lib -- -D warnings \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -D clippy::unreachable

echo "==> [4/4] wall-clock benchmark: all five workloads, correctness only"
for workload in dtxn_wire tpcc ycsb_a tpch rta; do
    result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "benchmark $workload: wrong output or failed operations" >&2; exit 1 ;;
    esac
done

echo "==> CI green"
