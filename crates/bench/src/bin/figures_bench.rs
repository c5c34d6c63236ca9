//! The paper's §4 evaluation: Tables 1–3 and Figures 6–10 (TPC-C, real-time
//! analytics, TPC-H, 1PC vs 2PC, YCSB), PostgreSQL against Citus 0+1, 4+1
//! and 8+1. All numbers are virtual time (the deterministic cost model), so
//! the output is byte-reproducible; wall-clock numbers live only in
//! `benchmark/`. Emits `BENCH_figures.json`.
//!
//! Run with `cargo run --release -p citrus-bench --bin figures_bench` from
//! the repository root. `--smoke` runs every figure smaller and rewrites the
//! golden `crates/bench/tests/golden/BENCH_figures_smoke.json`, which
//! `cargo test` (`tests/figures.rs`) compares byte for byte with an
//! in-process smoke run — running with `--smoke` and committing the diff is
//! the whole re-bless procedure. Both scales assert the orderings
//! EXPERIMENTS.md calls reproduced; the ones too close to call at smoke
//! scale (`Report::failed_claims`) only on the full run. Workload sizes are
//! `Scale::Full` / `Scale::Smoke` in `src/figures_bench.rs`.

use citrus_bench::{figures_bench, Scale, EXECUTOR_THREADS};

fn main() {
    let scale = Scale::from_args();
    let r = figures_bench::report(scale, EXECUTOR_THREADS);
    scale.write("figures", &r.json);
    let failed = r.failed_claims(scale);
    assert!(failed.is_empty(), "shapes not reproduced: {failed:?}");
}
