//! Vectorized columnar execution bench: the batched scan→filter→aggregate
//! path vs the row-at-a-time volcano path, on otherwise identical clusters.
//!
//! Loads the columnar TPC-H fact tables at a fixed scale factor, then runs
//! the scan-heavy aggregate shapes (Q1, Q6, plus filtered-aggregate
//! variants) through the distributed fan-out with `vectorized` on and off.
//! All numbers are virtual-time (the deterministic cost model), so the
//! output is byte-reproducible for a given seed; wall-clock numbers live
//! only in `benchmark/`. Emits `BENCH_columnar.json`.
//!
//! Run with `cargo run --release -p citrus-bench --bin columnar_bench` from
//! the repository root: scale factor 0.01 and 10 repetitions. `--smoke` runs
//! 0.002 and 2 and rewrites the golden
//! `crates/bench/tests/golden/BENCH_columnar_smoke.json`, which `cargo test`
//! (`tests/figures.rs`) compares byte for byte with an in-process smoke run
//! — running with `--smoke` and committing the diff is the whole re-bless
//! procedure. The full run asserts the tentpole target: vectorized
//! `units_per_vsec` at least 3x the volcano arm. Smoke only requires
//! vectorized to win, which the test asserts.

use citrus_bench::{columnar_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    let r = columnar_bench::report(scale);
    scale.write("columnar", &r.json);
    assert!(
        scale.is_smoke() || r.speedup >= 3.0,
        "vectorized speedup {:.2}x below the 3x target",
        r.speedup
    );
}
