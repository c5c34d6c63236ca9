//! Incremental rollup maintenance bench: serving a grouped dashboard from an
//! incrementally maintained rollup vs recomputing the defining aggregate on
//! every read.
//!
//! Both arms load the same source table, then run identical rounds of
//! (batch-insert fresh rows, serve the dashboard). The incremental arm serves
//! by draining the changefeed into the rollup (`citrus_refresh_rollup`) and
//! reading the rollup table; the recompute arm runs the defining GROUP BY
//! query over the whole source table. Only the serving statements are timed —
//! the insert batches are identical by construction and excluded. All numbers
//! are virtual-time (the deterministic cost model), so the output is
//! byte-reproducible; wall-clock numbers live only in `benchmark/`. Emits
//! `BENCH_rollup.json`.
//!
//! Run with `cargo run --release -p citrus-bench --bin rollup_bench` from the
//! repository root: 20k base rows and 10 rounds. `--smoke` runs 6k and 4 and
//! rewrites the golden `crates/bench/tests/golden/BENCH_rollup_smoke.json`,
//! which `cargo test` (`tests/figures.rs`) compares byte for byte with an
//! in-process smoke run — running with `--smoke` and committing the diff is
//! the whole re-bless procedure. The full run asserts the tentpole target:
//! incremental `units_per_vsec` at least 3x the recompute arm. Smoke only
//! requires incremental to win, which the test asserts.

use citrus_bench::{rollup_bench, Scale};

fn main() {
    let scale = Scale::from_args();
    let r = rollup_bench::report(scale);
    scale.write("rollup", &r.json);
    assert!(
        scale.is_smoke() || r.speedup >= 3.0,
        "incremental speedup {:.2}x below the 3x target",
        r.speedup
    );
}
