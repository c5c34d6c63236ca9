//! The virtual-clock gate: every `*_bench` report at smoke scale, made
//! in-process, must equal its golden in `tests/golden/` byte for byte.
//!
//! The reports are pure functions of (workload, seed, cost model), so there
//! is no tolerance: a planner, executor, routing or cost-model change that
//! moves any figure fails here with a line diff, and one that is meant to
//! move them re-blesses by running the bench binary with `--smoke` and
//! committing the golden's diff. The full-scale `BENCH_*.json` files at the
//! repository root are the same functions at `Scale::Full`.

use citrus_bench::{
    columnar_bench, figures_bench, rollup_bench, workloads_bench, Scale, EXECUTOR_THREADS,
};

const WORKLOADS: &str = include_str!("golden/BENCH_workloads_smoke.json");
const SNAPSHOT: &str = include_str!("golden/BENCH_snapshot_smoke.json");
const COLUMNAR: &str = include_str!("golden/BENCH_columnar_smoke.json");
const ROLLUP: &str = include_str!("golden/BENCH_rollup_smoke.json");
const FIGURES: &str = include_str!("golden/BENCH_figures_smoke.json");

/// String equality, reported as the lines that differ.
fn assert_golden(name: &str, fresh: &str, golden: &str) {
    if fresh == golden {
        return;
    }
    let mut diff = String::new();
    let (mut f, mut g) = (fresh.lines(), golden.lines());
    loop {
        match (f.next(), g.next()) {
            (None, None) => break,
            (a, b) if a == b => {}
            (a, b) => {
                diff += &format!("- {}\n+ {}\n", b.unwrap_or("<eof>"), a.unwrap_or("<eof>"));
            }
        }
    }
    panic!(
        "{name} differs from tests/golden/{name} (- golden, + this run):\n{diff}\
         re-bless a deliberate change by running the bench binary with --smoke"
    );
}

#[test]
fn workloads_and_snapshot_reports_equal_their_goldens() {
    let r = workloads_bench::report(Scale::Smoke, EXECUTOR_THREADS);
    assert_golden("BENCH_workloads_smoke.json", &r.workloads, WORKLOADS);
    assert_golden("BENCH_snapshot_smoke.json", &r.snapshot, SNAPSHOT);
    // snapshot tokens add no modelled cost: not within a tolerance, equal
    assert_eq!(r.snapshot_arms[1], r.snapshot_arms[0], "snapshot mode_on vs mode_off");
}

/// DESIGN.md §7 on the §4 numbers themselves: the executor's thread count
/// changes nothing but the header field that records it.
#[test]
fn workloads_report_does_not_depend_on_executor_threads() {
    let header = |threads: usize| format!("\"executor_threads\": {threads}}}");
    assert!(WORKLOADS.contains(&header(EXECUTOR_THREADS)));
    let r = workloads_bench::report(Scale::Smoke, 1);
    let golden_at_1 = WORKLOADS.replace(&header(EXECUTOR_THREADS), &header(1));
    assert_golden("BENCH_workloads_smoke.json", &r.workloads, &golden_at_1);
    assert_golden("BENCH_snapshot_smoke.json", &r.snapshot, SNAPSHOT);
}

#[test]
fn columnar_report_equals_its_golden_and_vectorized_wins() {
    let r = columnar_bench::report(Scale::Smoke);
    assert_golden("BENCH_columnar_smoke.json", &r.json, COLUMNAR);
    assert!(r.speedup > 1.0, "vectorized does not beat volcano: {:.3}x", r.speedup);
}

#[test]
fn rollup_report_equals_its_golden_and_incremental_wins() {
    let r = rollup_bench::report(Scale::Smoke);
    assert_golden("BENCH_rollup_smoke.json", &r.json, ROLLUP);
    assert!(r.speedup > 1.0, "incremental does not beat recompute: {:.3}x", r.speedup);
}

/// The paper's Tables 1–3 and Figures 6–10, and the orderings of them that
/// hold at smoke scale (the rest are asserted by the full run).
#[test]
fn figures_report_equals_its_golden_and_keeps_its_shapes() {
    let r = figures_bench::report(Scale::Smoke, EXECUTOR_THREADS);
    assert_golden("BENCH_figures_smoke.json", &r.json, FIGURES);
    let failed = r.failed_claims(Scale::Smoke);
    assert!(failed.is_empty(), "shapes not reproduced at smoke scale: {failed:?}");
}

#[test]
fn figures_report_does_not_depend_on_executor_threads() {
    let header = |threads: usize| format!("\"executor_threads\": {threads},");
    assert!(FIGURES.contains(&header(EXECUTOR_THREADS)));
    let r = figures_bench::report(Scale::Smoke, 1);
    let golden_at_1 = FIGURES.replace(&header(EXECUTOR_THREADS), &header(1));
    assert_golden("BENCH_figures_smoke.json", &r.json, &golden_at_1);
}
