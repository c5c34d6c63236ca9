//! The §4 evaluation: every usage-pattern workload (Table 3) run as the
//! identical seeded unit stream on a distributed cluster and on a single
//! pgmini node, via the simulation harness's fault-free bench mode. Emits
//! `BENCH_workloads.json` with per-arm unit throughput (units per virtual
//! second) and per-statement virtual-latency percentiles, and
//! `BENCH_snapshot.json`, the snapshot-isolation mode-off vs mode-on
//! overhead on the point-op CRUD pattern.
//!
//! All numbers are virtual-time (the deterministic cost model), so the
//! output is byte-reproducible for a given seed — this is the §4 figure
//! data, not a wall-clock benchmark (`benchmark/` is the only home of
//! those).
//!
//! Run with `cargo run --release -p citrus-bench --bin workloads_bench`
//! from the repository root: 1000 units per arm. `--smoke` runs 5 and
//! rewrites the goldens `crates/bench/tests/golden/BENCH_workloads_smoke.json`
//! and `BENCH_snapshot_smoke.json`, which `cargo test` (`tests/figures.rs`)
//! compares byte for byte with an in-process smoke run — running with
//! `--smoke` and committing the diff is the whole re-bless procedure.
//! Thresholds only apply to the full run: every pattern must complete both
//! arms, report non-zero throughput and beat one node at 64 clients.

use citrus_bench::workloads_bench::{closed_loop, report, CLIENTS};
use citrus_bench::{Scale, EXECUTOR_THREADS};

fn main() {
    let scale = Scale::from_args();
    let r = report(scale, EXECUTOR_THREADS);
    scale.write("workloads", &r.workloads);
    scale.write("snapshot", &r.snapshot);
    if scale.is_smoke() {
        return;
    }
    for b in &r.patterns {
        let p = b.pattern;
        assert!(b.distributed.throughput_per_vsec > 0.0, "{p:?}: dist arm idle");
        assert!(b.single_node.throughput_per_vsec > 0.0, "{p:?}: single arm idle");
        // The tentpole target: with the RTT tax gone (pipelining + MX
        // routing), the cluster's aggregate capacity beats one node at
        // bench scale on every §4 pattern, including the latency-bound
        // TPC-C and YCSB workloads it used to lose by >10x.
        let (d, s) = (closed_loop(&b.distributed), closed_loop(&b.single_node));
        assert!(
            d > s,
            "{p:?}: distributed {d:.0} units/sec does not beat single-node {s:.0} at \
             {CLIENTS} clients"
        );
    }
}
