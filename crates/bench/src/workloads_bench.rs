//! The body of the `workloads_bench` binary (its module doc says what is
//! measured and why): the `BENCH_workloads` and `BENCH_snapshot` reports
//! for one [`Scale`], as text, so `tests/figures.rs` can run the smoke scale
//! in-process.

use crate::{solve_closed_loop, Scale};
use workloads::patterns::Pattern;
use workloads::sim::{self, SimScales};

/// Concurrent clients of the closed-loop model.
pub const CLIENTS: u32 = 64;

pub struct Report {
    /// `BENCH_workloads.json` / `BENCH_workloads_smoke.json`.
    pub workloads: String,
    /// `BENCH_snapshot.json` / `BENCH_snapshot_smoke.json`.
    pub snapshot: String,
    /// Both arms of every pattern, in `Pattern::ALL` order.
    pub patterns: Vec<sim::PatternBench>,
    /// The snapshot report's `mode_off` and `mode_on` arms as rendered.
    pub snapshot_arms: [String; 2],
}

/// Closed-loop throughput (units/sec) at [`CLIENTS`] clients for one arm, from
/// the measured per-unit demand profile. This is where distribution pays off:
/// the serial `units_per_vsec` stream charges every unit the full
/// cluster round trip, but at bench scale (many concurrent clients) the
/// bottleneck is per-node capacity, which the 4-worker cluster quadruples.
pub fn closed_loop(a: &sim::ArmStats) -> f64 {
    let demand = a.demand.mean(a.units);
    let nodes: Vec<u32> = demand.per_node.keys().map(|n| n.0).collect();
    solve_closed_loop(&demand, &nodes, CLIENTS, 0.0).throughput_per_sec
}

fn key(p: Pattern) -> &'static str {
    match p {
        Pattern::MultiTenant => "multi_tenant",
        Pattern::RealTimeAnalytics => "real_time_analytics",
        Pattern::HighPerformanceCrud => "high_performance_crud",
        Pattern::DataWarehousing => "data_warehousing",
    }
}

pub fn report(scale: Scale, threads: usize) -> Report {
    let smoke = scale.is_smoke();
    let seed = 42u64;
    // Full runs use enough units per arm that one-time costs (cold plan per
    // shape per worker, first-touch buffer-pool io per shard) amortize and
    // the numbers reflect steady state; 40 units under-reported the
    // distributed arm by ~4x on point-op workloads.
    let units: u64 = if smoke { 5 } else { 1000 };
    let (workers, shards) = (4u32, 16u32);
    let scales = SimScales::default();

    let mut patterns = Vec::new();
    let mut sections = Vec::new();
    for p in Pattern::ALL {
        eprintln!("==> {} ({} units/arm)", p.name(), units);
        let b = sim::bench_pattern(p, &scales, seed, units, workers, shards, threads)
            .unwrap_or_else(|e| panic!("bench of {p:?} failed: {e:?}"));
        let arm = |label: &str, a: &sim::ArmStats| {
            format!(
                "    \"{label}\": {{\"units\": {}, \"statements\": {}, \
                 \"virtual_ms\": {:.3}, \"units_per_vsec\": {:.3}, \
                 \"units_per_sec_{CLIENTS}_clients\": {:.3}, \
                 \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}",
                a.units, a.statements, a.virtual_ms, a.throughput_per_vsec,
                closed_loop(a), a.p50_ms, a.p95_ms, a.p99_ms
            )
        };
        eprintln!(
            "    dist {:.1} units/vsec (p95 {:.2}ms) vs single {:.1} units/vsec (p95 {:.2}ms)",
            b.distributed.throughput_per_vsec,
            b.distributed.p95_ms,
            b.single_node.throughput_per_vsec,
            b.single_node.p95_ms
        );
        eprintln!(
            "    at {CLIENTS} clients: dist {:.0} units/sec vs single {:.0} units/sec",
            closed_loop(&b.distributed),
            closed_loop(&b.single_node)
        );
        sections.push(format!(
            "  \"{}\": {{\n    \"benchmark\": \"{}\",\n{},\n{}\n  }}",
            key(p),
            p.benchmark(),
            arm("distributed", &b.distributed),
            arm("single_node", &b.single_node)
        ));
        patterns.push(b);
    }

    let workloads = format!(
        "{{\n  \"bench\": \"workloads\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"units_per_arm\": {units},\n  \"cluster\": {{\"workers\": {workers}, \
         \"shards\": {shards}, \"executor_threads\": {threads}}},\n{}\n}}\n",
        sections.join(",\n")
    );

    // Snapshot-isolation overhead artifact: the token-heaviest pattern
    // (point-op CRUD, every read carries a token) mode-off vs mode-on on
    // the identical stream. The mode-off arm is the pattern's run above. On
    // the virtual clock the two are byte-identical (the clock draw and
    // registry publish are not modelled costs), which `tests/figures.rs`
    // asserts.
    let p = Pattern::HighPerformanceCrud;
    eprintln!("==> snapshot-isolation overhead ({} units/arm)", units);
    let off = patterns.iter().find(|b| b.pattern == p).expect("CRUD is in Pattern::ALL");
    let on = sim::bench_pattern_snapshot_isolation(p, &scales, seed, units, workers, shards, threads)
        .unwrap_or_else(|e| panic!("mode-on bench failed: {e:?}"));
    eprintln!(
        "    mode off {:.1} units/vsec vs mode on {:.1} units/vsec",
        off.distributed.throughput_per_vsec, on.distributed.throughput_per_vsec
    );
    let si_arm = |a: &sim::ArmStats| {
        format!(
            "{{\"units\": {}, \"virtual_ms\": {:.3}, \"units_per_vsec\": {:.3}, \
             \"p95_ms\": {:.4}}}",
            a.units, a.virtual_ms, a.throughput_per_vsec, a.p95_ms
        )
    };
    let snapshot_arms = [si_arm(&off.distributed), si_arm(&on.distributed)];
    let snapshot = format!(
        "{{\n  \"bench\": \"snapshot_isolation_overhead\",\n  \"smoke\": {smoke},\n  \
         \"seed\": {seed},\n  \"pattern\": \"{}\",\n  \"units_per_arm\": {units},\n  \
         \"mode_off\": {},\n  \"mode_on\": {}\n}}\n",
        p.benchmark(),
        snapshot_arms[0],
        snapshot_arms[1]
    );
    Report { workloads, snapshot, patterns, snapshot_arms }
}
