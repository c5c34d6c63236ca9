//! The §4 evaluation: every usage-pattern workload (Table 3) run as the
//! identical seeded unit stream on a distributed cluster and on a single
//! pgmini node, via the simulation harness's fault-free bench mode. Emits
//! `BENCH_workloads.json` with per-arm unit throughput (units per virtual
//! second) and per-statement virtual-latency percentiles.
//!
//! All numbers are virtual-time (the deterministic cost model), so the
//! output is byte-reproducible for a given seed — this is the §4 figure
//! data, not a wall-clock benchmark (`benchmark/` covers that).
//!
//! Run with `scripts/bench.sh workloads [--smoke]`. `--smoke` shrinks the
//! unit counts for CI (5 units per arm instead of 1000; `CITRUS_BENCH_UNITS`
//! overrides either) and writes `BENCH_workloads_smoke.json` and
//! `BENCH_snapshot_smoke.json`, the committed CI regression baselines;
//! thresholds only apply to the full run: every pattern must complete both
//! arms and report non-zero throughput.

use citrus_bench::{solve_closed_loop, MeanDemand};
use workloads::patterns::Pattern;
use workloads::sim::{self, SimScales};

/// Closed-loop multi-client throughput (units/sec) for one arm, from the
/// measured per-unit demand profile. This is where distribution pays off:
/// the serial `units_per_vsec` stream charges every unit the full
/// cluster round trip, but at bench scale (many concurrent clients) the
/// bottleneck is per-node capacity, which the 4-worker cluster quadruples.
fn closed_loop(a: &sim::ArmStats, clients: u32) -> f64 {
    let units = a.units.max(1) as f64;
    let demand = MeanDemand {
        per_node: a
            .per_node_ms
            .iter()
            .map(|&(n, cpu, io)| (n, cpu / units, io / units))
            .collect(),
        net_ms: a.net_ms / units,
        elapsed_ms: a.virtual_ms / units,
    };
    let nodes: Vec<u32> = demand.per_node.iter().map(|&(n, _, _)| n).collect();
    if std::env::var("CITRUS_BENCH_DEMAND").is_ok() {
        eprintln!("      demand/unit: {:?} net={:.4}", demand.per_node, demand.net_ms);
    }
    solve_closed_loop(&demand, &nodes, 16, clients, 0.0).throughput_per_sec
}

fn key(p: Pattern) -> &'static str {
    match p {
        Pattern::MultiTenant => "multi_tenant",
        Pattern::RealTimeAnalytics => "real_time_analytics",
        Pattern::HighPerformanceCrud => "high_performance_crud",
        Pattern::DataWarehousing => "data_warehousing",
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 42u64;
    // Full runs use enough units per arm that one-time costs (cold plan per
    // shape per worker, first-touch buffer-pool io per shard) amortize and
    // the numbers reflect steady state; 40 units under-reported the
    // distributed arm by ~4x on point-op workloads.
    let units: u64 = std::env::var("CITRUS_BENCH_UNITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 5 } else { 1000 });
    let (workers, shards, threads) = (4u32, 16u32, 4usize);
    let scales = SimScales::default();

    let mut sections = Vec::new();
    for p in Pattern::ALL {
        eprintln!("==> {} ({} units/arm)", p.name(), units);
        let b = sim::bench_pattern(p, &scales, seed, units, workers, shards, threads)
            .unwrap_or_else(|e| panic!("bench of {p:?} failed: {e:?}"));
        let clients = 64u32;
        let arm = |label: &str, a: &sim::ArmStats| {
            format!(
                "    \"{label}\": {{\"units\": {}, \"statements\": {}, \
                 \"virtual_ms\": {:.3}, \"units_per_vsec\": {:.3}, \
                 \"units_per_sec_{clients}_clients\": {:.3}, \
                 \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}",
                a.units, a.statements, a.virtual_ms, a.throughput_per_vsec,
                closed_loop(a, clients), a.p50_ms, a.p95_ms, a.p99_ms
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
            "    at {clients} clients: dist {:.0} units/sec vs single {:.0} units/sec",
            closed_loop(&b.distributed, clients),
            closed_loop(&b.single_node, clients)
        );
        if !smoke {
            assert!(b.distributed.throughput_per_vsec > 0.0, "{p:?}: dist arm idle");
            assert!(b.single_node.throughput_per_vsec > 0.0, "{p:?}: single arm idle");
            // The tentpole target: with the RTT tax gone (pipelining + MX
            // routing), the cluster's aggregate capacity beats one node at
            // bench scale on every §4 pattern, including the latency-bound
            // TPC-C and YCSB workloads it used to lose by >10x.
            let (d, s) =
                (closed_loop(&b.distributed, clients), closed_loop(&b.single_node, clients));
            assert!(
                d > s,
                "{p:?}: distributed {d:.0} units/sec does not beat single-node {s:.0} at \
                 {clients} clients"
            );
        }
        sections.push(format!(
            "  \"{}\": {{\n    \"benchmark\": \"{}\",\n{},\n{}\n  }}",
            key(p),
            p.benchmark(),
            arm("distributed", &b.distributed),
            arm("single_node", &b.single_node)
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"workloads\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"units_per_arm\": {units},\n  \"cluster\": {{\"workers\": {workers}, \
         \"shards\": {shards}, \"executor_threads\": {threads}}},\n{}\n}}\n",
        sections.join(",\n")
    );
    // Smoke runs write their own artifact: it doubles as the committed CI
    // regression baseline (all fields here are virtual-time, so the smoke
    // artifact is byte-deterministic) and must not clobber the full-run
    // figure data.
    let out = if smoke { "BENCH_workloads_smoke.json" } else { "BENCH_workloads.json" };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{json}");

    // Snapshot-isolation overhead artifact: the token-heaviest pattern
    // (point-op CRUD, every read carries a token) mode-off vs mode-on on
    // the identical stream. The regression gate holds mode-on within 10%
    // of mode-off; on the virtual clock the two should be byte-identical
    // (the clock draw and registry publish are not modelled costs).
    let p = Pattern::HighPerformanceCrud;
    eprintln!("==> snapshot-isolation overhead ({} units/arm)", units);
    let off = sim::bench_pattern(p, &scales, seed, units, workers, shards, threads)
        .unwrap_or_else(|e| panic!("mode-off bench failed: {e:?}"));
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
    let si_json = format!(
        "{{\n  \"bench\": \"snapshot_isolation_overhead\",\n  \"smoke\": {smoke},\n  \
         \"seed\": {seed},\n  \"pattern\": \"{}\",\n  \"units_per_arm\": {units},\n  \
         \"mode_off\": {},\n  \"mode_on\": {}\n}}\n",
        p.benchmark(),
        si_arm(&off.distributed),
        si_arm(&on.distributed)
    );
    let si_out = if smoke { "BENCH_snapshot_smoke.json" } else { "BENCH_snapshot.json" };
    std::fs::write(si_out, &si_json).unwrap_or_else(|e| panic!("write {si_out}: {e}"));
    println!("{si_json}");
}
