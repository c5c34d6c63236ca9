//! Ablation micro-benchmarks for the design choices DESIGN.md calls out.
//! These measure *real* wall time of the implementation's components (unlike
//! the `*_bench` reports, which are virtual time).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_cluster(shards: u32, workers: u32) -> Arc<citrus::cluster::Cluster> {
    let mut cfg = citrus::cluster::ClusterConfig::default();
    cfg.shard_count = shards;
    let c = citrus::cluster::Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("CREATE TABLE u (k bigint PRIMARY KEY, w bigint)").unwrap();
    s.execute("SELECT create_distributed_table('u', 'k', 't')").unwrap();
    c
}

/// Per-tier planning overhead: the reason citrus iterates planners from
/// cheapest to most expensive (§3.5).
fn planner_tiers(c: &mut Criterion) {
    let cluster = bench_cluster(32, 2);
    let meta = cluster.metadata.read().clone();
    let node = citrus::metadata::NodeId(0);
    struct NoSubplans;
    impl citrus::planner::SubplanExecutor for NoSubplans {
        fn run_distributed_subquery(
            &mut self,
            _sel: &sqlparse::ast::Select,
        ) -> pgmini::error::PgResult<Vec<pgmini::types::Row>> {
            Ok(Vec::new())
        }
    }
    let fast = sqlparse::parse("SELECT v FROM t WHERE k = 42").unwrap();
    let router =
        sqlparse::parse("SELECT t.v, u.w FROM t JOIN u ON t.k = u.k WHERE t.k = 42").unwrap();
    let pushdown =
        sqlparse::parse("SELECT k % 10, count(*), avg(v) FROM t GROUP BY 1 ORDER BY 2 DESC")
            .unwrap();
    let mut group = c.benchmark_group("planner_tiers");
    for (name, stmt) in [("fast_path", &fast), ("router", &router), ("pushdown", &pushdown)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                citrus::planner::plan_statement(
                    std::hint::black_box(stmt),
                    &meta,
                    node,
                    &mut NoSubplans,
                )
                .unwrap()
                .unwrap()
                .tasks
                .len()
            })
        });
    }
    group.finish();
}

/// Hash pruning cost as shard counts grow.
fn shard_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_pruning");
    for shards in [8u32, 32, 128] {
        let mut meta = citrus::metadata::Metadata::new();
        let cid = meta.allocate_colocation_id();
        meta.add_hash_table(
            "t",
            "k",
            0,
            shards,
            &[citrus::metadata::NodeId(1)],
            cid,
            None,
        )
        .unwrap();
        group.bench_function(format!("{shards}_shards"), |b| {
            let mut k = 0i64;
            b.iter(|| {
                k += 1;
                meta.shard_index_for_value("t", &pgmini::types::Datum::Int(k)).unwrap()
            })
        });
    }
    group.finish();
}

/// The slow-start scheduler itself (§3.6.1): the trade-off machinery must be
/// cheap relative to the queries it schedules.
fn slow_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("slow_start");
    let short: Vec<f64> = vec![0.5; 64];
    let long: Vec<f64> = vec![120.0; 64];
    group.bench_function("64_short_tasks", |b| {
        b.iter(|| citrus::executor::slow_start_schedule(&short, 10.0, 15.0, 100, 16, 1))
    });
    group.bench_function("64_long_tasks", |b| {
        b.iter(|| citrus::executor::slow_start_schedule(&long, 10.0, 15.0, 100, 16, 1))
    });
    group.finish();
}

/// The closed-network MVA solver the figures are built on.
fn mva_solver(c: &mut Criterion) {
    let stations: Vec<netsim::Station> = (0..18)
        .map(|i| netsim::Station::queueing(&format!("cpu{i}"), 0.4 + i as f64 * 0.01, 16))
        .chain(std::iter::once(netsim::Station::delay("net", 0.5)))
        .collect();
    c.bench_function("mva_250_clients_19_stations", |b| {
        b.iter(|| netsim::solve(std::hint::black_box(&stations), 250, 1.0))
    });
}

/// Distributed deadlock detection poll cost on an idle cluster (§3.7.3
/// claims the overhead is small; this is the idle-path cost per poll).
fn deadlock_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("deadlock_detection");
    for workers in [2u32, 8] {
        let cluster = bench_cluster(8, workers);
        group.bench_function(format!("idle_poll_{workers}_workers"), |b| {
            b.iter(|| citrus::deadlock::detect_once(std::hint::black_box(&cluster)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = planner_tiers, shard_pruning, slow_start, mva_solver, deadlock_detection
);
criterion_main!(ablations);
