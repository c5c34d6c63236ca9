//! Plan-cache measurement shared by `executor_bench` and the warm-vs-cold
//! regression test.
//!
//! The seed artifact shipped a warm-arm wall-clock *regression* (24.0 µs/stmt
//! warm vs 19.0 cold): its smoke run timed a single 4-statement round, which
//! is entirely scheduler noise — the real planning delta per statement is
//! sub-microsecond. The measurement here runs multiple rounds of a long
//! repeated-CRUD loop and takes the median round's wall clock, which is
//! stable enough that warm ≤ cold holds on the wall clock too, matching the
//! virtual-clock model (`cached_plan_ms` ≪ `dist_plan_ms`).

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use pgmini::engine::Engine;
use sqlparse::ast::Statement;
use std::sync::Arc;
use std::time::Instant;
use workloads::ycsb;

/// One arm (cache on or off) of the repeated-CRUD measurement.
#[derive(Debug, Clone)]
pub struct CrudStats {
    /// Median-round wall microseconds per statement.
    pub wall_us_per_stmt: f64,
    /// Virtual (deterministic) milliseconds per statement.
    pub virt_ms_per_stmt: f64,
    /// Plan-cache hit rate over the measured statements.
    pub hit_rate: f64,
    /// Virtual-time percentiles [p50, p95, p99] from the metrics histogram.
    pub percentiles: [f64; 3],
    /// Statements recorded in the metrics histogram.
    pub statements: u64,
}

fn cluster(plan_cache: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 32;
    cfg.executor_threads = 1;
    cfg.plan_cache = plan_cache;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    c
}

/// The statement-shape rotation: four shapes, varying literals. Shape reuse
/// is what the plan cache exploits; varying literals keep the pruning
/// honest.
pub fn crud_sql(step: usize) -> String {
    let k = (step * 13 + 7) % 200;
    match step % 4 {
        0 => format!("SELECT v FROM t WHERE k = {k}"),
        1 => format!("UPDATE t SET v = v + 1 WHERE k = {k}"),
        2 => format!("SELECT k, v FROM t WHERE k = {} AND v >= 0", (k + 3) % 200),
        _ => format!("DELETE FROM t WHERE k = {}", 100_000 + step),
    }
}

/// Run `rounds` rounds of `iters * 4` CRUD statements with the plan cache
/// on or off; wall time is the median round (single short rounds are
/// dominated by scheduler noise), virtual time and hit rate aggregate over
/// all rounds (they are deterministic).
pub fn crud_loop(plan_cache: bool, iters: u32, rounds: u32) -> CrudStats {
    assert!(iters >= 1 && rounds >= 1);
    let c = cluster(plan_cache);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..200i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    // warm every shape once so the cold/warm arms both run steady-state
    for step in 0..4 {
        s.execute(&crud_sql(step)).unwrap();
    }
    let base = c.extension(NodeId(0)).unwrap().plan_cache_stats();
    let mut stmts = 0u64;
    let mut virt_ms = 0.0;
    let mut round_us = Vec::new();
    for round in 0..rounds {
        let t0 = Instant::now();
        let mut n = 0u64;
        for i in 0..iters {
            for step in 0..4 {
                let global = (((round * iters + i) * 4) as usize) + step;
                s.execute(&crud_sql(global)).unwrap();
                virt_ms += s.last_dist_cost().elapsed_ms;
                n += 1;
            }
        }
        round_us.push(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        stmts += n;
    }
    round_us.sort_by(|a, b| a.total_cmp(b));
    let stats = c.extension(NodeId(0)).unwrap().plan_cache_stats();
    let hits = stats.hits - base.hits;
    let misses = stats.misses - base.misses;
    let hist = &c.metrics.statement_elapsed;
    CrudStats {
        wall_us_per_stmt: round_us[round_us.len() / 2],
        virt_ms_per_stmt: virt_ms / stmts as f64,
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        percentiles: [
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99),
        ],
        statements: hist.count(),
    }
}

/// Cold vs warm wall nanoseconds per statement of the engine's *local* plan
/// cache (`pgmini::plancache`), for the two YCSB shapes a worker sees.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPlanStats {
    pub read_cold_ns: f64,
    pub read_warm_ns: f64,
    pub update_cold_ns: f64,
    pub update_warm_ns: f64,
}

/// Median-round ns/statement of `stmts` on `engine`, with the plan cache
/// cleared before every statement (`cold`) or left warm.
fn engine_ns_per_stmt(engine: &Arc<Engine>, stmts: &[Statement], rounds: u32, cold: bool) -> f64 {
    let mut s = engine.session().unwrap();
    let mut per_round = Vec::new();
    for _ in 0..rounds {
        // every round meets the same heap: no version chains left by the last
        engine.vacuum_all().unwrap();
        let mut ns = 0u128;
        for stmt in stmts {
            if cold {
                engine.clear_plan_cache();
            }
            let t0 = Instant::now();
            s.execute_stmt(std::hint::black_box(stmt)).unwrap();
            ns += t0.elapsed().as_nanos();
        }
        per_round.push(ns as f64 / stmts.len() as f64);
    }
    per_round.sort_by(|a, b| a.total_cmp(b));
    per_round[per_round.len() / 2]
}

/// The YCSB point read and single-field update on a bare engine holding
/// `rows` usertable rows: parsed up front, so the difference between the arms
/// is the local planning a warm shape skips.
pub fn worker_plan(rows: u64, stmts_per_round: u32, rounds: u32) -> WorkerPlanStats {
    let engine = Engine::new_default();
    let mut s = engine.session().unwrap();
    s.execute(&ycsb::schema_statement()).unwrap();
    let field = "x".repeat(100);
    for id in 0..rows {
        let fields = vec![format!("'{field}'"); ycsb::FIELD_COUNT].join(", ");
        s.execute(&format!("INSERT INTO usertable VALUES ('{}', {fields})", ycsb::key_name(id)))
            .unwrap();
    }
    let key = |i: u32| ycsb::key_name((i as u64 * 7919) % rows);
    let parse_all = |sql: &dyn Fn(u32) -> String| -> Vec<Statement> {
        (0..stmts_per_round).map(|i| sqlparse::parse(&sql(i)).unwrap()).collect()
    };
    let reads = parse_all(&|i| format!("SELECT * FROM usertable WHERE ycsb_key = '{}'", key(i)));
    let updates = parse_all(&|i| {
        format!("UPDATE usertable SET field{} = '{field}' WHERE ycsb_key = '{}'", i % 10, key(i))
    });
    WorkerPlanStats {
        read_cold_ns: engine_ns_per_stmt(&engine, &reads, rounds, true),
        read_warm_ns: engine_ns_per_stmt(&engine, &reads, rounds, false),
        update_cold_ns: engine_ns_per_stmt(&engine, &updates, rounds, true),
        update_warm_ns: engine_ns_per_stmt(&engine, &updates, rounds, false),
    }
}
