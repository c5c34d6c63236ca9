//! Regression wall for the plan cache on the virtual clock: a warm cache must
//! make repeated CRUD statements cheaper, exactly and every run. The
//! wall-clock cost of planning is measured once, by the benchmark
//! (`planner.plan_ns_per_stmt` in `BENCHMARK.json`), not asserted here.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use std::sync::Arc;

/// One arm (cache on or off) of the repeated-CRUD measurement.
#[derive(Debug, Clone)]
struct CrudStats {
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

/// Run `iters * 4` CRUD statements with the plan cache on or off.
fn crud_loop(plan_cache: bool, iters: usize) -> CrudStats {
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
    let mut virt_ms = 0.0;
    for step in 0..iters * 4 {
        s.execute(&crud_sql(step)).unwrap();
        virt_ms += s.last_dist_cost().elapsed_ms;
    }
    let stats = c.extension(NodeId(0)).unwrap().plan_cache_stats();
    let hits = stats.hits - base.hits;
    let misses = stats.misses - base.misses;
    CrudStats {
        virt_ms_per_stmt: virt_ms / (iters * 4) as f64,
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    }
}

/// Virtual time is deterministic: a cache hit charges `CACHED_PLAN_MS`
/// (0.02) instead of a full `DIST_PLAN_MS` (0.2) pass, so warm must beat
/// cold exactly, every run.
#[test]
fn warm_cache_beats_cold_on_the_virtual_clock() {
    let cold = crud_loop(false, 50);
    let warm = crud_loop(true, 50);
    assert!(warm.hit_rate >= 0.90, "warm hit rate {:.3} below 90%", warm.hit_rate);
    assert_eq!(cold.hit_rate, 0.0, "cold arm must not hit the cache");
    assert!(
        warm.virt_ms_per_stmt < cold.virt_ms_per_stmt,
        "warm virtual {:.4}ms/stmt not below cold {:.4}ms/stmt",
        warm.virt_ms_per_stmt,
        cold.virt_ms_per_stmt
    );
}
