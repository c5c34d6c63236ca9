//! Parallel-executor equivalence and plan-cache tests.
//!
//! The fan-out executor must be *observably identical* at any thread count:
//! same rows, same affected counts, same virtual cost accounting, and — under
//! an injected fault plan with a fixed seed — the same fault fingerprint and
//! retry totals. The plan cache must serve repeated statement shapes without
//! re-planning and drop every cached plan when the metadata generation moves
//! (DDL, redistribution, shard moves).

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::types::Datum;
use proptest::prelude::*;
use std::sync::Arc;

fn cluster(threads: usize, workers: u32, shards: u32, plan_cache: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = shards;
    cfg.executor_threads = threads;
    cfg.plan_cache = plan_cache;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

/// A mixed fast-path / router / pushdown workload, deterministic from `step`.
fn workload_sql(step: usize) -> String {
    let k = (step * 7 + 3) % 60;
    match step % 6 {
        0 => format!("SELECT v FROM t WHERE k = {k}"),
        1 => format!("SELECT count(*), sum(v) FROM t"),
        2 => format!("SELECT count(*) FROM t WHERE k >= {}", k % 10),
        3 => format!("UPDATE t SET v = v + 1 WHERE k = {k}"),
        4 => format!("INSERT INTO t VALUES ({}, 1)", 1000 + step),
        _ => format!("DELETE FROM t WHERE k = {}", 1000 + step.saturating_sub(2)),
    }
}

/// Run the full workload on a fresh cluster at the given thread count and
/// return every observable: per-statement outcomes (rows / affected / error
/// codes), per-statement cost strings, the fault fingerprint, total retries,
/// and the virtual-clock delta.
fn run_workload(threads: usize, faults: Option<(FaultPlan, u64)>) -> (Vec<String>, u64, u64, u64) {
    let c = cluster(threads, 2, 32, false);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..60i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    let inj = faults.map(|(plan, seed)| c.install_faults(plan, seed));
    let clock_before = c.clock.now_micros();
    let mut outcomes = Vec::new();
    for step in 0..36 {
        let out = match s.execute(&workload_sql(step)) {
            Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
            Err(e) => format!("err:{:?}:{}", e.code, e.message),
        };
        outcomes.push(format!("{out}|{:?}", s.last_dist_cost()));
    }
    let fp = inj.map(|i| i.fingerprint()).unwrap_or(0);
    (outcomes, fp, c.task_retry_count(), c.clock.now_micros() - clock_before)
}

/// A fault plan whose schedule is thread-count independent: probabilistic
/// rules are keyed by (node, tag, scope), and the scripted one-shot rules are
/// node-pinned so every possible arrival-order victim hashes identically in
/// the fingerprint.
fn equivalence_fault_plan() -> FaultPlan {
    FaultPlan::new()
        .with(
            FaultRule::new(FaultOp::Statement, FaultKind::Error)
                .with_tag("select")
                .always()
                .with_probability(0.25),
        )
        .with(FaultRule::stmt_error(1, "select"))
        .with(FaultRule::stmt_error(2, "update").after(1))
}

#[test]
fn parallel_and_sequential_runs_are_identical() {
    let base = run_workload(1, None);
    for threads in [2, 4, 8] {
        let got = run_workload(threads, None);
        assert_eq!(base, got, "clean workload diverged at {threads} threads");
    }
}

#[test]
fn parallel_and_sequential_runs_agree_under_faults() {
    let base = run_workload(1, Some((equivalence_fault_plan(), 7)));
    assert!(base.2 > 0, "the fault plan must actually force retries");
    for threads in [4, 8] {
        let got = run_workload(threads, Some((equivalence_fault_plan(), 7)));
        assert_eq!(base, got, "faulty workload diverged at {threads} threads");
    }
    // and a different seed draws a genuinely different schedule
    let other = run_workload(1, Some((equivalence_fault_plan(), 8)));
    assert_ne!(base.1, other.1);
}

/// A rule scoped to one shard fires only on that shard's task, at any thread
/// count.
#[test]
fn scoped_rule_pins_the_fault_to_one_shard_task() {
    let run = |threads: usize| {
        let c = cluster(threads, 2, 32, false);
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        for k in 0..40i64 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
        }
        // pin the fault to the shard owning k = 5
        let (scope, node) = {
            let meta = c.metadata.read();
            let b = meta.shard_index_for_value("t", &Datum::Int(5)).unwrap();
            let dt = meta.table("t").unwrap();
            let shard = meta.shard(dt.shards[b]).unwrap();
            (format!("s{}", dt.shards[b].0), shard.placements[0])
        };
        let inj = c.install_faults(
            FaultPlan::new().with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .on_node(node.0)
                    .with_tag("select")
                    .scoped_to(&scope)
                    .times(1),
            ),
            0,
        );
        let r = s.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(40));
        assert_eq!(inj.fired(), 1, "exactly the scoped task was hit");
        assert_eq!(c.task_retry_count(), 1);
        let ev = inj.events();
        assert_eq!(ev[0].scope, scope, "the event records the pinned scope");
        inj.fingerprint()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq, par, "scoped faults replay identically under parallelism");
}

// ---------------- plan cache ----------------

fn cache_stats(c: &Arc<Cluster>) -> citrus::planner::cache::PlanCacheStats {
    c.extension(NodeId(0)).unwrap().plan_cache_stats()
}

#[test]
fn repeated_statement_shapes_hit_the_plan_cache() {
    let c = cluster(1, 2, 16, true);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..20i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {k})")).unwrap();
    }
    let before = cache_stats(&c);
    // same shape, twenty different literals: one planning, nineteen hits
    for k in 0..20i64 {
        let r = s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(k), "cached plan routes to the right shard");
    }
    let after = cache_stats(&c);
    assert_eq!(after.misses - before.misses, 1, "only the first execution plans");
    assert_eq!(after.hits - before.hits, 19);

    // a different shape is a fresh entry, not a collision with the first
    let before = cache_stats(&c);
    s.execute("SELECT k FROM t WHERE v = 3").unwrap();
    let after = cache_stats(&c);
    assert_eq!(after.misses - before.misses, 1);
}

#[test]
fn plan_cache_off_never_counts() {
    let c = cluster(1, 2, 8, false);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for _ in 0..5 {
        s.execute("SELECT count(*) FROM t WHERE k = 1").unwrap();
    }
    let stats = cache_stats(&c);
    assert_eq!(stats.hits + stats.misses, 0, "disabled cache sees no traffic");
}

#[test]
fn ddl_invalidates_cached_plans() {
    let c = cluster(1, 2, 8, true);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    s.execute("SELECT v FROM t WHERE k = 1").unwrap();
    let warm = cache_stats(&c);
    s.execute("SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(cache_stats(&c).hits - warm.hits, 1, "warm before the DDL");

    // DROP + recreate bumps the metadata generation: the stale plan must not
    // be served against the new table's shards
    s.execute("DROP TABLE t").unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 99)").unwrap();
    let before = cache_stats(&c);
    let r = s.execute("SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(99));
    let after = cache_stats(&c);
    assert_eq!(after.misses - before.misses, 1, "stale generation is a miss");
    assert_eq!(after.hits, before.hits);
}

#[test]
fn shard_move_invalidates_cached_plans_and_stays_correct() {
    let c = cluster(1, 2, 8, true);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..20i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {k})")).unwrap();
    }
    // warm the cache on a fast-path probe
    s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    let warm = cache_stats(&c);
    s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    assert_eq!(cache_stats(&c).hits - warm.hits, 1);

    // move k = 7's shard group to the other worker
    let old_node = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("t", &Datum::Int(7)).unwrap();
        let dt = meta.table("t").unwrap();
        meta.shard(dt.shards[b]).unwrap().placements[0]
    };
    let dest = if old_node == NodeId(1) { NodeId(2) } else { NodeId(1) };
    let report = citrus::rebalancer::isolate_tenant(&c, "t", &Datum::Int(7), dest).unwrap();
    assert!(report.shards_moved >= 1);

    // the first post-move execution re-prunes against the new placement
    let before = cache_stats(&c);
    let r = s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(7), "query follows the moved shard");
    let after = cache_stats(&c);
    assert_eq!(after.misses - before.misses, 1, "generation bump evicts the plan");
    // and the re-cached plan serves correct rows from the new node
    let r = s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(7));
    assert_eq!(cache_stats(&c).hits - after.hits, 1);
}

#[test]
fn plan_cache_results_match_uncached_results() {
    let run = |cached: bool| {
        let c = cluster(1, 2, 16, cached);
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        for k in 0..30i64 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
        }
        let mut out = Vec::new();
        for step in 0..24 {
            out.push(match s.execute(&workload_sql(step)) {
                Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
                Err(e) => format!("err:{:?}", e.code),
            });
        }
        out
    };
    assert_eq!(run(false), run(true), "the cache is invisible to results");
}

// ---------------- property: equivalence over random workloads ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random CRUD workload observes identical results, costs, and retry
    /// totals at 1 and 4 executor threads.
    #[test]
    fn random_workloads_are_thread_count_invariant(
        ops in prop::collection::vec((0usize..6, 0i64..200), 1..14),
        seed in 0u64..64,
    ) {
        let run = |threads: usize| {
            let c = cluster(threads, 2, 16, true);
            let mut s = c.session().unwrap();
            s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
            s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
            for k in 0..25i64 {
                s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
            }
            let inj = c.install_faults(
                FaultPlan::new().with(
                    FaultRule::new(FaultOp::Statement, FaultKind::Error)
                        .with_tag("select")
                        .always()
                        .with_probability(0.2),
                ),
                seed,
            );
            let mut out = Vec::new();
            for (op, key) in &ops {
                let sql = match op {
                    0 => format!("SELECT v FROM t WHERE k = {key}"),
                    1 => format!("SELECT count(*) FROM t"),
                    2 => format!("SELECT count(*) FROM t WHERE k < {key}"),
                    3 => format!("UPDATE t SET v = v + 1 WHERE k = {key}"),
                    4 => format!("INSERT INTO t VALUES ({}, 2)", key + 500),
                    _ => format!("DELETE FROM t WHERE k = {}", key + 500),
                };
                out.push(match s.execute(&sql) {
                    Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
                    Err(e) => format!("err:{:?}", e.code),
                });
                out.push(format!("{:?}", s.last_dist_cost()));
            }
            (out, inj.fingerprint(), c.task_retry_count())
        };
        prop_assert_eq!(run(1), run(4));
    }
}
