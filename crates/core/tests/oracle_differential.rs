//! Differential oracle: random CRUD/aggregate workloads run through the
//! distributed cluster AND through a plain single-node pgmini engine seeded
//! with the same rows. Distribution must be invisible: result multisets,
//! column names and affected counts are identical — at 1 and 8 executor
//! threads, and with a seeded fault plan injecting read errors (absorbed by
//! executor retries) and latency throughout.

use citrus::cluster::{Cluster, ClusterConfig};
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::engine::Engine;
use pgmini::error::ErrorCode;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

mod common;
use common::row_keys;

const SEED_ROWS: i64 = 16;

/// Distributed side: 2 workers, 8 shards, `t(k, v)` with the seed rows.
fn dist_cluster(threads: usize) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..SEED_ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10)).unwrap();
    }
    c
}

/// Oracle side: one pgmini engine with the identical table and rows.
fn oracle_engine() -> Arc<Engine> {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    for k in 0..SEED_ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10)).unwrap();
    }
    drop(s);
    e
}

/// One generated operation: `(kind, key-ish, value-ish)` interpreted by
/// [`op_sql`]. Fresh insert keys come from the op's position so they never
/// collide with the 0..SEED_ROWS seed range.
type Op = (u8, i64, i64);

fn op_sql(op: &Op, index: usize) -> (String, bool /* ordered */, bool /* write */) {
    let (kind, a, b) = *op;
    let key = a.rem_euclid(2 * SEED_ROWS);
    // bands of `v / 50` span shards, so their partial aggregates must combine
    let low = b.rem_euclid(4);
    match kind % 10 {
        0 => (format!("INSERT INTO t VALUES ({}, {b})", 100 + index as i64), false, true),
        1 => (format!("UPDATE t SET v = {b} WHERE k = {key}"), false, true),
        2 => (format!("DELETE FROM t WHERE k = {key}"), false, true),
        3 => (format!("SELECT v FROM t WHERE k = {key}"), false, false),
        4 => ("SELECT count(*), sum(v) FROM t".to_string(), false, false),
        5 => ("SELECT v, count(*) AS n FROM t GROUP BY v".to_string(), false, false),
        6 => ("SELECT k, v FROM t ORDER BY k LIMIT 5".to_string(), true, false),
        7 => (
            "SELECT v / 50, max(DISTINCT k), avg(DISTINCT k) FROM t GROUP BY v / 50".to_string(),
            false,
            false,
        ),
        8 => (
            format!(
                "SELECT v / 50, count(*) FROM t GROUP BY v / 50 \
                 HAVING count(*) BETWEEN {low} AND {}",
                low + key % 4
            ),
            false,
            false,
        ),
        _ => (
            format!(
                "SELECT v / 50, count(*) FROM t GROUP BY v / 50 ORDER BY sum(k), 1 LIMIT {}",
                1 + low
            ),
            true,
            false,
        ),
    }
}

/// Execute on the distributed side; reads whose retries were exhausted by
/// the fault plan are re-submitted (bounded), like a client would.
fn dist_execute(
    s: &mut citrus::cluster::ClientSession,
    sql: &str,
    write: bool,
) -> Result<pgmini::session::QueryResult, TestCaseError> {
    let mut last = None;
    for _ in 0..12 {
        match s.execute(sql) {
            Ok(r) => return Ok(r),
            Err(e) if !write && e.code == ErrorCode::ConnectionFailure => last = Some(e),
            Err(e) => {
                return Err(TestCaseError::fail(format!("distributed `{sql}` failed: {e:?}")))
            }
        }
    }
    Err(TestCaseError::fail(format!("`{sql}` still failing after 12 attempts: {last:?}")))
}

fn run_case(threads: usize, seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    run_case_on(&dist_cluster(threads), threads, seed, ops, false)
}

/// `cold_oracle` clears the oracle's plan cache before every statement, so
/// the workers' warm generic plans are compared against from-scratch planning.
fn run_case_on(
    c: &Arc<Cluster>,
    threads: usize,
    seed: u64,
    ops: &[Op],
    cold_oracle: bool,
) -> Result<(), TestCaseError> {
    let e = oracle_engine();
    // reads randomly error (executor absorbs them via retry/failover) and
    // every statement can pick up virtual latency — neither may change results
    c.install_faults(
        FaultPlan::new()
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .with_tag("select")
                    .always()
                    .with_probability(0.2),
            )
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Latency(2.0))
                    .always()
                    .with_probability(0.25),
            ),
        seed,
    );
    let mut ds = c.session().unwrap();
    let mut os = e.session().unwrap();
    for (i, op) in ops.iter().enumerate() {
        let (sql, ordered, write) = op_sql(op, i);
        let dist = dist_execute(&mut ds, &sql, write)?;
        if cold_oracle {
            e.clear_plan_cache();
        }
        let oracle = os
            .execute(&sql)
            .map_err(|e| TestCaseError::fail(format!("oracle `{sql}` failed: {e:?}")))?;
        if write {
            prop_assert_eq!(
                dist.affected(),
                oracle.affected(),
                "affected counts diverge for `{}` (threads={})",
                sql,
                threads
            );
        } else {
            prop_assert_eq!(
                dist.columns(),
                oracle.columns(),
                "column names diverge for `{}` (threads={})",
                sql,
                threads
            );
            prop_assert_eq!(
                row_keys(&dist, ordered),
                row_keys(&oracle, ordered),
                "result sets diverge for `{}` (threads={})",
                sql,
                threads
            );
        }
    }
    // final state check: full table contents agree
    let dist = dist_execute(&mut ds, "SELECT k, v FROM t", false)?;
    let oracle = os.execute("SELECT k, v FROM t").unwrap();
    prop_assert_eq!(row_keys(&dist, false), row_keys(&oracle, false), "final table state");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The oracle bar: any workload, at any executor parallelism, under an
    /// active fault plan, is indistinguishable from single-node PostgreSQL.
    #[test]
    fn distributed_matches_single_node_oracle(
        seed in any::<u64>(),
        ops in prop::collection::vec((0..10u8, 0..64i64, -50..50i64), 1..10),
    ) {
        for threads in [1usize, 8] {
            run_case(threads, seed, &ops)?;
        }
    }
}

/// The oracle bar holds for *warm* shard plans: a workload that repeats its
/// shapes with other values runs almost entirely from the workers' plan
/// caches, and still matches an oracle that plans every statement cold.
#[test]
fn warm_shard_plans_match_a_cold_oracle() {
    let ops: Vec<Op> = (0..60i64).map(|i| ((i % 7) as u8, i * 5 + 3, i - 30)).collect();
    let c = dist_cluster(2);
    run_case_on(&c, 2, 7, &ops, true).unwrap();
    let shard_plans = c.shard_plan_cache_stats();
    assert!(shard_plans.hit_rate() > 0.5, "the workload ran warm: {shard_plans:?}");
}
