//! Recompute-differential wall for the streaming changefeed + incrementally
//! maintained rollups (§3.5 "real-time analytics").
//!
//! Every test drives DML through the distributed cluster, refreshes the
//! rollup incrementally (delta application over the per-shard changefeeds),
//! and asserts the rollup table is *byte-equal* to a from-scratch recompute
//! of its defining query — [`citrus::rollup::verify`] compares exact `Datum`
//! values, so `Int(3)` vs `Float(3.0)` or a stale min/max is a failure. The
//! proptest corpus replays random DML programs at 1 and 8 executor threads,
//! with and without a seeded chaos fault plan.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use citrus::rollup;
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

fn cluster_with(workers: u32, threads: usize) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

/// `sales(k bigint PRIMARY KEY, region text, amount bigint, price double
/// precision)` distributed on `k`.
fn sales_cluster(workers: u32, threads: usize) -> Arc<Cluster> {
    let c = cluster_with(workers, threads);
    let mut s = c.session().unwrap();
    s.execute(
        "CREATE TABLE sales (k bigint PRIMARY KEY, region text, amount bigint, \
         price double precision)",
    )
    .unwrap();
    s.execute("SELECT create_distributed_table('sales', 'k')").unwrap();
    c
}

const ROLLUP_DDL: &str = "CREATE ROLLUP sales_by_region AS \
     SELECT region, count(*) AS n, sum(amount) AS total, min(amount) AS lo, \
     max(amount) AS hi FROM sales GROUP BY region";

fn insert_sale(c: &Arc<Cluster>, k: i64, region: &str, amount: i64, price: f64) {
    let mut s = c.session().unwrap();
    s.execute(&format!("INSERT INTO sales VALUES ({k}, '{region}', {amount}, {price})"))
        .unwrap();
}

fn refresh(c: &Arc<Cluster>) {
    let mut s = c.session().unwrap();
    s.execute("SELECT citrus_refresh_rollup()").unwrap();
}

/// One rollup row fetched by group key, as (n, total, lo, hi).
fn region_row(c: &Arc<Cluster>, region: &str) -> Option<(i64, i64, i64, i64)> {
    let mut s = c.session().unwrap();
    let rows = s
        .query(&format!(
            "SELECT n, total, lo, hi FROM sales_by_region WHERE region = '{region}'"
        ))
        .unwrap();
    match rows.len() {
        0 => None,
        1 => Some((
            rows[0][0].as_i64().unwrap(),
            rows[0][1].as_i64().unwrap(),
            rows[0][2].as_i64().unwrap(),
            rows[0][3].as_i64().unwrap(),
        )),
        n => panic!("{n} rollup rows for group {region}"),
    }
}

// ---------------- basic functional coverage ----------------

#[test]
fn create_rollup_backfills_existing_rows() {
    let c = sales_cluster(2, 1);
    for (k, region, amount) in
        [(1, "east", 10), (2, "west", 20), (3, "east", 5), (4, "north", 7)]
    {
        insert_sale(&c, k, region, amount, 1.0);
    }
    let mut s = c.session().unwrap();
    s.execute(ROLLUP_DDL).unwrap();

    // the initial fill drains the full WAL history of every shard
    assert_eq!(region_row(&c, "east"), Some((2, 15, 5, 10)));
    assert_eq!(region_row(&c, "west"), Some((1, 20, 20, 20)));
    assert_eq!(region_row(&c, "north"), Some((1, 7, 7, 7)));
    rollup::verify(&c, "sales_by_region").unwrap();
}

#[test]
fn incremental_maintenance_tracks_dml() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(ROLLUP_DDL).unwrap();

    insert_sale(&c, 1, "east", 10, 1.0);
    insert_sale(&c, 2, "east", 30, 1.0);
    insert_sale(&c, 3, "west", 8, 1.0);
    refresh(&c);
    assert_eq!(region_row(&c, "east"), Some((2, 40, 10, 30)));
    rollup::verify(&c, "sales_by_region").unwrap();

    // update moves a row between groups: retraction from east, insert to west
    s.execute("UPDATE sales SET region = 'west' WHERE k = 2").unwrap();
    refresh(&c);
    assert_eq!(region_row(&c, "east"), Some((1, 10, 10, 10)));
    assert_eq!(region_row(&c, "west"), Some((2, 38, 8, 30)));
    rollup::verify(&c, "sales_by_region").unwrap();

    // deleting a group's last row removes the group row entirely
    s.execute("DELETE FROM sales WHERE k = 1").unwrap();
    refresh(&c);
    assert_eq!(region_row(&c, "east"), None);
    rollup::verify(&c, "sales_by_region").unwrap();
}

#[test]
fn min_max_retraction_falls_back_to_recount() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(ROLLUP_DDL).unwrap();
    for (k, amount) in [(1, 5), (2, 40), (3, 17)] {
        insert_sale(&c, k, "east", amount, 1.0);
    }
    refresh(&c);
    assert_eq!(region_row(&c, "east"), Some((3, 62, 5, 40)));

    // deleting the stored max forces a distributed re-aggregation of the group
    let before = c.metrics.rollup_recounts.load(std::sync::atomic::Ordering::Relaxed);
    s.execute("DELETE FROM sales WHERE k = 2").unwrap();
    refresh(&c);
    assert_eq!(region_row(&c, "east"), Some((2, 22, 5, 17)));
    let after = c.metrics.rollup_recounts.load(std::sync::atomic::Ordering::Relaxed);
    assert!(after > before, "deleting the stored extreme must trigger a recount");
    rollup::verify(&c, "sales_by_region").unwrap();
}

#[test]
fn where_clause_and_null_group_keys() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(
        "CREATE ROLLUP big_sales AS SELECT region, count(*) AS n, sum(amount) AS total \
         FROM sales WHERE amount > 10 GROUP BY region",
    )
    .unwrap();

    insert_sale(&c, 1, "east", 5, 1.0); // filtered out
    insert_sale(&c, 2, "east", 50, 1.0);
    let mut s2 = c.session().unwrap();
    s2.execute("INSERT INTO sales VALUES (3, NULL, 99, 1.0)").unwrap();
    refresh(&c);
    rollup::verify(&c, "big_sales").unwrap();

    let rows = s.query("SELECT n, total FROM big_sales WHERE region IS NULL").unwrap();
    assert_eq!(rows.len(), 1, "NULL forms its own group");
    assert_eq!(rows[0][0], Datum::Int(1));
    assert_eq!(rows[0][1], Datum::Int(99));

    // crossing the WHERE boundary via UPDATE acts as insert/retract
    s.execute("UPDATE sales SET amount = 11 WHERE k = 1").unwrap();
    s.execute("UPDATE sales SET amount = 3 WHERE k = 2").unwrap();
    refresh(&c);
    rollup::verify(&c, "big_sales").unwrap();
    let rows = s.query("SELECT n, total FROM big_sales WHERE region = 'east'").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Datum::Int(1));
    assert_eq!(rows[0][1], Datum::Int(11));
}

#[test]
fn avg_and_count_arg_skip_nulls() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(
        "CREATE ROLLUP region_stats AS SELECT region, count(amount) AS n_amt, \
         avg(amount) AS mean, sum(price) AS revenue FROM sales GROUP BY region",
    )
    .unwrap();

    s.execute("INSERT INTO sales VALUES (1, 'east', 10, 1.5)").unwrap();
    s.execute("INSERT INTO sales VALUES (2, 'east', NULL, 2.5)").unwrap();
    s.execute("INSERT INTO sales VALUES (3, 'east', 20, 0.5)").unwrap();
    refresh(&c);
    rollup::verify(&c, "region_stats").unwrap();

    let rows =
        s.query("SELECT n_amt, mean, revenue FROM region_stats WHERE region = 'east'").unwrap();
    assert_eq!(rows[0][0], Datum::Int(2), "count(col) skips NULL");
    assert_eq!(rows[0][1], Datum::Float(15.0));
    assert_eq!(rows[0][2], Datum::Float(4.5));

    // all-NULL group: count 0, avg NULL
    s.execute("DELETE FROM sales WHERE k = 1").unwrap();
    s.execute("DELETE FROM sales WHERE k = 3").unwrap();
    refresh(&c);
    rollup::verify(&c, "region_stats").unwrap();
    let rows = s.query("SELECT n_amt, mean FROM region_stats WHERE region = 'east'").unwrap();
    assert_eq!(rows[0][0], Datum::Int(0));
    assert_eq!(rows[0][1], Datum::Null, "avg of zero non-null inputs is NULL");
}

#[test]
fn select_on_rollup_refreshes_within_staleness_bound() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(ROLLUP_DDL).unwrap();
    insert_sale(&c, 1, "east", 10, 1.0);
    insert_sale(&c, 2, "east", 25, 1.0);

    // no explicit refresh: the coordinator's planner hook drains the
    // changefeed before serving a read that touches the rollup
    assert_eq!(region_row(&c, "east"), Some((2, 35, 10, 25)));
    rollup::verify(&c, "sales_by_region").unwrap();
}

#[test]
fn drop_rollup_removes_table_and_cursors() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    s.execute(ROLLUP_DDL).unwrap();
    insert_sale(&c, 1, "east", 10, 1.0);
    refresh(&c);

    s.execute("DROP ROLLUP sales_by_region").unwrap();
    let err = s.execute("SELECT * FROM sales_by_region").unwrap_err();
    assert_eq!(err.code, ErrorCode::UndefinedTable);
    let cursors = s
        .query("SELECT count(*) FROM citrus_changefeed_cursors WHERE rollup = 'sales_by_region'")
        .unwrap();
    assert_eq!(cursors[0][0], Datum::Int(0), "cursors must be garbage-collected");

    let err = s.execute("DROP ROLLUP sales_by_region").unwrap_err();
    assert_eq!(err.code, ErrorCode::UndefinedTable);
    s.execute("DROP ROLLUP IF EXISTS sales_by_region").unwrap();

    // the name is free for re-creation, and the new rollup backfills
    s.execute(ROLLUP_DDL).unwrap();
    assert_eq!(region_row(&c, "east"), Some((1, 10, 10, 10)));
    rollup::verify(&c, "sales_by_region").unwrap();
}

#[test]
fn create_rollup_rejects_invalid_definitions() {
    let c = sales_cluster(2, 1);
    let mut s = c.session().unwrap();
    let cases = [
        // (sql, expected substring)
        ("CREATE ROLLUP r AS SELECT count(*) AS n FROM sales", "GROUP BY"),
        (
            "CREATE ROLLUP r AS SELECT DISTINCT region, count(*) AS n FROM sales GROUP BY region",
            "DISTINCT",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM sales GROUP BY region \
             ORDER BY region",
            "ORDER BY",
        ),
        ("CREATE ROLLUP r AS SELECT region, amount FROM sales GROUP BY region", "aggregate"),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM nope GROUP BY region",
            "nope",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, random() AS x FROM sales GROUP BY region",
            "random",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS _n FROM sales GROUP BY region",
            "_",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n, sum(amount) AS n \
             FROM sales GROUP BY region",
            "n",
        ),
    ];
    for (sql, needle) in cases {
        let err = s.execute(sql).unwrap_err();
        assert!(
            err.message.contains(needle) || err.code == ErrorCode::FeatureNotSupported,
            "{sql}: unexpected error {:?} {}",
            err.code,
            err.message
        );
        // nothing half-created sticks around
        assert!(s.execute("SELECT * FROM r").is_err(), "{sql} left table r behind");
    }
    // one case per scalar-expression check, each with its own message
    let scalar_cases = [
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM sales GROUP BY region, sum(amount)",
            "aggregate calls are not allowed in the GROUP BY clause",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM sales \
             WHERE price > random() GROUP BY region",
            "nondeterministic function random()",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM sales \
             WHERE amount > $1 GROUP BY region",
            "parameters are not allowed",
        ),
        (
            "CREATE ROLLUP r AS SELECT region, count(*) AS n FROM sales \
             WHERE region IN (SELECT region FROM sales) GROUP BY region",
            "subqueries are not allowed",
        ),
    ];
    for (sql, needle) in scalar_cases {
        let err = s.execute(sql).unwrap_err();
        assert!(err.message.contains(needle), "{sql}: unexpected error {}", err.message);
        assert!(s.execute("SELECT * FROM r").is_err(), "{sql} left table r behind");
    }

    s.execute(ROLLUP_DDL).unwrap();
    let err = s.execute(ROLLUP_DDL).unwrap_err();
    assert_eq!(err.code, ErrorCode::DuplicateObject);
    s.execute(&ROLLUP_DDL.replace("CREATE ROLLUP", "CREATE ROLLUP IF NOT EXISTS")).unwrap();
}

#[test]
fn create_rollup_runs_on_coordinator_only() {
    let c = sales_cluster(2, 1);
    let mut w = c.session_on(NodeId(1)).unwrap();
    let err = w.execute(ROLLUP_DDL).unwrap_err();
    assert_eq!(err.code, ErrorCode::FeatureNotSupported);
    assert!(err.message.contains("coordinator"));
}

// ---------------- recompute-differential proptest corpus ----------------

/// One step of a random DML program against `sales`.
#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, region: u8, amount: Option<i64>, price: f64 },
    UpdateAmount { k: i64, amount: Option<i64> },
    UpdateRegion { k: i64, region: u8 },
    Delete { k: i64 },
    Refresh,
}

fn region_name(r: u8) -> Option<String> {
    match r % 5 {
        0 => None, // NULL group key
        n => Some(format!("r{n}")),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..24, any::<u8>(), prop::option::of(-50i64..50), -4.0f64..4.0)
            .prop_map(|(k, region, amount, price)| Op::Insert { k, region, amount, price }),
        2 => (0i64..24, prop::option::of(-50i64..50))
            .prop_map(|(k, amount)| Op::UpdateAmount { k, amount }),
        2 => (0i64..24, any::<u8>()).prop_map(|(k, region)| Op::UpdateRegion { k, region }),
        2 => (0i64..24).prop_map(|k| Op::Delete { k }),
        1 => Just(Op::Refresh),
    ]
}

fn sql_opt_int(v: Option<i64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "NULL".into())
}

fn sql_opt_text(v: Option<String>) -> String {
    v.map(|v| format!("'{v}'")).unwrap_or_else(|| "NULL".into())
}

/// Replay `ops` on a fresh cluster and check the rollup equals a recompute
/// after every explicit refresh and at the end. Individual statements may
/// fail (duplicate key, injected fault) — consistency must hold regardless.
fn run_differential(ops: &[Op], threads: usize, chaos: Option<u64>) -> Result<(), TestCaseError> {
    let c = sales_cluster(2, threads);
    {
        let mut s = c.session().map_err(|e| TestCaseError::fail(e.to_string()))?;
        s.execute(
            "CREATE ROLLUP by_region AS SELECT region, count(*) AS n, count(amount) AS n_amt, \
             sum(amount) AS total, avg(amount) AS mean, min(amount) AS lo, max(amount) AS hi \
             FROM sales WHERE amount IS NOT NULL OR region IS NOT NULL GROUP BY region",
        )
        .map_err(|e| TestCaseError::fail(format!("create rollup: {e}")))?;
    }
    let injector = chaos.map(|seed| {
        let plan = FaultPlan::new()
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Latency(1.2))
                    .always()
                    .with_probability(0.2)
                    .labeled("jitter"),
            )
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .on_node(1)
                    .always()
                    .with_probability(0.05)
                    .labeled("flaky-worker"),
            );
        c.install_faults(plan, seed)
    });
    for op in ops {
        let mut s = c.session().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let sql = match op {
            Op::Insert { k, region, amount, price } => format!(
                "INSERT INTO sales VALUES ({k}, {}, {}, {price})",
                sql_opt_text(region_name(*region)),
                sql_opt_int(*amount)
            ),
            Op::UpdateAmount { k, amount } => {
                format!("UPDATE sales SET amount = {} WHERE k = {k}", sql_opt_int(*amount))
            }
            Op::UpdateRegion { k, region } => format!(
                "UPDATE sales SET region = {} WHERE k = {k}",
                sql_opt_text(region_name(*region))
            ),
            Op::Delete { k } => format!("DELETE FROM sales WHERE k = {k}"),
            Op::Refresh => "SELECT citrus_refresh_rollup('by_region')".to_string(),
        };
        // under chaos, statements (and refreshes) may fail — that's the point
        let res = s.execute(&sql);
        if chaos.is_none() {
            if let (Err(e), false) = (&res, matches!(op, Op::Insert { .. })) {
                return Err(TestCaseError::fail(format!("{sql}: {e}")));
            }
        }
        if matches!(op, Op::Refresh) && res.is_ok() {
            rollup::verify(&c, "by_region")
                .map_err(|e| TestCaseError::fail(format!("mid-program: {e}")))?;
        }
    }
    if injector.is_some() {
        c.clear_faults();
    }
    rollup::verify(&c, "by_region").map_err(|e| TestCaseError::fail(format!("final: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn differential_single_thread(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_differential(&ops, 1, None)?;
    }

    #[test]
    fn differential_eight_threads(ops in prop::collection::vec(op_strategy(), 1..60)) {
        run_differential(&ops, 8, None)?;
    }

    #[test]
    fn differential_single_thread_chaos(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        run_differential(&ops, 1, Some(seed))?;
    }

    #[test]
    fn differential_eight_threads_chaos(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        run_differential(&ops, 8, Some(seed))?;
    }
}
