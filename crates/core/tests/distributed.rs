//! End-to-end tests of the distributed layer: a real multi-engine cluster
//! exercising every §3 mechanism of the paper.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use citrus::planner::PlannerKind;
use pgmini::cost::{CPU_TUPLE_MS, NET_RTT_MS};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use std::sync::Arc;

fn small_cluster(workers: u32) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

/// Standard two-table co-located schema + a reference table.
fn saas_cluster() -> Arc<Cluster> {
    let c = small_cluster(3);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE tenants (tenant_id bigint PRIMARY KEY, name text)").unwrap();
    s.execute("SELECT create_distributed_table('tenants', 'tenant_id')").unwrap();
    s.execute(
        "CREATE TABLE orders (order_id bigint, tenant_id bigint, amount float, \
         PRIMARY KEY (tenant_id, order_id))",
    )
    .unwrap();
    s.execute("SELECT create_distributed_table('orders', 'tenant_id', 'tenants')").unwrap();
    s.execute("CREATE TABLE plans (plan_id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('plans')").unwrap();
    for t in 1..=20i64 {
        s.execute(&format!("INSERT INTO tenants VALUES ({t}, 'tenant-{t}')")).unwrap();
        for o in 1..=5i64 {
            s.execute(&format!(
                "INSERT INTO orders VALUES ({o}, {t}, {})",
                (t * 10 + o) as f64
            ))
            .unwrap();
        }
    }
    s.execute("INSERT INTO plans VALUES (1, 'free'), (2, 'pro')").unwrap();
    c
}

fn planner_of(c: &Arc<Cluster>, session: &mut citrus::cluster::ClientSession) -> PlannerKind {
    let ext = c.extension(session.node()).unwrap();
    ext.last_planner_kind(session.session_mut().id()).unwrap()
}

#[test]
fn shards_spread_over_workers() {
    let c = saas_cluster();
    let counts = citrus::rebalancer::placement_counts(&c);
    assert_eq!(counts.len(), 3);
    // 8 buckets × 2 distributed tables, round robin over 3 workers
    let total: usize = counts.values().sum();
    assert_eq!(total, 16);
    for (_, n) in counts {
        assert!(n > 0, "every worker holds shards");
    }
    // the coordinator holds shell tables but no shard data
    let coordinator = c.coordinator().engine();
    assert!(coordinator.table_meta("tenants").is_ok());
    let shell = coordinator.table_meta("tenants").unwrap();
    assert_eq!(coordinator.store(shell.id).unwrap().live_estimate(), 0);
}

#[test]
fn fast_path_single_key_crud() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT name FROM tenants WHERE tenant_id = 7").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("tenant-7"));
    assert_eq!(planner_of(&c, &mut s), PlannerKind::FastPath);
    // update + delete via fast path
    s.execute("UPDATE tenants SET name = 'renamed' WHERE tenant_id = 7").unwrap();
    assert_eq!(planner_of(&c, &mut s), PlannerKind::FastPath);
    let r = s.execute("SELECT name FROM tenants WHERE tenant_id = 7").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("renamed"));
    let r = s.execute("DELETE FROM orders WHERE tenant_id = 7 AND order_id = 1").unwrap();
    assert_eq!(r.affected(), 1);
}

#[test]
fn router_handles_colocated_joins() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let r = s
        .execute(
            "SELECT t.name, sum(o.amount) FROM tenants t \
             JOIN orders o ON t.tenant_id = o.tenant_id \
             WHERE t.tenant_id = 3 GROUP BY t.name",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(planner_of(&c, &mut s), PlannerKind::Router);
    // joins with reference tables stay routable
    let r = s
        .execute(
            "SELECT count(*) FROM orders o JOIN plans p ON p.plan_id = 1 \
             WHERE o.tenant_id = 3",
        )
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(5));
    assert_eq!(planner_of(&c, &mut s), PlannerKind::Router);
}

#[test]
fn pushdown_aggregates_across_shards() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT count(*), sum(amount), avg(amount), min(amount), max(amount) FROM orders").unwrap();
    assert_eq!(planner_of(&c, &mut s), PlannerKind::Pushdown);
    assert_eq!(r.rows()[0][0], Datum::Int(100));
    let sum = r.rows()[0][1].as_f64().unwrap();
    let avg = r.rows()[0][2].as_f64().unwrap();
    assert!((sum / 100.0 - avg).abs() < 1e-9, "avg must recompose exactly");
    assert_eq!(r.rows()[0][3], Datum::Float(11.0));
    assert_eq!(r.rows()[0][4], Datum::Float(205.0));
}

#[test]
fn pushdown_group_by_with_order_limit() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    // group by the distribution column: full pushdown, coordinator re-sort
    let r = s
        .execute(
            "SELECT tenant_id, sum(amount) AS total FROM orders \
             GROUP BY tenant_id ORDER BY total DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][0], Datum::Int(20), "tenant 20 has the largest total");
    // group by a non-distribution expression: split aggregation
    let r = s
        .execute(
            "SELECT order_id, count(*), avg(amount) FROM orders GROUP BY order_id ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 5);
    assert_eq!(r.rows()[0][1], Datum::Int(20));
}

#[test]
fn distributed_results_match_single_node() {
    // the same data on a 1-node "cluster" (plain local tables) vs distributed
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let local = pgmini::engine::Engine::new_default();
    let mut ls = local.session().unwrap();
    ls.execute("CREATE TABLE orders (order_id bigint, tenant_id bigint, amount float)").unwrap();
    for t in 1..=20i64 {
        for o in 1..=5i64 {
            ls.execute(&format!(
                "INSERT INTO orders VALUES ({o}, {t}, {})",
                (t * 10 + o) as f64
            ))
            .unwrap();
        }
    }
    for q in [
        "SELECT count(*) FROM orders",
        "SELECT sum(amount) FROM orders WHERE order_id > 2",
        "SELECT tenant_id, count(*) FROM orders GROUP BY tenant_id ORDER BY 1 LIMIT 5",
        "SELECT order_id, avg(amount) FROM orders GROUP BY order_id ORDER BY 2 DESC",
        "SELECT max(amount) - min(amount) FROM orders",
        "SELECT DISTINCT count(*) FROM orders GROUP BY order_id",
    ] {
        let dist = s.execute(q).unwrap();
        let loc = ls.execute(q).unwrap();
        assert_eq!(dist.rows(), loc.rows(), "results diverge for {q}");
    }
}

#[test]
fn venice_db_nested_subquery_pushdown() {
    // §5: inner subquery groups by the distribution column → pushes down;
    // outer aggregation merges partials on the coordinator
    let c = small_cluster(4);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE reports (deviceid bigint, build text, metric float)").unwrap();
    s.execute("SELECT create_distributed_table('reports', 'deviceid')").unwrap();
    for d in 1..=40i64 {
        for r in 0..3 {
            s.execute(&format!(
                "INSERT INTO reports VALUES ({d}, 'build-{}', {})",
                d % 2,
                (d * 100 + r) as f64
            ))
            .unwrap();
        }
    }
    let r = s
        .execute(
            "SELECT build, avg(device_avg) FROM \
               (SELECT deviceid, build, avg(metric) AS device_avg \
                FROM reports GROUP BY deviceid, build) AS subq \
             GROUP BY build ORDER BY build",
        )
        .unwrap();
    assert_eq!(planner_of(&c, &mut s), PlannerKind::Pushdown);
    assert_eq!(r.rows().len(), 2);
    // device averages weigh by device, not report count: device d has
    // avg = d*100 + 1; builds split devices by parity
    let b0 = r.rows()[0][1].as_f64().unwrap();
    let expected: f64 =
        (1..=40).filter(|d| d % 2 == 0).map(|d| (d * 100 + 1) as f64).sum::<f64>() / 20.0;
    assert!((b0 - expected).abs() < 1e-6, "{b0} vs {expected}");
}

#[test]
fn multi_shard_dml_and_subplans() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    // multi-shard UPDATE (no dist filter) with 2PC in autocommit
    let r = s.execute("UPDATE orders SET amount = amount + 1 WHERE order_id = 1").unwrap();
    assert_eq!(r.affected(), 20);
    // a co-located semi-join runs on every shard: IN over the key
    let r = s
        .execute(
            "SELECT count(*) FROM orders WHERE tenant_id IN \
             (SELECT tenant_id FROM tenants WHERE name = 'tenant-3')",
        )
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(5));
    // subplan: IN over a non-key column of a distributed subquery
    let r = s
        .execute(
            "SELECT count(*) FROM orders WHERE order_id IN \
             (SELECT tenant_id FROM tenants WHERE name = 'tenant-3')",
        )
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(20));
}

/// Demonstrator: a row whose distribution column is assigned a new value
/// stays in the shard its old value hashes to, where a query on the new value
/// never looks. Citus refuses the assignment (0A000); so does every write
/// that assigns it here — UPDATE, upsert and INSERT .. SELECT upsert — and
/// every row stays where its key finds it.
#[test]
fn distribution_column_assignments_are_refused() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)").unwrap();
    for sql in [
        "UPDATE t SET k = 99 WHERE k = 1",
        "UPDATE t SET v = 0, k = NULL",
        "INSERT INTO t VALUES (2, 0) ON CONFLICT (k) DO UPDATE SET k = 98",
        "INSERT INTO t SELECT k, v FROM t ON CONFLICT (k) DO UPDATE SET k = excluded.k + 100",
    ] {
        let e = s.execute(sql).unwrap_err();
        assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{sql}: {e:?}");
        assert!(e.message.contains("partition value"), "{sql}: {e:?}");
    }
    for k in 1..=4i64 {
        let r = s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
        assert_eq!(r.rows(), &[vec![Datum::Int(k * 10)]], "key {k} is found on its shard");
    }
    assert!(s.execute("SELECT * FROM t WHERE k = 99").unwrap().rows().is_empty());
    // the other columns still update
    assert_eq!(s.execute("UPDATE t SET v = 7 WHERE k = 1").unwrap().affected(), 1);
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 0 WHERE tenant_id = 1").unwrap();
    s.execute("UPDATE orders SET amount = 0 WHERE tenant_id = 2").unwrap();
    // a concurrent session must not see uncommitted remote writes
    let mut other = c.session().unwrap();
    let r = other
        .execute("SELECT sum(amount) FROM orders WHERE tenant_id = 1")
        .unwrap();
    assert!(r.rows()[0][1 - 1].as_f64().unwrap() > 0.0);
    s.execute("COMMIT").unwrap();
    let r = other
        .execute("SELECT sum(amount) FROM orders WHERE tenant_id = 1")
        .unwrap();
    assert_eq!(r.rows()[0][0].as_f64().unwrap(), 0.0);
    // rollback path
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM orders WHERE tenant_id = 3").unwrap();
    s.execute("ROLLBACK").unwrap();
    let r = other.execute("SELECT count(*) FROM orders WHERE tenant_id = 3").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(5));
}

#[test]
fn two_pc_writes_commit_records() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    // force writes on (almost surely) different nodes
    s.execute("UPDATE orders SET amount = 1 WHERE tenant_id = 1").unwrap();
    s.execute("UPDATE orders SET amount = 1 WHERE tenant_id = 2").unwrap();
    s.execute("UPDATE orders SET amount = 1 WHERE tenant_id = 3").unwrap();
    s.execute("UPDATE orders SET amount = 1 WHERE tenant_id = 4").unwrap();
    s.execute("COMMIT").unwrap();
    // after a healthy 2PC, no prepared transactions linger anywhere
    for node in c.nodes() {
        assert!(node.engine().txns.prepared_gids().is_empty());
    }
    // one commit record for the transaction, kept until a recovery pass
    let mut cs = c.session().unwrap();
    let r = cs.execute("SELECT count(*) FROM pg_dist_transaction").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(1));
    assert_eq!(citrus::recovery::recover_once(&c).unwrap().swept, 1);
    let r = cs.execute("SELECT count(*) FROM pg_dist_transaction").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(0));
}

#[test]
fn single_node_transactions_skip_2pc() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 2 WHERE tenant_id = 5").unwrap();
    s.execute("UPDATE tenants SET name = 'five' WHERE tenant_id = 5").unwrap();
    s.execute("COMMIT").unwrap();
    // co-located single-tenant txn: delegation, no prepared txns ever
    for node in c.nodes() {
        assert!(node.engine().txns.prepared_gids().is_empty());
    }
    let r = s.execute("SELECT name FROM tenants WHERE tenant_id = 5").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("five"));
}

/// A delegated COMMIT is one wire round (`executor_pipeline.rs` pins it), so
/// its cost record is the worker's service time plus exactly one RTT.
#[test]
fn delegated_commit_costs_one_round_trip() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 3 WHERE tenant_id = 5").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(c.metrics.delegated_commits.load(std::sync::atomic::Ordering::Relaxed), 1);
    let cost = s.last_dist_cost();
    let nodes: Vec<NodeId> = cost.per_node.keys().copied().collect();
    assert_eq!(nodes.len(), 1, "{cost:?}");
    assert_ne!(nodes[0], NodeId(0), "the transaction ran on a worker");
    let service = cost.per_node[&nodes[0]].total_ms();
    let rtt = NET_RTT_MS;
    assert_eq!((cost.net_ms, cost.elapsed_ms), (rtt, service + rtt), "{cost:?}");
}

#[test]
fn reference_table_writes_replicate_everywhere() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("INSERT INTO plans VALUES (3, 'enterprise')").unwrap();
    // check each node's replica directly
    let physical = {
        let meta = c.metadata.read();
        let dt = meta.table("plans").unwrap();
        meta.shard(dt.shards[0]).unwrap().physical_name()
    };
    for node in c.nodes() {
        let engine = node.engine();
        let mut ns = engine.session().unwrap();
        let r = ns
            .execute(&format!("SELECT count(*) FROM {physical}"))
            .unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(3), "node {} replica", node.name);
    }
    s.execute("UPDATE plans SET label = 'biz' WHERE plan_id = 3").unwrap();
    s.execute("DELETE FROM plans WHERE plan_id = 1").unwrap();
    let r = s.execute("SELECT count(*) FROM plans").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(2));
}

#[test]
fn reference_table_keeps_unique_columns_like_single_node() {
    let ddl = "CREATE TABLE r (k bigint PRIMARY KEY, email text UNIQUE)";
    let single = pgmini::engine::Engine::new_default();
    let mut os = single.session().unwrap();
    os.execute(ddl).unwrap();
    os.execute("INSERT INTO r VALUES (1, 'a')").unwrap();
    let err = os.execute("INSERT INTO r VALUES (2, 'a')").unwrap_err();
    assert_eq!(err.code, ErrorCode::UniqueViolation);

    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute(ddl).unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("INSERT INTO r VALUES (1, 'a')").unwrap();
    let err = s.execute("INSERT INTO r VALUES (2, 'a')").unwrap_err();
    assert_eq!(err.code, ErrorCode::UniqueViolation, "{}", err.message);
    let r = s.execute("SELECT count(*) FROM r").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(1));
}

/// A unique key without the distribution column could only be enforced
/// shard by shard, so Citus refuses to create one (0A000): when a table is
/// distributed, and when a unique index is added to a distributed table.
/// Keys that include the distribution column, and reference tables, keep
/// their unique keys.
#[test]
fn unique_keys_without_the_distribution_column_are_refused() {
    let c = small_cluster(3);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, u bigint UNIQUE)").unwrap();
    if let Err(e) = s.execute("SELECT create_distributed_table('t', 'k')") {
        assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{}", e.message);
    } else {
        let first = s.execute("INSERT INTO t VALUES (1, 5)").map(|_| ());
        let second = s.execute("INSERT INTO t VALUES (2, 5)").map(|_| ());
        panic!("distributed with an off-key UNIQUE: (1, 5) gave {first:?}, (2, 5) gave {second:?}");
    }
    for (i, ddl) in [
        "CREATE TABLE t{i} (k bigint, u bigint PRIMARY KEY)",
        "CREATE TABLE t{i} (k bigint, u bigint, v bigint, UNIQUE (u, v))",
        "CREATE TABLE t{i} (k bigint, u bigint); CREATE UNIQUE INDEX t{i}_u ON t{i} (u)",
    ]
    .iter()
    .enumerate()
    {
        for stmt in ddl.replace("{i}", &i.to_string()).split("; ") {
            s.execute(stmt).unwrap();
        }
        let e = s.execute(&format!("SELECT create_distributed_table('t{i}', 'k')")).unwrap_err();
        assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{ddl}: {}", e.message);
    }
    // keys that include the distribution column distribute, and a unique
    // index added later must include it too
    s.execute("CREATE TABLE ok (k bigint, u bigint, PRIMARY KEY (u, k), UNIQUE (k))").unwrap();
    s.execute("SELECT create_distributed_table('ok', 'k')").unwrap();
    s.execute("CREATE UNIQUE INDEX ok_ku ON ok (k, u)").unwrap();
    s.execute("CREATE INDEX ok_u ON ok (u)").unwrap();
    let e = s.execute("CREATE UNIQUE INDEX ok_u_unique ON ok (u)").unwrap_err();
    assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{}", e.message);
    s.execute("INSERT INTO ok VALUES (1, 5), (2, 5)").unwrap();
    let r = s.execute("SELECT count(*) FROM ok").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(2));
    // a reference table has one copy of its rows: any unique key holds
    s.execute("CREATE TABLE r (k bigint, u bigint UNIQUE)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("CREATE UNIQUE INDEX r_k ON r (k)").unwrap();
}

/// A table's indexes by what they index, names left out.
fn index_set(engine: &pgmini::engine::Engine, table: &str) -> Vec<String> {
    let indexes = engine.table_meta(table).unwrap().indexes.clone();
    let mut set: Vec<String> = indexes
        .iter()
        .map(|iid| engine.index_meta(*iid).unwrap())
        .map(|i| format!("{:?} {:?} {:?} unique={}", i.method, i.exprs, i.predicate, i.unique))
        .collect();
    set.sort();
    set
}

#[test]
fn worker_added_later_gets_every_reference_table_index() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE r (k bigint PRIMARY KEY, v text)").unwrap();
    // one index made before the table became a reference table, one after
    s.execute("CREATE INDEX r_v ON r (v)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("CREATE INDEX r_g ON r USING gin (v)").unwrap();
    s.execute("INSERT INTO r VALUES (1, 'alpha'), (2, 'beta')").unwrap();
    let physical = {
        let meta = c.metadata.read();
        meta.shard(meta.table("r").unwrap().shards[0]).unwrap().physical_name()
    };
    let shell = index_set(&c.node(NodeId(0)).unwrap().engine(), "r");
    assert_eq!(shell.len(), 3, "{shell:?}");
    for node in c.nodes() {
        assert_eq!(index_set(&node.engine(), &physical), shell, "replica on {}", node.name);
    }
    let added = c.add_worker().unwrap();
    let engine = c.node(added).unwrap().engine();
    assert_eq!(index_set(&engine, &physical), shell, "replica on the added worker");
    let mut ns = engine.session().unwrap();
    let r = ns.execute(&format!("SELECT k FROM {physical} WHERE v LIKE '%lph%'")).unwrap();
    assert_eq!(r.rows(), &[vec![Datum::Int(1)]]);
}

#[test]
fn distributed_copy_routes_rows() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE events (key bigint, payload text)").unwrap();
    s.execute("SELECT create_distributed_table('events', 'key')").unwrap();
    let rows: Vec<Vec<Datum>> = (0..500)
        .map(|i| vec![Datum::Int(i), Datum::text(format!("payload-{i}"))])
        .collect();
    let n = s.copy("events", &[], rows).unwrap();
    assert_eq!(n, 500);
    let r = s.execute("SELECT count(*) FROM events").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(500));
    // rows actually landed on shards across both workers
    let counts = citrus::rebalancer::placement_counts(&c);
    assert_eq!(counts.len(), 2);
    let r = s.execute("SELECT payload FROM events WHERE key = 123").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("payload-123"));
}

/// `t(k bigint, v bigint)` distributed on `k`, empty, on `workers` workers.
fn kv_cluster(workers: u32) -> (Arc<Cluster>, citrus::cluster::ClientSession) {
    let c = small_cluster(workers);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    (c, s)
}

fn kv_rows(n: i64) -> Vec<Vec<Datum>> {
    (0..n).map(|k| vec![Datum::Int(k), Datum::Int(1)]).collect()
}

fn count(s: &mut citrus::cluster::ClientSession, sql: &str) -> i64 {
    s.execute(sql).unwrap().rows()[0][0].as_i64().unwrap()
}

/// Demonstrator: a COPY is a write of the session's transaction, so
/// ROLLBACK undoes it. A COPY that autocommits each shard batch over a
/// connection of its own keeps all 10 rows.
#[test]
fn rolled_back_copy_leaves_no_rows() {
    let (c, mut s) = kv_cluster(2);
    s.execute("BEGIN").unwrap();
    assert_eq!(s.copy("t", &[], kv_rows(10)).unwrap(), 10);
    assert_eq!(count(&mut s, "SELECT count(*) FROM t"), 10, "the transaction sees its own rows");
    s.execute("ROLLBACK").unwrap();
    assert_eq!(count(&mut s, "SELECT count(*) FROM t"), 0);
    // a routed session defers BEGIN until its first statement: a COPY
    // carries it too
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    assert_eq!(mx.copy("t", &[], kv_rows(10)).unwrap(), 10);
    mx.execute("ROLLBACK").unwrap();
    assert_eq!(count(&mut s, "SELECT count(*) FROM t"), 0);
}

/// Demonstrator: a routed session's deferred `BEGIN`, and the end of an
/// empty block, run on no node, so their cost record is empty rather than
/// the statement's before them. A COPY that carries the `BEGIN` reports its
/// own cost.
#[test]
fn deferred_begin_reports_an_empty_cost() {
    let (c, _) = kv_cluster(2);
    let mut mx = c.mx_session();
    let empty = citrus::cost::DistCost::default();
    mx.copy("t", &[], kv_rows(10)).unwrap();
    assert_ne!(mx.last_dist_cost(), empty, "a COPY costs something");
    mx.execute("BEGIN").unwrap();
    assert_eq!(mx.last_dist_cost(), empty, "a deferred BEGIN reported a cost");
    mx.execute("COMMIT").unwrap();
    assert_eq!(mx.last_dist_cost(), empty, "an empty block's COMMIT reported a cost");
    mx.execute("BEGIN").unwrap();
    mx.copy("t", &[], vec![vec![Datum::Int(10), Datum::Int(1)]]).unwrap();
    assert_ne!(mx.last_dist_cost(), empty, "a COPY carrying BEGIN reported no cost");
    mx.execute("ROLLBACK").unwrap();
}

/// Demonstrator: the metadata change of `create_distributed_table` does not
/// roll back, so inside a transaction block it refuses a table with rows
/// (25001) rather than move the rows in a transaction a ROLLBACK undoes.
/// Moving them anyway empties the shell and loses every row on ROLLBACK.
#[test]
fn distributing_a_populated_table_in_a_block_keeps_its_rows() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.copy("t", &[], kv_rows(10)).unwrap();
    s.execute("BEGIN").unwrap();
    let e = s.execute("SELECT create_distributed_table('t', 'k')").unwrap_err();
    assert_eq!(e.code, ErrorCode::ActiveSqlTransaction);
    s.execute("ROLLBACK").unwrap();
    assert!(!c.metadata.read().is_citrus_table("t"));
    assert_eq!(count(&mut s, "SELECT count(*) FROM t"), 10);
    // an empty table still distributes inside a block
    s.execute("CREATE TABLE u (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("SELECT create_distributed_table('u', 'k')").unwrap();
    s.execute("COMMIT").unwrap();
    assert!(c.metadata.read().is_citrus_table("u"));
}

/// Demonstrator: another session sees none of an open transaction's COPY
/// until it commits, then all of it.
#[test]
fn copy_is_invisible_to_other_sessions_until_commit() {
    let (c, mut s) = kv_cluster(2);
    let mut other = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.copy("t", &[], kv_rows(10)).unwrap();
    assert_eq!(count(&mut other, "SELECT count(*) FROM t"), 0);
    s.execute("COMMIT").unwrap();
    assert_eq!(count(&mut other, "SELECT count(*) FROM t"), 10);
}

/// Demonstrator: an autocommit write of several tasks is atomic on one
/// worker too. With 8 shards on one worker, failing the 4th `update`
/// message must not leave the first three shards' rows updated.
#[test]
fn failed_multi_shard_update_on_one_worker_updates_nothing() {
    use netsim::fault::{FaultPlan, FaultRule};
    let (c, mut s) = kv_cluster(1);
    s.copy("t", &[], kv_rows(40)).unwrap();
    let inj =
        c.install_faults(FaultPlan::new().with(FaultRule::stmt_error(1, "update").after(3)), 0);
    let err = s.execute("UPDATE t SET v = v + 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(inj.fired(), 1);
    c.clear_faults();
    assert_eq!(count(&mut s, "SELECT count(*) FROM t WHERE v = 1"), 40);
}

/// The one row partitioner refuses a row without a distribution value, NULL
/// or left out of the column list, with one SQLSTATE and one message.
#[test]
fn copy_refuses_rows_without_a_distribution_value() {
    let (_c, mut s) = kv_cluster(2);
    let refused =
        (ErrorCode::NotNullViolation, "distribution column \"k\" of \"t\" cannot be NULL");
    let null = vec![vec![Datum::Int(1), Datum::Int(1)], vec![Datum::Null, Datum::Int(1)]];
    let e = s.copy("t", &[], null).unwrap_err();
    assert_eq!((e.code, e.message.as_str()), refused);
    let e = s.copy("t", &["v".to_string()], vec![vec![Datum::Int(1)]]).unwrap_err();
    assert_eq!((e.code, e.message.as_str()), refused);
    let e = s.execute("INSERT INTO t VALUES (1, 1), (NULL, 2)").unwrap_err();
    assert_eq!((e.code, e.message.as_str()), refused);
    assert_eq!(count(&mut s, "SELECT count(*) FROM t"), 0, "a refused load loads nothing");
}

#[test]
fn insert_select_strategies() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE raw (device bigint, minute bigint, v float)").unwrap();
    s.execute("SELECT create_distributed_table('raw', 'device')").unwrap();
    s.execute("CREATE TABLE rollup (device bigint, minute bigint, total float)").unwrap();
    s.execute("SELECT create_distributed_table('rollup', 'device', 'raw')").unwrap();
    for d in 0..10i64 {
        for m in 0..4i64 {
            s.execute(&format!("INSERT INTO raw VALUES ({d}, {m}, 1.5)")).unwrap();
        }
    }
    // co-located: group by the distribution column → pushdown strategy
    let r = s
        .execute(
            "INSERT INTO rollup (device, minute, total) \
             SELECT device, minute, sum(v) FROM raw GROUP BY device, minute",
        )
        .unwrap();
    assert_eq!(r.affected(), 40);
    let ext = c.extension(NodeId(0)).unwrap();
    assert_eq!(
        ext.last_insert_select_strategy(s.session_mut().id()),
        Some(citrus::insert_select::InsertSelectStrategy::ColocatedPushdown)
    );
    // non-dist-column grouping → pull to coordinator
    s.execute("CREATE TABLE by_minute (minute bigint, total float)").unwrap();
    s.execute("SELECT create_distributed_table('by_minute', 'minute')").unwrap();
    let r = s
        .execute(
            "INSERT INTO by_minute (minute, total) \
             SELECT minute, sum(v) FROM raw GROUP BY minute",
        )
        .unwrap();
    assert_eq!(r.affected(), 4);
    assert_eq!(
        ext.last_insert_select_strategy(s.session_mut().id()),
        Some(citrus::insert_select::InsertSelectStrategy::PullToCoordinator)
    );
    let r = s.execute("SELECT sum(total) FROM by_minute").unwrap();
    assert_eq!(r.rows()[0][0].as_f64().unwrap(), 60.0);
}

#[test]
fn ddl_propagates_to_shards() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE INDEX orders_amount ON orders (amount)").unwrap();
    // every shard on every worker got the index
    let meta = c.metadata.read();
    let dt = meta.table("orders").unwrap().clone();
    for sid in &dt.shards {
        let shard = meta.shard(*sid).unwrap();
        let node = c.node(shard.placements[0]).unwrap();
        let engine = node.engine();
        let m = engine.table_meta(&shard.physical_name()).unwrap();
        // pk index + the new one
        assert!(m.indexes.len() >= 2, "shard {} missing index", sid.0);
    }
    drop(meta);
    // TRUNCATE propagates
    s.execute("TRUNCATE orders").unwrap();
    let r = s.execute("SELECT count(*) FROM orders").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(0));
    // DROP removes shards and metadata
    s.execute("DROP TABLE orders").unwrap();
    assert!(!c.metadata.read().is_citrus_table("orders"));
    assert!(s.execute("SELECT * FROM orders").is_err());
}

#[test]
fn explain_shows_distributed_plan() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let r = s.execute("EXPLAIN SELECT count(*) FROM orders").unwrap();
    let text = format!("{:?}", r.rows());
    assert!(text.contains("Citrus Adaptive"), "{text}");
    assert!(text.contains("Task Count: 8"), "{text}");
    assert!(text.contains("Logical Pushdown"), "{text}");
    let r = s.execute("EXPLAIN SELECT * FROM orders WHERE tenant_id = 3").unwrap();
    let text = format!("{:?}", r.rows());
    assert!(text.contains("Fast Path"), "{text}");
    assert!(text.contains("Task Count: 1"), "{text}");
}

#[test]
fn non_colocated_join_broadcasts() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE big (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("CREATE TABLE small_t (v bigint, label text)").unwrap();
    // distribute small on v — joining big.v = small_t.v is NOT co-located
    // (different colocation groups via explicit option)
    s.execute("SELECT create_distributed_table('small_t', 'v', 'none')").unwrap();
    for i in 0..50i64 {
        s.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 5)).unwrap();
    }
    for v in 0..5i64 {
        s.execute(&format!("INSERT INTO small_t VALUES ({v}, 'label-{v}')")).unwrap();
    }
    let r = s
        .execute(
            "SELECT s.label, count(*) FROM big b JOIN small_t s ON b.v = s.v \
             GROUP BY s.label ORDER BY 1",
        )
        .unwrap();
    assert_eq!(planner_of(&c, &mut s), PlannerKind::JoinOrder);
    assert_eq!(r.rows().len(), 5);
    assert_eq!(r.rows()[0][1], Datum::Int(10));
    // temp tables cleaned up afterwards
    for node in c.nodes() {
        let names = node.engine().catalog.read().table_names();
        assert!(
            !names.iter().any(|n| n.starts_with("citrus_bcast")),
            "leftover temp tables: {names:?}"
        );
    }
}

/// A repartition join's coordinator merge finishes task rows the way one
/// engine finishes the whole query: sort keys outside the select list, a
/// wildcard's full width, OFFSET applied once, DISTINCT before the window.
#[test]
fn join_order_merges_like_one_node() {
    let c = small_cluster(3);
    let mut s = c.session().unwrap();
    let local = pgmini::engine::Engine::new_default();
    let mut ls = local.session().unwrap();
    for table in ["big (k bigint, v bigint)", "small_t (v bigint, label text)"] {
        let sql = format!("CREATE TABLE {table}");
        s.execute(&sql).unwrap();
        ls.execute(&sql).unwrap();
    }
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("SELECT create_distributed_table('small_t', 'v', 'none')").unwrap();
    // small_t is big enough that hashing both sides moves fewer rows than
    // copying it to all three workers: the planner repartitions
    for i in 0..60i64 {
        let sql = format!("INSERT INTO big VALUES ({i}, {})", i % 40);
        s.execute(&sql).unwrap();
        ls.execute(&sql).unwrap();
    }
    for v in 0..40i64 {
        let sql = format!("INSERT INTO small_t VALUES ({v}, 'label-{}')", v % 6);
        s.execute(&sql).unwrap();
        ls.execute(&sql).unwrap();
    }
    let from = "FROM big b JOIN small_t s ON b.v = s.v";
    let explain = s.execute(&format!("EXPLAIN (DISTRIBUTED) SELECT b.k {from}")).unwrap();
    let plan: Vec<String> = explain.rows().iter().map(|r| r[0].to_text()).collect();
    assert!(plan.iter().any(|l| l.contains("citrus_repart")), "not a repartition: {plan:?}");
    let mut differ = Vec::new();
    for (q, ordered) in [
        (format!("SELECT b.k, s.label {from} ORDER BY b.k LIMIT 7"), true),
        (format!("SELECT b.k, s.label {from} ORDER BY 1 LIMIT 5 OFFSET 3"), true),
        (format!("SELECT s.label {from} ORDER BY b.k DESC LIMIT 4"), true),
        (format!("SELECT b.k, s.label {from} ORDER BY b.k + 0 DESC LIMIT 4"), true),
        (format!("SELECT * {from} ORDER BY 1 LIMIT 3"), true),
        (format!("SELECT * {from} WHERE b.k < 2"), false),
        (format!("SELECT DISTINCT s.label {from} ORDER BY 1 LIMIT 2 OFFSET 1"), true),
    ] {
        let dist = s.execute(&q).unwrap();
        assert_eq!(planner_of(&c, &mut s), PlannerKind::JoinOrder, "{q}");
        let one = ls.execute(&q).unwrap();
        let (mut d, mut o) = (dist.rows().to_vec(), one.rows().to_vec());
        if !ordered {
            d.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            o.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        }
        if d != o || dist.columns() != one.columns() {
            differ.push(format!("{q}\n  cluster:    {d:?}\n  one engine: {o:?}"));
        }
    }
    assert!(differ.is_empty(), "{} of 7 shapes differ:\n{}", differ.len(), differ.join("\n"));
}

/// A join-order statement's elapsed time covers its prep steps. Each
/// source `SELECT *` merges its rows on the coordinator (one tuple charge a
/// row) and waits one round trip; then each moved row is COPYed into a temp
/// table on a worker (its tuple and its WAL record), one temp table after
/// another; then the join's own tasks take one more round trip. So a
/// repartition join moving `n` rows waits at least `3 n` tuple charges and
/// three round trips, however its tasks spread over the workers.
#[test]
fn repartition_join_elapsed_covers_its_temp_table_loads() {
    let c = small_cluster(8);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE big (k bigint, v bigint)").unwrap();
    s.execute("CREATE TABLE small_t (v bigint, label text)").unwrap();
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("SELECT create_distributed_table('small_t', 'v', 'none')").unwrap();
    let (big, small) = (10_000i64, 6_000i64);
    let rows = |n: i64, row: fn(i64) -> String| (0..n).map(row).collect::<Vec<_>>().join(", ");
    s.execute(&format!("INSERT INTO big VALUES {}", rows(big, |i| format!("({i}, {i})"))))
        .unwrap();
    s.execute(&format!("INSERT INTO small_t VALUES {}", rows(small, |v| format!("({v}, 'l')"))))
        .unwrap();
    let q = "SELECT count(*) FROM big b JOIN small_t s ON b.v = s.v";
    let explain = s.execute(&format!("EXPLAIN (DISTRIBUTED) {q}")).unwrap();
    let plan: Vec<String> = explain.rows().iter().map(|r| r[0].to_text()).collect();
    assert!(plan.iter().any(|l| l.contains("citrus_repart")), "not a repartition: {plan:?}");
    let r = s.execute(q).unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(small));
    assert_eq!(planner_of(&c, &mut s), PlannerKind::JoinOrder);
    let cost = s.last_dist_cost();
    let floor = 3.0 * (big + small) as f64 * CPU_TUPLE_MS + 3.0 * NET_RTT_MS;
    assert!(cost.elapsed_ms >= floor, "elapsed {} ms < {floor} ms: {cost:?}", cost.elapsed_ms);
}

/// A temp-table load sends its CREATE TABLE and its COPY in one wire round,
/// and the statement waits for it: a repartition join pays one round per
/// load beyond the exchanges its task batches trace, and its elapsed time
/// holds every load's round trip on top of its subplans' and its own.
#[test]
fn a_temp_table_load_is_one_wire_round_on_the_elapsed_path() {
    use std::sync::atomic::Ordering;
    let c = small_cluster(4);
    c.tracer.set_enabled(true);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE big (k bigint, v bigint)").unwrap();
    s.execute("CREATE TABLE small_t (v bigint, label text)").unwrap();
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("SELECT create_distributed_table('small_t', 'v', 'none')").unwrap();
    let rows = |n: i64, row: fn(i64) -> String| (0..n).map(row).collect::<Vec<_>>().join(", ");
    s.execute(&format!("INSERT INTO big VALUES {}", rows(100, |i| format!("({i}, {i})"))))
        .unwrap();
    s.execute(&format!("INSERT INTO small_t VALUES {}", rows(60, |v| format!("({v}, 'l')"))))
        .unwrap();
    let q = "SELECT count(*) FROM big b JOIN small_t s ON b.v = s.v";
    // each repartition bucket is a temp table of its own on one worker
    let explain = s.execute(&format!("EXPLAIN (DISTRIBUTED) {q}")).unwrap();
    let mut temps: Vec<String> = explain
        .rows()
        .iter()
        .flat_map(|r| r[0].to_text().split(' ').map(str::to_string).collect::<Vec<_>>())
        .filter(|w| w.starts_with("citrus_repart_"))
        .collect();
    temps.sort();
    temps.dedup();
    let loads = temps.len() as u64;
    assert!(loads >= 2, "not a repartition join: {:?}", explain.rows());

    s.execute(q).unwrap(); // warm the connection pool: the run below connects nowhere
    let before = c.metrics.wire_rounds.load(Ordering::Relaxed);
    assert_eq!(s.execute(q).unwrap().rows()[0][0], Datum::Int(60));
    let paid = c.metrics.wire_rounds.load(Ordering::Relaxed) - before;
    let trace = c.tracer.last_statement().expect("statement trace recorded");
    let exchanges: u64 = trace
        .find_all("batch")
        .iter()
        .map(|b| b.field("exchanges").unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(paid, exchanges + loads, "{loads} loads: {}", trace.render());
    let waits = loads + trace.find_all("subplan").len() as u64 + 1;
    let floor = waits as f64 * NET_RTT_MS;
    let cost = s.last_dist_cost();
    assert!(cost.elapsed_ms >= floor, "elapsed {} ms < {floor} ms: {cost:?}", cost.elapsed_ms);
}

/// What one statement gave: rows, an affected count, or a SQLSTATE.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<Vec<Datum>>),
    Affected(u64),
    Refused(&'static str),
}

fn outcome(r: pgmini::error::PgResult<pgmini::session::QueryResult>) -> Outcome {
    match r {
        Ok(pgmini::session::QueryResult::Affected(n)) => Outcome::Affected(n),
        Ok(result) => Outcome::Rows(result.into_rows()),
        Err(e) => Outcome::Refused(e.code.sqlstate()),
    }
}

/// A subquery in any clause plans as on one engine: its tables are found and
/// renamed wherever it sits, one over a distributed table runs first as a
/// subplan, and its result is inlined under one engine's rules. The cluster
/// may refuse a shape with 0A000; it may never return an internal error or a
/// worker's missing relation. Statements run in order on both sides, the
/// writes last, so both hold the same rows throughout.
#[test]
fn every_clause_plans_like_one_node() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    let local = pgmini::engine::Engine::new_default();
    let mut ls = local.session().unwrap();
    let setup = [
        "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)",
        "CREATE TABLE u (k bigint, w bigint)",
        "CREATE TABLE r (x bigint)",
        "CREATE TABLE loc (x bigint)",
        "INSERT INTO loc VALUES (5)",
    ];
    for sql in setup {
        s.execute(sql).unwrap();
        ls.execute(sql).unwrap();
    }
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("SELECT create_distributed_table('u', 'k', 't')").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    for sql in [
        "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
        "INSERT INTO u VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
        "INSERT INTO r VALUES (1), (2)",
    ] {
        s.execute(sql).unwrap();
        ls.execute(sql).unwrap();
    }
    let statements = [
        // WHERE: a subplan below a function call, and beside it
        "SELECT count(*) FROM t WHERE v * 10 > coalesce((SELECT avg(w) FROM u), 0)",
        "SELECT count(*) FROM t WHERE v * 10 > (SELECT avg(w) FROM u)",
        "SELECT count(*) FROM t WHERE k = 2 AND v < (SELECT count(*) FROM r)",
        "SELECT v FROM t WHERE k IN (SELECT k FROM u WHERE w > (SELECT min(w) FROM u)) ORDER BY v",
        // a subquery must return one column, under any operator
        "SELECT k FROM t WHERE v * 10 > (SELECT w, k FROM u ORDER BY w LIMIT 1) ORDER BY k",
        "SELECT k FROM t WHERE v * 10 IN (SELECT w, k FROM u) ORDER BY k",
        // the select list
        "SELECT k, (SELECT count(*) FROM u) FROM t ORDER BY k",
        // ORDER BY and GROUP BY: a constant there is no ordinal
        "SELECT k FROM t WHERE k = 1 ORDER BY (SELECT count(*) FROM r)",
        "SELECT k FROM t WHERE k = 1 ORDER BY (SELECT max(x) FROM loc)",
        "SELECT k FROM t ORDER BY (SELECT count(*) FROM u), k",
        "SELECT k, count(*) FROM t GROUP BY k, (SELECT count(*) FROM r) ORDER BY k",
        // LIMIT and OFFSET are expressions, folded once subplans resolve
        "SELECT k FROM t ORDER BY k LIMIT 1 + 1",
        "SELECT k FROM t ORDER BY k OFFSET 1 + 2",
        "SELECT k FROM t ORDER BY k LIMIT (SELECT 2)",
        "SELECT k FROM t ORDER BY k LIMIT -1",
        "SELECT k FROM t ORDER BY k LIMIT (SELECT count(*) FROM r)",
        "SELECT k FROM t ORDER BY k LIMIT 2 OFFSET (SELECT count(*) FROM u) - 3",
        "SELECT k, count(*) FROM t GROUP BY k ORDER BY k LIMIT 1 + 2",
        // writes: WHERE, SET, VALUES and ON CONFLICT SET
        "DELETE FROM t WHERE v * 10 > coalesce((SELECT avg(w) FROM u), 0)",
        "UPDATE t SET v = (SELECT count(*) FROM r) WHERE k = 1",
        "UPDATE t SET v = v + (SELECT max(w) FROM u) WHERE k = 2",
        "INSERT INTO t VALUES (9, (SELECT count(*) FROM r))",
        "INSERT INTO t VALUES (10, (SELECT max(w) FROM u))",
        "INSERT INTO t VALUES (9, 0) ON CONFLICT (k) DO UPDATE SET v = (SELECT count(*) FROM u)",
        "SELECT k, v FROM t ORDER BY k",
        // a reference-table write repeats on every placement
        "UPDATE r SET x = x + (SELECT count(*) FROM t) WHERE x = 1",
        "DELETE FROM r WHERE x IN (SELECT k FROM t)",
    ];
    let mut differ = Vec::new();
    for sql in statements {
        let (dist, one) = (outcome(s.execute(sql)), outcome(ls.execute(sql)));
        let broken = |o: &Outcome| matches!(o, Outcome::Refused("XX000" | "42P01"));
        let agrees = dist == one || dist == Outcome::Refused("0A000");
        if !agrees || broken(&dist) || broken(&one) {
            differ.push(format!("{sql}\n  cluster:    {dist:?}\n  one engine: {one:?}"));
        }
    }
    assert!(
        differ.is_empty(),
        "{} of {} statements differ:\n{}",
        differ.len(),
        statements.len(),
        differ.join("\n")
    );
}

#[test]
fn distributed_deadlock_detected_and_cancelled() {
    let c = saas_cluster();
    // find two tenants on different nodes
    let (t1, t2) = {
        let meta = c.metadata.read();
        let mut found = None;
        'outer: for a in 1..=20i64 {
            for b in 1..=20i64 {
                if a == b {
                    continue;
                }
                let ba = meta.shard_index_for_value("orders", &Datum::Int(a)).unwrap();
                let bb = meta.shard_index_for_value("orders", &Datum::Int(b)).unwrap();
                let dt = meta.table("orders").unwrap();
                let na = meta.shard(dt.shards[ba]).unwrap().placements[0];
                let nb = meta.shard(dt.shards[bb]).unwrap().placements[0];
                if na != nb {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        found.expect("two tenants on different nodes")
    };
    let c1 = c.clone();
    let c2 = c.clone();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let (b1, b2) = (barrier.clone(), barrier.clone());
    let h1 = std::thread::spawn(move || {
        let mut s = c1.session().unwrap();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("UPDATE orders SET amount = 1 WHERE tenant_id = {t1}")).unwrap();
        b1.wait();
        let r = s.execute(&format!("UPDATE orders SET amount = 1 WHERE tenant_id = {t2}"));
        let _ = s.execute("COMMIT");
        r.map(|_| ())
    });
    let h2 = std::thread::spawn(move || {
        let mut s = c2.session().unwrap();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("UPDATE orders SET amount = 2 WHERE tenant_id = {t2}")).unwrap();
        b2.wait();
        let r = s.execute(&format!("UPDATE orders SET amount = 2 WHERE tenant_id = {t1}"));
        let _ = s.execute("COMMIT");
        r.map(|_| ())
    });
    // run the detector until it fires (the daemon's poll loop)
    let mut victim = None;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if let Some(v) = citrus::deadlock::detect_once(&c).unwrap() {
            victim = Some(v);
            break;
        }
        if h1.is_finished() && h2.is_finished() {
            break;
        }
    }
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    assert!(victim.is_some(), "the distributed deadlock must be detected");
    let failures = [&r1, &r2].iter().filter(|r| r.is_err()).count();
    assert_eq!(failures, 1, "exactly one victim: {r1:?} {r2:?}");
    let err = if r1.is_err() { r1.unwrap_err() } else { r2.unwrap_err() };
    assert_eq!(err.code, ErrorCode::DeadlockDetected);
}

#[test]
fn recovery_commits_in_doubt_transactions() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 99 WHERE tenant_id = 1").unwrap();
    s.execute("UPDATE orders SET amount = 99 WHERE tenant_id = 2").unwrap();
    s.execute("UPDATE orders SET amount = 99 WHERE tenant_id = 3").unwrap();
    s.execute("UPDATE orders SET amount = 99 WHERE tenant_id = 4").unwrap();
    // simulate a coordinator crash between phase 1 and phase 2: run only
    // pre-commit by making every node unreachable for phase 2... instead,
    // manufacture the in-doubt state directly: prepare on workers + commit
    // record, then "lose" the session
    // (drive the same state through the public pieces)
    s.execute("COMMIT").unwrap();

    // now create a genuinely in-doubt prepared transaction by hand
    let meta = c.metadata.read();
    let dt = meta.table("orders").unwrap().clone();
    let shard = meta.shard(dt.shards[0]).unwrap().clone();
    drop(meta);
    let node = c.node(shard.placements[0]).unwrap();
    let engine = node.engine();
    let mut ws = engine.session().unwrap();
    ws.execute("BEGIN").unwrap();
    ws.execute(&format!(
        "UPDATE {} SET amount = 123 WHERE order_id = 2",
        shard.physical_name()
    ))
    .unwrap();
    ws.execute("PREPARE TRANSACTION 'citrus_0_999999_0'").unwrap();
    drop(ws);
    // with a commit record present, recovery must COMMIT PREPARED
    let mut cs = c.session().unwrap();
    cs.execute("INSERT INTO pg_dist_transaction (number) VALUES (999999)").unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.committed, 1, "{stats:?}");
    assert!(engine.txns.prepared_gids().is_empty());

    // and without a record, recovery rolls back
    let mut ws = engine.session().unwrap();
    ws.execute("BEGIN").unwrap();
    ws.execute(&format!(
        "UPDATE {} SET amount = 456 WHERE order_id = 2",
        shard.physical_name()
    ))
    .unwrap();
    ws.execute("PREPARE TRANSACTION 'citrus_0_999998_0'").unwrap();
    drop(ws);
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.rolled_back, 1, "{stats:?}");
}

#[test]
fn rebalancer_moves_shards_to_new_worker() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for i in 0..200i64 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 'v-{i}')")).unwrap();
    }
    let before = s.execute("SELECT count(*) FROM t").unwrap();
    // grow the cluster; the new worker has nothing
    c.add_worker().unwrap();
    let counts = citrus::rebalancer::placement_counts(&c);
    assert_eq!(counts[&NodeId(3)], 0);
    let moves = citrus::rebalancer::rebalance(
        &c,
        &citrus::rebalancer::RebalanceStrategy::ByShardCount,
    )
    .unwrap();
    assert!(!moves.is_empty());
    assert!(moves.iter().all(|m| m.shards_moved > 0));
    let counts = citrus::rebalancer::placement_counts(&c);
    assert!(counts[&NodeId(3)] >= 2, "new worker got shards: {counts:?}");
    // no rows were lost and queries still work
    let after = s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(before.rows(), after.rows());
    let r = s.execute("SELECT v FROM t WHERE k = 123").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("v-123"));
}

#[test]
fn rebalancer_catchup_applies_concurrent_writes() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for i in 0..50i64 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 0)")).unwrap();
    }
    // find the bucket of k=7 and move it while writing to it in between
    let (bucket, from) = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("t", &Datum::Int(7)).unwrap();
        let dt = meta.table("t").unwrap();
        (b, meta.shard(dt.shards[b]).unwrap().placements[0])
    };
    let to = c.worker_ids().into_iter().find(|n| *n != from).unwrap();
    // write after the "initial copy" would have started: rely on move's own
    // delta application by writing immediately before the move
    s.execute("UPDATE t SET v = 42 WHERE k = 7").unwrap();
    let report = citrus::rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap();
    assert!(report.rows_moved > 0);
    let r = s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(42));
    // the shard now lives on the target
    let meta = c.metadata.read();
    let dt = meta.table("t").unwrap();
    assert_eq!(meta.shard(dt.shards[bucket]).unwrap().placements, vec![to]);
}

#[test]
fn ha_failover_preserves_committed_data() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("UPDATE orders SET amount = 777 WHERE tenant_id = 1").unwrap();
    // crash the node holding tenant 1
    let victim = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("orders", &Datum::Int(1)).unwrap();
        let dt = meta.table("orders").unwrap();
        meta.shard(dt.shards[b]).unwrap().placements[0]
    };
    citrus::ha::crash_node(&c, victim).unwrap();
    // queries to that tenant fail while the node is down
    let err = s.execute("SELECT * FROM orders WHERE tenant_id = 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    // promote the standby
    let report = citrus::ha::promote_standby(&c, victim).unwrap();
    assert_eq!(report.node, victim);
    let mut s2 = c.session().unwrap();
    let r = s2
        .execute("SELECT amount FROM orders WHERE tenant_id = 1 AND order_id = 1")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(777.0));
}

#[test]
fn consistent_restore_point_backup() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("UPDATE orders SET amount = 111 WHERE tenant_id = 1").unwrap();
    s.execute("SELECT citus_create_restore_point('backup-1')").unwrap();
    // writes after the restore point must not appear in the restored cluster
    s.execute("UPDATE orders SET amount = 222 WHERE tenant_id = 1").unwrap();
    let backup = citrus::backup::archive(&c);
    let restored = citrus::backup::restore_cluster(&backup, "backup-1").unwrap();
    let mut rs = restored.session().unwrap();
    let r = rs
        .execute("SELECT amount FROM orders WHERE tenant_id = 1 AND order_id = 1")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(111.0));
    let r = rs.execute("SELECT count(*) FROM orders").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(100));
}

#[test]
fn mx_mode_any_node_coordinates() {
    let c = saas_cluster();
    // without MX, clients cannot use workers as coordinators
    c.enable_mx();
    let mut ws = c.session_on(NodeId(1)).unwrap();
    let r = ws.execute("SELECT count(*) FROM orders").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(100));
    let r = ws.execute("SELECT name FROM tenants WHERE tenant_id = 9").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("tenant-9"));
    ws.execute("UPDATE tenants SET name = 'via-worker' WHERE tenant_id = 9").unwrap();
    let mut cs = c.session().unwrap();
    let r = cs.execute("SELECT name FROM tenants WHERE tenant_id = 9").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("via-worker"));
}

#[test]
fn delegated_procedures_run_on_owning_node() {
    let c = saas_cluster();
    citrus::procedures::register_delegated_procedure(
        &c,
        "add_order",
        "orders",
        0, // first argument is the tenant id
        Arc::new(|session, args| {
            let tenant = args[0].as_i64()?;
            let order = args[1].as_i64()?;
            let amount = args[2].as_f64()?;
            session.execute(&format!(
                "INSERT INTO orders VALUES ({order}, {tenant}, {amount})"
            ))?;
            Ok(Datum::Int(order))
        }),
    )
    .unwrap();
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT add_order(3, 99, 12.5)").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(99));
    let r = s
        .execute("SELECT amount FROM orders WHERE tenant_id = 3 AND order_id = 99")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(12.5));
}

#[test]
fn local_tables_coexist_but_cannot_join() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE local_notes (id bigint, note text)").unwrap();
    s.execute("INSERT INTO local_notes VALUES (1, 'hi')").unwrap();
    let r = s.execute("SELECT note FROM local_notes").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("hi"));
    let err = s
        .execute("SELECT * FROM local_notes l JOIN tenants t ON l.id = t.tenant_id")
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::FeatureNotSupported);
}

#[test]
fn correlated_subqueries_unsupported_like_citus_95() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let err = s
        .execute(
            "SELECT name FROM tenants t WHERE tenant_id IN \
             (SELECT o.tenant_id FROM orders o WHERE o.amount > t.tenant_id)",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::FeatureNotSupported);
}

#[test]
fn zero_plus_one_cluster_works() {
    // the smallest Citus cluster: coordinator doubles as the only worker
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 4;
    let c = Cluster::new(cfg);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
    let r = s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(3));
    let r = s.execute("SELECT v FROM t WHERE k = 2").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("b"));
}

#[test]
fn merged_aggregates_answer_with_select_list_names() {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    let names = |r: &pgmini::session::QueryResult| r.columns().to_vec();
    // split aggregation (not grouped by the distribution column): the names
    // come from the select list, aliases first, as on one node
    let r = s
        .execute("SELECT order_id, count(*) AS n, sum(amount) AS total FROM orders GROUP BY order_id")
        .unwrap();
    assert_eq!(planner_of(&c, &mut s), PlannerKind::Pushdown);
    assert_eq!(names(&r), ["order_id", "n", "total"]);
    // no aliases: PostgreSQL's default names, and no hidden sort column
    let r = s
        .execute("SELECT count(*), max(amount) FROM orders GROUP BY order_id ORDER BY order_id")
        .unwrap();
    assert_eq!(names(&r), ["count", "max"]);
    assert_eq!(r.rows()[0].len(), 2);
}

/// Rows under their column names, or a refusal's SQLSTATE and message.
type Answer = Result<(Vec<String>, Vec<Vec<Datum>>), (&'static str, String)>;

fn answer(r: pgmini::error::PgResult<pgmini::session::QueryResult>) -> Answer {
    r.map(|q| (q.columns().to_vec(), q.into_rows())).map_err(|e| (e.code.sqlstate(), e.message))
}

/// The coordinator's partial/final split answers an aggregate query as one
/// engine does, on a heap and on a columnar anchor: DISTINCT aggregates over
/// the key combine by their kind (a max of maxima, not a sum), a DISTINCT
/// min or max off the key combines as the plain one (DISTINCT moves no
/// extreme), HAVING takes
/// any predicate over aggregates, ORDER BY may sort by an aggregate outside
/// the select list, and a misplaced ordinal or a bare column is refused with
/// one engine's SQLSTATE and message.
#[test]
fn aggregate_splits_answer_like_one_node() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    let local = pgmini::engine::Engine::new_default();
    let mut ls = local.session().unwrap();
    for (table, using) in [("t", ""), ("col", " USING columnar")] {
        let ddl = format!("CREATE TABLE {table} (k bigint, v bigint, w text){using}");
        s.execute(&ddl).unwrap();
        ls.execute(&ddl).unwrap();
        s.execute(&format!("SELECT create_distributed_table('{table}', 'k')")).unwrap();
        let rows: Vec<String> = (1..=40).map(|k| format!("({k}, {}, 'x{}')", k % 3, k % 5)).collect();
        let insert = format!("INSERT INTO {table} VALUES {}", rows.join(", "));
        s.execute(&insert).unwrap();
        ls.execute(&insert).unwrap();
    }
    let mut differ = Vec::new();
    let mut statements = 0;
    for table in ["t", "col"] {
        for sql in [
            "SELECT min(DISTINCT k), max(DISTINCT k), avg(DISTINCT k) FROM {t}",
            "SELECT count(DISTINCT k), sum(DISTINCT k), avg(k) FROM {t}",
            "SELECT v, min(DISTINCT k), max(DISTINCT k), avg(DISTINCT k) FROM {t} \
             GROUP BY v ORDER BY v",
            "SELECT max(DISTINCT w), min(DISTINCT v) FROM {t}",
            "SELECT v, min(DISTINCT w), max(DISTINCT w) FROM {t} GROUP BY v ORDER BY v",
            "SELECT v, count(*) FROM {t} GROUP BY v HAVING count(*) IN (14, 15) ORDER BY v",
            "SELECT v, count(*) FROM {t} GROUP BY v HAVING count(*) BETWEEN 12 AND 13 ORDER BY v",
            "SELECT v, max(w) FROM {t} GROUP BY v HAVING max(w) LIKE 'x4' ORDER BY v",
            "SELECT v, count(*) FROM {t} GROUP BY v ORDER BY sum(k) DESC",
            "SELECT v, count(*) FROM {t} GROUP BY 0",
            "SELECT v, count(*) FROM {t} GROUP BY v ORDER BY 3",
            "SELECT v, w, count(*) FROM {t} GROUP BY v",
        ] {
            let sql = sql.replace("{t}", table);
            let (dist, one) = (answer(s.execute(&sql)), answer(ls.execute(&sql)));
            if dist != one {
                differ.push(format!("{sql}\n  cluster:    {dist:?}\n  one engine: {one:?}"));
            }
            statements += 1;
        }
    }
    assert!(
        differ.is_empty(),
        "{} of {statements} statements differ:\n{}",
        differ.len(),
        differ.join("\n")
    );
}

/// A split float `sum` or `avg` adds per-shard partial sums on the
/// coordinator, where one engine adds the rows in scan order, so the two can
/// differ in the last bits (DESIGN.md §5.1): across 8 shards they agree
/// within 1e-12 relative, on a heap and on a columnar anchor.
#[test]
fn split_float_averages_match_one_engine_to_rounding() {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    let local = pgmini::engine::Engine::new_default();
    let mut ls = local.session().unwrap();
    for (table, using) in [("t", ""), ("col", " USING columnar")] {
        let ddl = format!("CREATE TABLE {table} (k bigint, v bigint, f float){using}");
        s.execute(&ddl).unwrap();
        ls.execute(&ddl).unwrap();
        s.execute(&format!("SELECT create_distributed_table('{table}', 'k')")).unwrap();
        let rows: Vec<String> = (1..=400).map(|k| format!("({k}, {}, {k} * 0.1)", k % 3)).collect();
        let insert = format!("INSERT INTO {table} VALUES {}", rows.join(", "));
        s.execute(&insert).unwrap();
        ls.execute(&insert).unwrap();
        let sql = format!("SELECT v, avg(f), sum(f) FROM {table} GROUP BY v ORDER BY v");
        let (dist, one) = (s.execute(&sql).unwrap().into_rows(), ls.execute(&sql).unwrap().into_rows());
        assert_eq!(dist.len(), 3, "{sql}");
        for (d, o) in dist.iter().zip(&one) {
            assert_eq!(d[0], o[0], "{sql}");
            for (x, y) in d[1..].iter().zip(&o[1..]) {
                let (x, y) = (x.as_f64().unwrap(), y.as_f64().unwrap());
                assert!((x - y).abs() <= 1e-12 * y.abs(), "{sql}: cluster {x}, one engine {y}");
            }
        }
    }
}

// ---------------- closing a session releases what it pooled ----------------

/// `t(k, v)` distributed on `k` over two workers, rows k = 0..40.
fn churn_cluster() -> Arc<Cluster> {
    let c = small_cluster(2);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    c
}

/// Reserved slots of the shared connection limit, per worker.
fn connections(c: &Arc<Cluster>) -> Vec<u32> {
    c.worker_ids().iter().map(|w| c.connections_to(*w)).collect()
}

#[test]
fn session_churn_leaves_worker_connections_flat() {
    let c = churn_cluster();
    assert_eq!(connections(&c), [0, 0], "the loading session gave its connections back");
    // what one open session holds after one multi-shard read
    let one_session = |c: &Arc<Cluster>| {
        let mut s = c.session().unwrap();
        assert_eq!(s.execute("SELECT count(*) FROM t").unwrap().rows()[0][0], Datum::Int(40));
        connections(c)
    };
    let first = one_session(&c);
    assert!(first.iter().all(|n| *n >= 1), "{first:?}");
    // more cycles than the shared limit has slots
    for cycle in 0..600 {
        assert_eq!(one_session(&c), first, "cycle {cycle}");
    }
    assert_eq!(connections(&c), [0, 0]);
}

#[test]
fn refresh_on_read_leaves_worker_connections_flat() {
    let c = churn_cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE ROLLUP t_by_v AS SELECT v, count(*) AS n FROM t GROUP BY v").unwrap();
    // every read finds the rollup stale and refreshes it through a session
    // of its own
    let mut cycle = |k: i64| {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k % 3)).unwrap();
        let r = s.execute("SELECT sum(n) FROM t_by_v").unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), k + 1);
        connections(&c)
    };
    let warm = (40..60).map(&mut cycle).last().unwrap();
    for k in 60..760 {
        assert_eq!(cycle(k), warm, "after {} refreshes", k - 39);
    }
}

#[test]
fn stat_activity_forgets_a_closed_session() {
    let c = churn_cluster();
    let mut gone = c.session().unwrap();
    gone.execute("SELECT count(*) FROM t").unwrap();
    let gone_pid = gone.session_mut().id() as i64;
    let mut s = c.session().unwrap();
    s.execute("SELECT count(*) FROM t").unwrap();
    let own_pid = s.session_mut().id() as i64;
    let pids = |s: &mut citrus::cluster::ClientSession| -> Vec<i64> {
        let r = s.execute("SELECT pid FROM citus_stat_activity ORDER BY pid").unwrap();
        r.rows().iter().map(|row| row[0].as_i64().unwrap()).collect()
    };
    assert!(pids(&mut s).contains(&gone_pid));
    drop(gone);
    let listed = pids(&mut s);
    assert!(listed.contains(&own_pid) && !listed.contains(&gone_pid), "{listed:?}");
}

/// Characterisation (holds before and after `session_closed`): the rollback
/// a dropped session runs reaches every worker its transaction touched.
#[test]
fn session_dropped_in_a_multi_node_transaction_leaves_nothing_open() {
    let c = churn_cluster();
    let mut s = c.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = 2").unwrap();
    let engines: Vec<_> =
        c.worker_ids().iter().map(|w| c.node(*w).unwrap().engine()).collect();
    for e in &engines {
        assert!(e.txns.active_count() >= 1 && !e.locks.lock_report().is_empty());
    }
    drop(s);
    for e in &engines {
        assert_eq!(e.txns.active_count(), 0, "a remote transaction stayed open");
        assert!(e.locks.lock_report().is_empty(), "{:?}", e.locks.lock_report());
        assert!(e.txns.prepared_gids().is_empty());
    }
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT count(*) FROM t WHERE v = 2").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(0), "the update rolled back");
}

// ---------------- one co-location judgement: demonstrators ----------------

/// `saas_cluster` plus a co-located `sink` and a reference table `tags` that
/// deliberately has a column named like the distribution key.
fn judgement_cluster() -> Arc<Cluster> {
    let c = saas_cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE sink (tenant_id bigint, order_id bigint)").unwrap();
    s.execute("SELECT create_distributed_table('sink', 'tenant_id', 'tenants')").unwrap();
    s.execute("CREATE TABLE tags (tag_id bigint PRIMARY KEY, tenant_id bigint)").unwrap();
    s.execute("SELECT create_reference_table('tags')").unwrap();
    s.execute("INSERT INTO tags VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)").unwrap();
    c
}

fn sorted_ints(r: &pgmini::session::QueryResult) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> =
        r.rows().iter().map(|row| row.iter().map(|d| d.as_i64().unwrap()).collect()).collect();
    rows.sort();
    rows
}

/// Demonstrator H: the key is a column *of a distributed relation*, not any
/// column called like it — grouping by the reference table's `tenant_id`
/// needs the coordinator merge.
#[test]
fn group_by_reference_column_named_like_the_key_is_merged() {
    let c = judgement_cluster();
    let mut s = c.session().unwrap();
    let r = s
        .execute(
            "SELECT g.tenant_id, count(*) FROM orders o JOIN tags g ON o.order_id = g.tag_id \
             GROUP BY g.tenant_id",
        )
        .unwrap();
    assert_eq!(sorted_ints(&r), (1..=5).map(|k| vec![k, 20]).collect::<Vec<_>>());
    let plan = s
        .execute(
            "EXPLAIN SELECT g.tenant_id, count(*) FROM orders o JOIN tags g \
             ON o.order_id = g.tag_id GROUP BY g.tenant_id",
        )
        .unwrap();
    let text: Vec<String> = plan.rows().iter().map(|r| r[0].to_text()).collect();
    assert!(text.iter().any(|l| l.contains("partial aggregation on coordinator")), "{text:?}");
}

/// Demonstrator A: the same aggregate as a FROM-subquery needs a merge below
/// the top level — refused with the reason, never 40 rows.
#[test]
fn subquery_grouped_by_reference_column_is_refused() {
    let c = judgement_cluster();
    let mut s = c.session().unwrap();
    let e = s
        .execute(
            "SELECT x.tenant_id, x.n FROM (SELECT g.tenant_id, count(*) AS n FROM orders o \
             JOIN tags g ON o.order_id = g.tag_id GROUP BY g.tenant_id) x",
        )
        .unwrap_err();
    assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{e:?}");
    assert!(e.message.contains("GROUP BY the distribution column"), "{e:?}");
}

/// Demonstrator G: a FROM-subquery is judged wherever it sits in the join
/// tree. The aggregate not grouped by the key is refused in both spellings;
/// the one grouped by and joined on the key is accepted in both.
#[test]
fn from_subquery_inside_a_join_tree_is_judged() {
    let c = judgement_cluster();
    let mut s = c.session().unwrap();
    let unsafe_sub = "(SELECT order_id, count(*) AS n FROM orders GROUP BY order_id) x";
    let mut reasons = Vec::new();
    for sql in [
        format!("SELECT t.tenant_id, x.n FROM tenants t JOIN {unsafe_sub} ON t.tenant_id = x.order_id"),
        format!("SELECT t.tenant_id, x.n FROM tenants t, {unsafe_sub} WHERE t.tenant_id = x.order_id"),
    ] {
        let e = s.execute(&sql).unwrap_err();
        assert_eq!(e.code, ErrorCode::FeatureNotSupported, "{sql}: {e:?}");
        reasons.push(e.message);
    }
    assert_eq!(reasons[0], reasons[1]);

    let safe_sub = "(SELECT tenant_id, count(*) AS n FROM orders GROUP BY tenant_id) x";
    for sql in [
        format!("SELECT t.tenant_id, x.n FROM tenants t JOIN {safe_sub} ON t.tenant_id = x.tenant_id"),
        format!("SELECT t.tenant_id, x.n FROM tenants t, {safe_sub} WHERE t.tenant_id = x.tenant_id"),
    ] {
        let r = s.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        assert_eq!(planner_of(&c, &mut s), PlannerKind::Pushdown);
        assert_eq!(sorted_ints(&r), (1..=20).map(|t| vec![t, 5]).collect::<Vec<_>>(), "{sql}");
    }
}
