//! Plan once, bind many, end to end: `$n` parameters on distributed tables,
//! and the workers' local plan caches under a shard move.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use citrus::planner::PlannerKind;
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use std::sync::Arc;

fn cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint, note text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..32i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {}, 'n{k}')", k * 10)).unwrap();
    }
    c
}

fn last_tier(c: &Arc<Cluster>, s: &mut citrus::cluster::ClientSession) -> PlannerKind {
    let ext = c.extension(s.node()).unwrap();
    ext.last_planner_kind(s.session_mut().id()).expect("a distributed statement ran")
}

#[test]
fn params_bind_on_distributed_tables() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let int = Datum::Int;

    // fast path: SELECT, UPDATE, INSERT, DELETE on one key
    let r = s.execute_with_params("SELECT v FROM t WHERE k = $1", &[int(3)]).unwrap();
    assert_eq!(r.rows(), &[vec![int(30)]]);
    assert_eq!(last_tier(&c, &mut s), PlannerKind::FastPath);
    let r = s
        .execute_with_params("UPDATE t SET v = v + $2, note = $3 WHERE k = $1", &[
            int(3),
            int(5),
            Datum::from_text("it's"),
        ])
        .unwrap();
    assert_eq!(r.affected(), 1);
    assert_eq!(last_tier(&c, &mut s), PlannerKind::FastPath);
    let r = s
        .execute_with_params("INSERT INTO t VALUES ($1, $2, $3)", &[int(100), int(7), Datum::Null])
        .unwrap();
    assert_eq!(r.affected(), 1);
    assert_eq!(last_tier(&c, &mut s), PlannerKind::FastPath);
    let r = s.execute("SELECT k, v, note FROM t WHERE k IN (3, 100) ORDER BY k").unwrap();
    assert_eq!(
        r.rows(),
        &[vec![int(3), int(35), Datum::from_text("it's")], vec![int(100), int(7), Datum::Null]]
    );
    let r = s.execute_with_params("DELETE FROM t WHERE k = $1", &[int(100)]).unwrap();
    assert_eq!(r.affected(), 1);

    // multi-shard: the parameter is not on the distribution column
    let r = s
        .execute_with_params("SELECT count(*), sum(v) FROM t WHERE v >= $1 AND v < $2", &[
            int(100),
            Datum::Float(200.0),
        ])
        .unwrap();
    assert_eq!(r.rows(), &[vec![int(10), int(1450)]]);
    assert_eq!(last_tier(&c, &mut s), PlannerKind::Pushdown);

    // types without literal syntax travel as casts
    let ts = Datum::Timestamp(pgmini::types::time::parse_timestamp("2021-03-04 05:06:07").unwrap());
    let r = s.execute_with_params("SELECT $1 FROM t WHERE k = 1", std::slice::from_ref(&ts)).unwrap();
    assert_eq!(r.rows(), &[vec![ts]]);

    // a missing value is the caller's error, on any table
    let err = s.execute_with_params("SELECT v FROM t WHERE k = $1 AND v = $2", &[int(1)]).unwrap_err();
    assert_eq!(err.code, ErrorCode::InvalidParameter);
    assert!(err.message.contains("$2"), "{}", err.message);

    // an MX session: a metadata-synced worker takes the client's statement
    c.enable_mx();
    let mut mx = c.session_on(NodeId(1)).unwrap();
    let r = mx.execute_with_params("SELECT v FROM t WHERE k = $1", &[int(4)]).unwrap();
    assert_eq!(r.rows(), &[vec![int(40)]]);
    assert_eq!(last_tier(&c, &mut mx), PlannerKind::FastPath);
    let r = mx.execute_with_params("UPDATE t SET v = $1 WHERE k = $2", &[int(-1), int(4)]).unwrap();
    assert_eq!(r.affected(), 1);
    assert_eq!(s.execute("SELECT v FROM t WHERE k = 4").unwrap().rows(), &[vec![int(-1)]]);
}

/// The statements a shard keeps seeing, warm on whichever node holds it.
fn touch(s: &mut citrus::cluster::ClientSession, k: i64, expect_v: i64) {
    let r = s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
    assert_eq!(r.rows(), &[vec![Datum::Int(expect_v)]], "k = {k}");
    let r = s.execute(&format!("UPDATE t SET v = v + 1 WHERE k = {k}")).unwrap();
    assert_eq!(r.affected(), 1);
}

#[test]
fn shard_moves_invalidate_the_plans_of_both_ends() {
    let c = cluster();
    let mut s = c.session().unwrap();
    let (bucket, home) = {
        let meta = c.metadata.read();
        let b = meta.shard_index_for_value("t", &Datum::Int(7)).unwrap();
        let dt = meta.table("t").unwrap();
        (b, meta.shard(dt.shards[b]).unwrap().placements[0])
    };
    let away = c.worker_ids().into_iter().find(|n| *n != home).unwrap();
    let engine = |n: NodeId| c.node(n).unwrap().engine();

    // warm at home
    touch(&mut s, 7, 70);
    touch(&mut s, 7, 71);
    let warm_home = engine(home).plan_cache_stats();
    assert!(warm_home.hits >= 2, "{warm_home:?}");

    // move away: the target plans the shard's shapes for its own new table
    citrus::rebalancer::move_shard_group(&c, "t", bucket, home, away).unwrap();
    touch(&mut s, 7, 72);
    touch(&mut s, 7, 73);
    assert!(engine(away).plan_cache_stats().hits >= 2);

    // and back: home still holds the plans of the table it dropped — same
    // shard name, same shapes, another table now
    let stale = engine(home).plan_cache_stats();
    citrus::rebalancer::move_shard_group(&c, "t", bucket, away, home).unwrap();
    touch(&mut s, 7, 74);
    touch(&mut s, 7, 75);
    let after = engine(home).plan_cache_stats();
    assert!(after.invalidations >= stale.invalidations + 2, "{stale:?} -> {after:?}");
    assert_eq!(s.execute("SELECT v FROM t WHERE k = 7").unwrap().rows(), &[vec![Datum::Int(76)]]);
    let r = s.execute("SELECT count(*), sum(v) FROM t").unwrap();
    assert_eq!(r.rows(), &[vec![Datum::Int(32), Datum::Int(4960 + 6)]]);

    // the per-node counters add up in the cluster's view
    let total = c.shard_plan_cache_stats();
    let by_node = c.nodes().iter().map(|n| n.engine().plan_cache_stats().hits).sum::<u64>();
    assert_eq!(total.hits, by_node);
    assert!(total.entries > 0 && total.invalidations >= 2, "{total:?}");
}
