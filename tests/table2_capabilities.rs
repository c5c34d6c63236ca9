//! Table 2, executed: every capability the paper's workload patterns require
//! is exercised against a live cluster. Each test is one row of the table.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use pgmini::types::Datum;
use std::sync::Arc;

fn cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    let c = Cluster::new(cfg);
    c.add_worker().unwrap();
    c.add_worker().unwrap();
    c
}

#[test]
fn distributed_tables() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    assert!(c.metadata.read().is_citrus_table("t"));
    assert_eq!(c.metadata.read().table("t").unwrap().shards.len(), 8);
}

#[test]
fn colocated_distributed_tables() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE a (k bigint)").unwrap();
    s.execute("SELECT create_distributed_table('a', 'k')").unwrap();
    s.execute("CREATE TABLE b (k bigint)").unwrap();
    s.execute("SELECT create_distributed_table('b', 'k', 'a')").unwrap();
    let meta = c.metadata.read();
    assert_eq!(
        meta.table("a").unwrap().colocation_id,
        meta.table("b").unwrap().colocation_id
    );
}

#[test]
fn reference_tables() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE dims (id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('dims')").unwrap();
    s.execute("INSERT INTO dims VALUES (1, 'x')").unwrap();
    let meta = c.metadata.read();
    let shard = meta.shard(meta.table("dims").unwrap().shards[0]).unwrap();
    assert_eq!(shard.placements.len(), 3, "replicated to every node");
}

#[test]
fn local_tables_coexist() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE local_cfg (k text PRIMARY KEY, v text)").unwrap();
    s.execute("INSERT INTO local_cfg VALUES ('a', '1')").unwrap();
    let r = s.execute("SELECT v FROM local_cfg WHERE k = 'a'").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("1"));
}

#[test]
fn distributed_transactions() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..32i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 0)")).unwrap();
    }
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = 1 WHERE k = 1").unwrap();
    s.execute("UPDATE t SET v = 1 WHERE k = 9").unwrap();
    s.execute("UPDATE t SET v = 1 WHERE k = 17").unwrap();
    s.execute("COMMIT").unwrap();
    let r = s.execute("SELECT sum(v) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(3));
}

#[test]
fn distributed_schema_changes() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("CREATE INDEX t_v ON t (v)").unwrap();
    // every shard received the index
    let meta = c.metadata.read();
    for sid in &meta.table("t").unwrap().shards {
        let shard = meta.shard(*sid).unwrap();
        let e = c.node(shard.placements[0]).unwrap().engine();
        let m = e.table_meta(&shard.physical_name()).unwrap();
        assert!(!m.indexes.is_empty());
    }
}

#[test]
fn query_routing() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (7, 'hi')").unwrap();
    s.execute("SELECT v FROM t WHERE k = 7").unwrap();
    let ext = c.extension(NodeId(0)).unwrap();
    assert_eq!(
        ext.last_planner_kind(s.session_mut().id()),
        Some(citrus::PlannerKind::FastPath)
    );
}

#[test]
fn parallel_distributed_select() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..64i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {k})")).unwrap();
    }
    let r = s.execute("SELECT count(*), sum(v) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(64));
    let ext = c.extension(NodeId(0)).unwrap();
    assert_eq!(
        ext.last_planner_kind(s.session_mut().id()),
        Some(citrus::PlannerKind::Pushdown)
    );
}

#[test]
fn parallel_distributed_dml() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE raw (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('raw', 'k')").unwrap();
    s.execute("CREATE TABLE rollup (k bigint, total bigint)").unwrap();
    s.execute("SELECT create_distributed_table('rollup', 'k', 'raw')").unwrap();
    for k in 0..32i64 {
        s.execute(&format!("INSERT INTO raw VALUES ({k}, 1), ({k}, 2)")).unwrap();
    }
    // multi-shard UPDATE
    let n = s.execute("UPDATE raw SET v = v + 10 WHERE v = 1").unwrap().affected();
    assert_eq!(n, 32);
    // co-located INSERT..SELECT
    let n = s
        .execute("INSERT INTO rollup (k, total) SELECT k, sum(v) FROM raw GROUP BY k")
        .unwrap()
        .affected();
    assert_eq!(n, 32);
}

#[test]
fn colocated_distributed_joins() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE a (k bigint, x bigint)").unwrap();
    s.execute("SELECT create_distributed_table('a', 'k')").unwrap();
    s.execute("CREATE TABLE b (k bigint, y bigint)").unwrap();
    s.execute("SELECT create_distributed_table('b', 'k', 'a')").unwrap();
    for k in 0..20i64 {
        s.execute(&format!("INSERT INTO a VALUES ({k}, {k})")).unwrap();
        s.execute(&format!("INSERT INTO b VALUES ({k}, {})", k * 2)).unwrap();
    }
    let r = s
        .execute("SELECT count(*) FROM a JOIN b ON a.k = b.k WHERE a.x < 10")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(10));
}

#[test]
fn non_colocated_distributed_joins() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE big (k bigint, x bigint)").unwrap();
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("CREATE TABLE other (x bigint, label text)").unwrap();
    s.execute("SELECT create_distributed_table('other', 'x', 'none')").unwrap();
    for k in 0..30i64 {
        s.execute(&format!("INSERT INTO big VALUES ({k}, {})", k % 3)).unwrap();
    }
    for x in 0..3i64 {
        s.execute(&format!("INSERT INTO other VALUES ({x}, 'l{x}')")).unwrap();
    }
    let r = s
        .execute(
            "SELECT o.label, count(*) FROM big b JOIN other o ON b.x = o.x \
             GROUP BY o.label ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][1], Datum::Int(10));
}

#[test]
fn columnar_storage() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE facts (k bigint, v float)").unwrap();
    c.coordinator().engine().set_columnar("facts").unwrap();
    s.execute("INSERT INTO facts VALUES (1, 0.5), (2, 1.5)").unwrap();
    let r = s.execute("SELECT sum(v) FROM facts").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(2.0));
}

#[test]
fn parallel_bulk_loading() {
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..1000).map(|i| vec![Datum::Int(i), Datum::text(format!("v{i}"))]).collect();
    let n = s.copy("t", &[], rows).unwrap();
    assert_eq!(n, 1000);
    let r = s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(1000));
}

#[test]
fn connection_scaling() {
    // MX mode: any node coordinates, spreading client connections
    let c = cluster();
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    c.enable_mx();
    for node in c.node_ids() {
        let mut ws = c.session_on(node).unwrap();
        let r = ws.execute("SELECT v FROM t WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(10), "via node {}", node.0);
    }
    // and the shared connection limit is enforced cluster-wide
    assert!(c.connection_limit() > 0);
}
