//! Differential-oracle coverage for distributed INSERT .. SELECT (all three
//! §3.8 strategies), TPC-C stored-procedure delegation (§4.1), and the
//! soundness wall of the co-location judgement: generated joins, subqueries,
//! GROUP BYs and INSERT .. SELECTs are either refused (0A000) or equal to the
//! single-node oracle.
//!
//! Every write goes through [`MirrorRunner`], which executes it on the
//! cluster and on a single-node pgmini oracle and compares affected counts;
//! verification reads compare full result sets. Procedure calls only exist
//! on the cluster, so their bodies are mirrored on the oracle as the
//! equivalent inline SQL with the same fixed parameters.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::insert_select::InsertSelectStrategy;
use citrus::metadata::NodeId;
use pgmini::engine::Engine;
use pgmini::session::QueryResult;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use std::sync::Arc;
use workloads::runner::{ClusterRunner, LocalRunner, SqlRunner};
use workloads::sim::MirrorRunner;
use workloads::tpcc::{self, TpccConfig};

fn mirror(workers: usize) -> (Arc<Cluster>, MirrorRunner) {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    let oracle = Engine::new_default();
    let dist = ClusterRunner { session: c.session().unwrap() };
    let local = LocalRunner { session: oracle.session().unwrap() };
    (c, MirrorRunner::new(dist, local))
}

fn strategy(c: &Arc<Cluster>, m: &mut MirrorRunner) -> Option<InsertSelectStrategy> {
    let ext = c.extension(NodeId(0)).unwrap();
    ext.last_insert_select_strategy(m.dist.session_id().expect("cluster runner has a session"))
}

#[test]
fn insert_select_strategies_match_oracle() {
    let (c, mut m) = mirror(2);
    m.run("CREATE TABLE src (k bigint, v bigint)").unwrap();
    m.run("SELECT create_distributed_table('src', 'k')").unwrap();
    m.run("CREATE TABLE dst (k bigint, v bigint)").unwrap();
    m.run("SELECT create_distributed_table('dst', 'k', 'src')").unwrap();
    m.run("CREATE TABLE agg (v bigint, total bigint)").unwrap();
    m.run("SELECT create_distributed_table('agg', 'v')").unwrap();
    for k in 0..50i64 {
        m.run(&format!("INSERT INTO src VALUES ({k}, {})", k % 7)).unwrap();
    }

    // 1. co-located pushdown: dist column fed by the source's dist column
    let r = m.run("INSERT INTO dst SELECT k, v FROM src").unwrap();
    assert_eq!(r.affected(), 50);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::ColocatedPushdown));
    m.run("SELECT k, v FROM dst ORDER BY k").unwrap();

    // 2. repartition: co-located source, but the target's dist column is fed
    // by a non-distribution column, so rows land in foreign shards
    let r = m.run("INSERT INTO dst (k, v) SELECT v, k FROM src").unwrap();
    assert_eq!(r.affected(), 50);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::Repartition));
    m.run("SELECT k, count(*) FROM dst GROUP BY k ORDER BY k").unwrap();

    // 3. pull to coordinator: grouping on a non-dist column forces a
    // coordinator merge before the rows can be distributed again
    let r = m.run("INSERT INTO agg (v, total) SELECT v, sum(k) FROM src GROUP BY v").unwrap();
    assert_eq!(r.affected(), 7);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::PullToCoordinator));
    m.run("SELECT v, total FROM agg ORDER BY v").unwrap();
    m.run("SELECT sum(total) FROM agg").unwrap();

    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
    assert!(m.reads_checked >= 4 && m.writes_checked >= 53);
}

/// Demonstrator: the repartition and pull-to-coordinator strategies load
/// inside the statement's transaction, so ROLLBACK undoes them. A load that
/// autocommits per shard batch, or an `ON CONFLICT` load of one autocommit
/// upsert per row, keeps its rows.
#[test]
fn rolled_back_insert_select_loads_leave_nothing() {
    let (c, mut m) = mirror(2);
    m.run("CREATE TABLE a (k bigint, v bigint)").unwrap();
    m.run("SELECT create_distributed_table('a', 'k')").unwrap();
    m.run("CREATE TABLE b (k bigint, v bigint)").unwrap();
    m.run("SELECT create_distributed_table('b', 'k', 'a')").unwrap();
    m.run("CREATE TABLE agg (v bigint PRIMARY KEY, total bigint)").unwrap();
    m.run("SELECT create_distributed_table('agg', 'v')").unwrap();
    for k in 0..10i64 {
        m.run(&format!("INSERT INTO a VALUES ({k}, {})", k % 3)).unwrap();
    }
    m.run("INSERT INTO agg VALUES (0, -1), (1, -1)").unwrap();

    m.run("BEGIN").unwrap();
    let r = m.run("INSERT INTO b (k, v) SELECT v + 100, k FROM a").unwrap();
    assert_eq!(r.affected(), 10);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::Repartition));
    m.run("ROLLBACK").unwrap();
    let r = m.run("SELECT count(*) FROM b").unwrap();
    assert_eq!(r.rows()[0][0], pgmini::types::Datum::Int(0));

    let upsert = "INSERT INTO agg (v, total) SELECT v, sum(k) FROM a GROUP BY v \
                  ON CONFLICT (v) DO UPDATE SET total = excluded.total";
    let before = m.run("SELECT v, total FROM agg ORDER BY v").unwrap();
    m.run("BEGIN").unwrap();
    assert_eq!(m.run(upsert).unwrap().affected(), 3);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::PullToCoordinator));
    m.run("SELECT v, total FROM agg ORDER BY v").unwrap();
    m.run("ROLLBACK").unwrap();
    let after = m.run("SELECT v, total FROM agg ORDER BY v").unwrap();
    assert_eq!(after.rows(), before.rows());
    // committed, the per-bucket upserts equal the oracle's
    assert_eq!(m.run(upsert).unwrap().affected(), 3);
    m.run("SELECT v, total FROM agg ORDER BY v").unwrap();
    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
}

/// The schema the co-location judgement's demonstrators run on: `tenants`,
/// `orders` and `sink` co-located on `tenant_id` (20 tenants × 5 orders), and
/// a reference table `tags` with a column named like the key.
fn judgement_schema(m: &mut MirrorRunner) {
    m.run("CREATE TABLE tenants (tenant_id bigint PRIMARY KEY, name text)").unwrap();
    m.run("SELECT create_distributed_table('tenants', 'tenant_id')").unwrap();
    m.run("CREATE TABLE orders (order_id bigint, tenant_id bigint, amount bigint)").unwrap();
    m.run("SELECT create_distributed_table('orders', 'tenant_id', 'tenants')").unwrap();
    m.run("CREATE TABLE sink (tenant_id bigint, order_id bigint)").unwrap();
    m.run("SELECT create_distributed_table('sink', 'tenant_id', 'tenants')").unwrap();
    m.run("CREATE TABLE tags (tag_id bigint PRIMARY KEY, tenant_id bigint)").unwrap();
    m.run("SELECT create_reference_table('tags')").unwrap();
    for t in 1..=20i64 {
        m.run(&format!("INSERT INTO tenants VALUES ({t}, 'tenant-{t}')")).unwrap();
        for o in 1..=5i64 {
            m.run(&format!("INSERT INTO orders VALUES ({o}, {t}, {})", t * 10 + o)).unwrap();
        }
    }
    for k in 1..=5i64 {
        m.run(&format!("INSERT INTO tags VALUES ({k}, {k})")).unwrap();
    }
}

/// Demonstrator B: the feed column is called like the key but belongs to the
/// reference table, so the rows must be re-partitioned — every row of `sink`
/// has to be found by its own key's router query.
#[test]
fn insert_select_fed_by_a_reference_column_repartitions() {
    let (c, mut m) = mirror(3);
    judgement_schema(&mut m);
    let r = m
        .run(
            "INSERT INTO sink SELECT g.tenant_id, o.order_id FROM orders o \
             JOIN tags g ON o.order_id = g.tag_id",
        )
        .unwrap();
    assert_eq!(r.affected(), 100);
    assert_eq!(strategy(&c, &mut m), Some(InsertSelectStrategy::Repartition));
    let mut found = 0;
    for k in 1..=5i64 {
        let r = m.run(&format!("SELECT tenant_id, order_id FROM sink WHERE tenant_id = {k}")).unwrap();
        found += r.rows().len();
    }
    assert_eq!(found, 100, "rows placed in shards their key does not hash to");
    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
}

/// Demonstrators C and D: an INSERT .. SELECT is accepted exactly when its
/// SELECT is. A co-located join that is not on the key, and a LIMIT inside a
/// FROM-subquery, are refused by the SELECT (0A000) — and insert nothing.
#[test]
fn insert_select_is_refused_when_its_select_is() {
    let (_c, mut m) = mirror(3);
    judgement_schema(&mut m);
    for select in [
        "SELECT t.tenant_id, o.order_id FROM tenants t JOIN orders o ON t.tenant_id = o.order_id",
        "SELECT x.tenant_id, x.order_id FROM (SELECT tenant_id, order_id FROM orders \
         ORDER BY tenant_id, order_id LIMIT 3) x",
    ] {
        let e = m.dist.run(select).unwrap_err();
        assert_eq!(e.code.sqlstate(), "0A000", "{select}: {e:?}");
        let e = m.run(&format!("INSERT INTO sink {select}")).unwrap_err();
        assert_eq!(e.code.sqlstate(), "0A000", "INSERT of {select}: {e:?}");
        let r = m.run("SELECT count(*) FROM sink").unwrap();
        assert_eq!(r.scalar().and_then(|v| v.as_i64().ok()), Some(0));
    }
    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
}

/// One generated statement's choices, consumed left to right.
struct Picks<'a>(std::slice::Iter<'a, u8>);

impl Picks<'_> {
    fn pick(&mut self, n: usize) -> usize {
        *self.0.next().unwrap_or(&0) as usize % n
    }
}

/// A FROM item as `(sql, alias, second column, column count)`; every item
/// has a `tenant_id` column, which only in some of them is the distribution
/// key.
const RELATIONS: [(&str, &str, &str, usize); 10] = [
    ("orders o", "o", "order_id", 3),
    ("tenants t", "t", "tenant_id", 2),
    // reference table: its tenant_id is not a key
    ("tags g", "g", "tag_id", 2),
    // second co-location group, distributed on device_id
    ("devices d", "d", "device_id", 2),
    ("(SELECT tenant_id, count(*) AS n FROM orders GROUP BY tenant_id) x", "x", "n", 2),
    ("(SELECT order_id AS tenant_id, count(*) AS n FROM orders GROUP BY order_id) x", "x", "n", 2),
    ("(SELECT tenant_id, order_id AS n FROM orders ORDER BY 1, 2 LIMIT 3) x", "x", "n", 2),
    ("(SELECT DISTINCT tenant_id, order_id AS n FROM orders) x", "x", "n", 2),
    (
        "(SELECT o2.tenant_id, g2.tenant_id AS n FROM orders o2 \
         JOIN tags g2 ON o2.order_id = g2.tag_id) x",
        "x",
        "n",
        2,
    ),
    (
        "(SELECT g2.tenant_id, count(*) AS n FROM orders o2 \
         JOIN tags g2 ON o2.order_id = g2.tag_id GROUP BY g2.tenant_id) x",
        "x",
        "n",
        2,
    ),
];

/// Decode a SELECT: 1–3 relations joined in either spelling on key or
/// non-key columns, an optional filter (a pin, or `IN` / `NOT IN` over a
/// distributed subquery that may be a co-located semi-join, key-grouped with
/// a `HAVING`, or cut by a `LIMIT`), one of four projection/GROUP BY shapes
/// with two integer output columns or (outside an INSERT) `SELECT *`, and an
/// optional ORDER BY .. LIMIT [OFFSET]. Its sort keys may start with a
/// qualified column, an expression or a key outside the select list, in
/// either direction; every output column follows as a tie-breaker, so the
/// visible rows are deterministic. Returns the SQL and whether it is ordered.
fn generated_select(p: &mut Picks, insert: bool) -> (String, bool) {
    let mut rels: Vec<(&str, &str, &str, usize)> = Vec::new();
    for _ in 0..1 + p.pick(3) {
        // plain tables twice as often as subqueries
        let r = RELATIONS[[0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8, 9][p.pick(17)]];
        if !rels.iter().any(|x| x.1 == r.1) {
            rels.push(r);
        }
    }
    let col = |p: &mut Picks, r: &(&str, &str, &str, usize)| {
        format!("{}.{}", r.1, if p.pick(3) == 0 { r.2 } else { "tenant_id" })
    };
    let join_syntax = p.pick(2) == 0;
    let mut from = rels[0].0.to_string();
    let mut conditions: Vec<String> = Vec::new();
    for i in 1..rels.len() {
        let earlier = rels[p.pick(i)];
        let on = format!("{} = {}", col(p, &earlier), col(p, &rels[i]));
        if join_syntax {
            let kind = ["JOIN", "JOIN", "LEFT JOIN", "RIGHT JOIN"][p.pick(4)];
            from = format!("{from} {kind} {} ON {on}", rels[i].0);
        } else {
            from = format!("{from}, {}", rels[i].0);
            conditions.push(on);
        }
    }
    let (a, b) = (rels[p.pick(rels.len())], rels[p.pick(rels.len())]);
    match p.pick(8) {
        0 => conditions.push(format!("{}.tenant_id = {}", a.1, 1 + p.pick(6))),
        1 => conditions.push(format!(
            "{}.tenant_id IN (SELECT tenant_id FROM tenants WHERE tenant_id < 8)",
            a.1
        )),
        2 => conditions.push(format!(
            "{}.{} IN (SELECT order_id FROM orders WHERE amount > 100)",
            b.1, b.2
        )),
        3 => conditions.push(format!(
            "{}.tenant_id NOT IN (SELECT tenant_id FROM orders WHERE amount > 150)",
            a.1
        )),
        4 => conditions.push(format!(
            "{}.tenant_id IN (SELECT tenant_id FROM orders GROUP BY tenant_id \
             HAVING sum(amount) > 300)",
            a.1
        )),
        5 => conditions.push(format!(
            "{}.tenant_id IN (SELECT tenant_id FROM orders ORDER BY amount LIMIT 7)",
            a.1
        )),
        _ => {}
    }
    let filter = if conditions.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conditions.join(" AND "))
    };
    let c = rels[p.pick(rels.len())];
    let shape = p.pick(if insert { 4 } else { 5 });
    let body = match shape {
        0 => format!("SELECT {}.tenant_id, {}.{} FROM {from}{filter}", a.1, b.1, b.2),
        1 => format!(
            "SELECT {0}.tenant_id, count(*) FROM {from}{filter} GROUP BY {0}.tenant_id",
            a.1
        ),
        2 => format!("SELECT count(*), sum({}.{}) FROM {from}{filter}", b.1, b.2),
        3 => format!("SELECT {0}.{1}, count(*) FROM {from}{filter} GROUP BY {0}.{1}", b.1, b.2),
        _ => format!("SELECT * FROM {from}{filter}"),
    };
    if p.pick(4) != 0 {
        return (body, false);
    }
    // a leading key the select list names by qualifier, an expression, or a
    // key the select list does not hold, valid for the body's grouping
    let lead = match (shape, p.pick(4)) {
        (_, 0) => None,
        (0 | 1, 1) => Some(format!("{}.tenant_id", a.1)),
        (0, 2) => Some(format!("{}.{} + {}.tenant_id", b.1, b.2, a.1)),
        (4, 1) => Some(format!("{}.tenant_id", c.1)),
        (4, 2) => Some(format!("{}.{} * -1", c.1, c.2)),
        (0 | 4, _) => Some(format!("{}.{}", c.1, c.2)),
        (3, 1) => Some(format!("{}.{}", b.1, b.2)),
        (1 | 3, 2) => Some("count(*) * -1".to_string()),
        (2, 1) => Some("count(*)".to_string()),
        (2, 2) => Some(format!("min({}.tenant_id) + 1", a.1)),
        _ => Some(format!("sum({}.{})", c.1, c.2)),
    };
    let width = if shape == 4 { rels.iter().map(|r| r.3).sum() } else { 2 };
    let mut keys: Vec<String> = (1..=width).map(|i| i.to_string()).collect();
    if let Some(lead) = lead {
        keys.insert(0, format!("{lead}{}", [" DESC", ""][p.pick(2)]));
    }
    let offset = ["", "", " OFFSET 1", " OFFSET 3"][p.pick(4)];
    (format!("{body} ORDER BY {} LIMIT 5{offset}", keys.join(", ")), true)
}

fn sorted_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r.rows().iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

/// `Ok(true)` accepted and equal to the oracle, `Ok(false)` refused.
fn check_generated(m: &mut MirrorRunner, picks: &[u8]) -> Result<bool, TestCaseError> {
    let mut p = Picks(picks.iter());
    let insert = p.pick(3) == 0;
    let (select, ordered) = generated_select(&mut p, insert);
    if !insert {
        let dist = match m.dist.run(&select) {
            Ok(r) => r,
            Err(e) => {
                prop_assert_eq!(e.code.sqlstate(), "0A000", "`{}` refused with {:?}", select, e);
                return Ok(false);
            }
        };
        let oracle = m.oracle.run(&select).map_err(|e| {
            TestCaseError::fail(format!("oracle refuses generated `{select}`: {e:?}"))
        })?;
        prop_assert_eq!(dist.columns(), oracle.columns(), "column names of `{}`", select);
        if ordered {
            prop_assert_eq!(dist.rows(), oracle.rows(), "rows of `{}`, in order", select);
        } else {
            prop_assert_eq!(sorted_rows(&dist), sorted_rows(&oracle), "rows of `{}`", select);
        }
        return Ok(true);
    }
    // the mirror compares affected counts and every read below
    let sql = format!("INSERT INTO sink {select}");
    let fail = |e| TestCaseError::fail(format!("`{sql}`: {e:?}"));
    let inserted = match m.run(&sql) {
        Ok(r) => r.affected() as usize,
        // a NULL key (outer joins) is the other refusal an INSERT may meet
        Err(e) if ["0A000", "23502"].contains(&e.code.sqlstate()) => return Ok(false),
        Err(e) => return Err(fail(e)),
    };
    // every inserted row is found by its own key's router query
    let keys = m.oracle.run("SELECT DISTINCT tenant_id FROM sink").map_err(fail)?;
    let mut found = 0;
    for key in keys.rows() {
        let by_key =
            format!("SELECT tenant_id, order_id FROM sink WHERE tenant_id = {}", key[0].to_text());
        found += m.run(&by_key).map_err(fail)?.rows().len();
    }
    prop_assert_eq!(found, inserted, "rows of `{}` not found by their key", sql);
    m.run("DELETE FROM sink").map_err(fail)?;
    Ok(true)
}

/// The wall the judgement stands behind: whatever it accepts — any tier,
/// any INSERT .. SELECT strategy — answers like a single node.
#[test]
fn judged_safe_statements_match_the_oracle() {
    let (_c, mut m) = mirror(3);
    judgement_schema(&mut m);
    m.run("CREATE TABLE devices (device_id bigint PRIMARY KEY, tenant_id bigint)").unwrap();
    m.run("SELECT create_distributed_table('devices', 'device_id', 'none')").unwrap();
    for d in 1..=10i64 {
        m.run(&format!("INSERT INTO devices VALUES ({d}, {})", d % 4 + 1)).unwrap();
    }
    let cases = 400;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(cases), "judgement_soundness");
    let choices = prop::collection::vec(any::<u8>(), 32);
    let (mut accepted, mut refused) = (0, 0);
    while let Some(mut rng) = runner.next_case() {
        let result = check_generated(&mut m, &choices.generate(&mut rng));
        match result {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => {}
        }
        runner.finish_case(result.map(|_| ()));
    }
    println!("judgement soundness: {accepted} accepted, {refused} refused of {cases}");
    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
    // an over-strict judgement that refuses everything is not "sound"
    assert!(accepted >= cases / 3, "only {accepted} of {cases} generated statements accepted");
}

/// The §4.1 delegation path: whole TPC-C transactions run as one delegated
/// procedure call on the warehouse's node. The oracle executes the same
/// transaction bodies inline with the same fixed parameters; aggregate
/// probes over every table the procedures touch must agree.
#[test]
fn delegated_procedures_match_inline_oracle() {
    let (c, mut m) = mirror(2);
    let cfg = TpccConfig { warehouses: 2, ..TpccConfig::default() };
    for s in tpcc::schema_statements() {
        m.run(&s).unwrap();
    }
    for s in tpcc::distribution_statements() {
        m.run(&s).unwrap();
    }
    tpcc::load(&mut m, &cfg, 42).unwrap();
    assert!(m.divergence.is_none(), "divergence during load: {:?}", m.divergence);
    tpcc::register_procedures(&c).unwrap();

    // -- new order: w=1 d=1 c=5, two lines, the second supplied remotely
    // (supply_w=2) so the delegated transaction spans both workers (2PC)
    m.dist.run("SELECT tpcc_new_order(1, 1, 5, '[[1,3,1,7],[2,8,2,4]]')").unwrap();
    let o = &mut m.oracle;
    o.run("BEGIN").unwrap();
    let o_id = o
        .run("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1 FOR UPDATE")
        .unwrap()
        .scalar()
        .and_then(|v| v.as_i64().ok())
        .unwrap();
    o.run(&format!(
        "UPDATE district SET d_next_o_id = {} WHERE d_w_id = 1 AND d_id = 1",
        o_id + 1
    ))
    .unwrap();
    o.run(&format!("INSERT INTO orders VALUES (1, 1, {o_id}, 5, '2020-06-01', NULL, 2)"))
        .unwrap();
    o.run(&format!("INSERT INTO new_order VALUES (1, 1, {o_id})")).unwrap();
    for (n, item, supply_w, qty) in [(1i64, 3i64, 1i64, 7i64), (2, 8, 2, 4)] {
        let price = o
            .run(&format!("SELECT i_price FROM item WHERE i_id = {item}"))
            .unwrap()
            .scalar()
            .and_then(|v| v.as_f64().ok())
            .unwrap();
        o.run(&format!(
            "UPDATE stock SET s_quantity = s_quantity - {qty}, s_ytd = s_ytd + {qty} \
             WHERE s_w_id = {supply_w} AND s_i_id = {item}"
        ))
        .unwrap();
        o.run(&format!(
            "INSERT INTO order_line VALUES (1, 1, {o_id}, {n}, {item}, {supply_w}, {qty}, {})",
            price * qty as f64
        ))
        .unwrap();
    }
    o.run("COMMIT").unwrap();

    // -- payment: w=1 pays for a customer of warehouse 2 (cross-warehouse)
    m.dist.run("SELECT tpcc_payment(1, 1, 2, 1, 7, 123.45)").unwrap();
    let o = &mut m.oracle;
    o.run("BEGIN").unwrap();
    o.run("UPDATE warehouse SET w_ytd = w_ytd + 123.45 WHERE w_id = 1").unwrap();
    o.run("UPDATE district SET d_ytd = d_ytd + 123.45 WHERE d_w_id = 1 AND d_id = 1").unwrap();
    o.run(
        "UPDATE customer SET c_balance = c_balance - 123.45, \
         c_ytd_payment = c_ytd_payment + 123.45 \
         WHERE c_w_id = 2 AND c_d_id = 1 AND c_id = 7",
    )
    .unwrap();
    o.run("INSERT INTO history VALUES (1, 1, 7, 123.45, '2020-06-01')").unwrap();
    o.run("COMMIT").unwrap();

    // -- delivery: drains the oldest new_order of (w=1, d=1) — the one the
    // new-order call above created
    m.dist.run("SELECT tpcc_delivery(1, 1, 9)").unwrap();
    let o = &mut m.oracle;
    o.run("BEGIN").unwrap();
    let oldest = o
        .run("SELECT no_o_id FROM new_order WHERE no_w_id = 1 AND no_d_id = 1 \
              ORDER BY no_o_id LIMIT 1")
        .unwrap()
        .scalar()
        .and_then(|v| v.as_i64().ok())
        .unwrap();
    o.run(&format!(
        "DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = 1 AND no_o_id = {oldest}"
    ))
    .unwrap();
    o.run(&format!(
        "UPDATE orders SET o_carrier_id = 9 WHERE o_w_id = 1 AND o_d_id = 1 AND o_id = {oldest}"
    ))
    .unwrap();
    o.run("COMMIT").unwrap();

    // -- stock level: read-only, no oracle writes to mirror
    m.dist.run("SELECT tpcc_stock_level(1, 15)").unwrap();

    // aggregate probes over every table the procedures touched
    for probe in [
        "SELECT sum(d_next_o_id), sum(d_ytd) FROM district",
        "SELECT sum(w_ytd) FROM warehouse",
        "SELECT count(*), sum(o_ol_cnt) FROM orders",
        "SELECT count(*) FROM new_order",
        "SELECT sum(s_quantity), sum(s_ytd) FROM stock",
        "SELECT count(*), sum(ol_quantity), sum(ol_amount) FROM order_line",
        "SELECT sum(c_balance), sum(c_ytd_payment) FROM customer",
        "SELECT count(*), sum(h_amount) FROM history",
    ] {
        m.run(probe).unwrap_or_else(|e| panic!("probe `{probe}`: {e:?}"));
    }
    assert!(m.divergence.is_none(), "divergence: {:?}", m.divergence);
    assert!(m.reads_checked >= 8);
}
