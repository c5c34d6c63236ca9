//! End-to-end SQL tests against a single pgmini engine: the substrate must
//! behave like a small PostgreSQL before the distributed layer builds on it.

use pgmini::engine::Engine;
use pgmini::error::ErrorCode;
use pgmini::session::QueryResult;
use pgmini::types::Datum;

fn engine_with_orders() -> std::sync::Arc<Engine> {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute_script(
        "CREATE TABLE customers (c_id bigint PRIMARY KEY, name text NOT NULL, region text);
         CREATE TABLE orders (o_id bigint PRIMARY KEY, c_id bigint REFERENCES customers,
                              amount float, placed timestamp);
         CREATE INDEX orders_cid ON orders (c_id);",
    )
    .unwrap();
    s.execute(
        "INSERT INTO customers VALUES (1, 'acme', 'eu'), (2, 'globex', 'us'), (3, 'umbrella', 'eu')",
    )
    .unwrap();
    s.execute(
        "INSERT INTO orders VALUES \
         (10, 1, 25.0, '2020-01-05'), (11, 1, 75.0, '2020-02-01'), \
         (12, 2, 100.0, '2020-01-20'), (13, 3, 10.0, '2020-03-01')",
    )
    .unwrap();
    drop(s);
    e
}

fn ints(result: &QueryResult) -> Vec<i64> {
    result.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
}

#[test]
fn basic_select_where_order_limit() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s.execute("SELECT o_id FROM orders WHERE amount > 20 ORDER BY amount DESC LIMIT 2").unwrap();
    assert_eq!(ints(&r), vec![12, 11]);
    let r = s.execute("SELECT o_id FROM orders ORDER BY 1 OFFSET 1 LIMIT 2").unwrap();
    assert_eq!(ints(&r), vec![11, 12]);
}

#[test]
fn point_lookup_uses_pk_index() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s.execute("EXPLAIN SELECT * FROM orders WHERE o_id = 11").unwrap();
    let plan = format!("{:?}", r.rows());
    assert!(plan.contains("Index Scan"), "expected index scan: {plan}");
    let r = s.execute("SELECT amount FROM orders WHERE o_id = 11").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(75.0));
}

#[test]
fn joins_inner_and_left() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s
        .execute(
            "SELECT c.name, o.amount FROM customers c JOIN orders o ON c.c_id = o.c_id \
             WHERE c.region = 'eu' ORDER BY o.amount",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][0], Datum::from_text("umbrella"));
    // LEFT JOIN keeps customers without orders
    s.execute("INSERT INTO customers VALUES (4, 'initech', 'us')").unwrap();
    let r = s
        .execute(
            "SELECT c.name, o.o_id FROM customers c LEFT JOIN orders o ON c.c_id = o.c_id \
             WHERE c.c_id = 4",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0][1], Datum::Null);
}

#[test]
fn aggregates_group_by_having() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s
        .execute(
            "SELECT c.region, count(*), sum(o.amount), avg(o.amount) \
             FROM customers c JOIN orders o ON c.c_id = o.c_id \
             GROUP BY c.region HAVING sum(o.amount) > 50 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][0], Datum::from_text("eu"));
    assert_eq!(r.rows()[0][1], Datum::Int(3));
    assert_eq!(r.rows()[0][2], Datum::Float(110.0));
    // global aggregate over empty input yields one row
    let r = s.execute("SELECT count(*), sum(amount) FROM orders WHERE amount > 1e9").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(0));
    assert_eq!(r.rows()[0][1], Datum::Null);
}

#[test]
fn group_by_ordinal_and_distinct() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s
        .execute("SELECT region, count(*) FROM customers GROUP BY 1 ORDER BY 2 DESC, 1")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("eu"));
    let r = s.execute("SELECT DISTINCT region FROM customers ORDER BY region").unwrap();
    assert_eq!(r.rows().len(), 2);
}

#[test]
fn subqueries_in_from_and_where() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s
        .execute(
            "SELECT name FROM customers WHERE c_id IN (SELECT c_id FROM orders WHERE amount > 50) \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    let r = s
        .execute(
            "SELECT sum(total) FROM (SELECT c_id, sum(amount) AS total FROM orders GROUP BY c_id) t",
        )
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(210.0));
    let r = s
        .execute("SELECT name FROM customers WHERE c_id = (SELECT c_id FROM orders WHERE o_id = 12)")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("globex"));
}

/// An uncorrelated subquery runs once, before planning, in every clause; an
/// integer standing for one in ORDER BY or GROUP BY is a constant, no
/// ordinal, as in PostgreSQL.
#[test]
fn subqueries_in_every_clause() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let three = "(SELECT count(*) FROM customers)";
    for (sql, expected) in [
        (format!("SELECT o_id FROM orders ORDER BY {three}, o_id DESC LIMIT 1"), vec![13]),
        (format!("SELECT c_id, count(*) FROM orders GROUP BY c_id, {three} ORDER BY 1"), vec![1, 2, 3]),
        (format!("SELECT o_id FROM orders ORDER BY 1 LIMIT {three} - 1 OFFSET {three} - 2"), vec![11, 12]),
        (format!("SELECT o_id FROM orders WHERE c_id = coalesce({three}, 0)"), vec![13]),
        (format!("SELECT o_id FROM orders WHERE c_id = 1 AND {three} IN (SELECT c_id FROM orders)"), vec![10, 11]),
    ] {
        assert_eq!(ints(&s.execute(&sql).unwrap()), expected, "{sql}");
    }
    s.execute(&format!("UPDATE orders SET c_id = {three} WHERE o_id = 10")).unwrap();
    s.execute(&format!("INSERT INTO orders VALUES ({three} + 11, {three}, 1.0, NULL)")).unwrap();
    let upsert = "INSERT INTO orders VALUES (14, 1, 0.0, NULL) ON CONFLICT (o_id) DO UPDATE";
    s.execute(&format!("{upsert} SET c_id = {three} - 1")).unwrap();
    let r = s.execute("SELECT o_id FROM orders WHERE c_id = 3 ORDER BY 1").unwrap();
    assert_eq!(ints(&r), vec![10, 13]);
    let r = s.execute("SELECT c_id FROM orders WHERE o_id = 14").unwrap();
    assert_eq!(ints(&r), vec![2]);
    let two = "(SELECT c_id, name FROM customers WHERE c_id = 1)";
    let e = s.execute(&format!("SELECT o_id FROM orders WHERE c_id = {two}"));
    assert_eq!(e.unwrap_err().code, ErrorCode::Syntax, "a subquery returns one column");
}

#[test]
fn dml_update_delete_with_index() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s.execute("UPDATE orders SET amount = amount + 1 WHERE c_id = 1").unwrap();
    assert_eq!(r.affected(), 2);
    let r = s.execute("SELECT sum(amount) FROM orders").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(212.0));
    let r = s.execute("DELETE FROM orders WHERE o_id = 13").unwrap();
    assert_eq!(r.affected(), 1);
    let r = s.execute("SELECT count(*) FROM orders").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(3));
}

#[test]
fn constraint_violations() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    // unique (pk)
    let err = s.execute("INSERT INTO customers VALUES (1, 'dup', 'eu')").unwrap_err();
    assert_eq!(err.code, ErrorCode::UniqueViolation);
    // not null
    let err = s.execute("INSERT INTO customers (c_id, region) VALUES (9, 'eu')").unwrap_err();
    assert_eq!(err.code, ErrorCode::NotNullViolation);
    // fk: unknown customer
    let err = s.execute("INSERT INTO orders VALUES (99, 42, 1.0, '2020-01-01')").unwrap_err();
    assert_eq!(err.code, ErrorCode::ForeignKeyViolation);
    // fk: cannot delete referenced customer
    let err = s.execute("DELETE FROM customers WHERE c_id = 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::ForeignKeyViolation);
}

#[test]
fn on_conflict_paths() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE counters (key text PRIMARY KEY, n bigint)").unwrap();
    s.execute("INSERT INTO counters VALUES ('a', 1)").unwrap();
    let r = s.execute("INSERT INTO counters VALUES ('a', 1) ON CONFLICT (key) DO NOTHING").unwrap();
    assert_eq!(r.affected(), 0);
    s.execute(
        "INSERT INTO counters VALUES ('a', 1) ON CONFLICT (key) DO UPDATE SET n = counters.n + excluded.n",
    )
    .unwrap();
    let r = s.execute("SELECT n FROM counters WHERE key = 'a'").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(2));
}

#[test]
fn transaction_block_semantics() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 0 WHERE o_id = 10").unwrap();
    // another session doesn't see it yet
    let mut other = e.session().unwrap();
    let r = other.execute("SELECT amount FROM orders WHERE o_id = 10").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(25.0));
    s.execute("COMMIT").unwrap();
    let r = other.execute("SELECT amount FROM orders WHERE o_id = 10").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(0.0));
    // rollback undoes
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM orders WHERE o_id = 11").unwrap();
    s.execute("ROLLBACK").unwrap();
    let r = other.execute("SELECT count(*) FROM orders WHERE o_id = 11").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(1));
}

#[test]
fn failed_transaction_blocks_until_rollback() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    s.execute("BEGIN").unwrap();
    let _ = s.execute("SELECT * FROM no_such_table").unwrap_err();
    let err = s.execute("SELECT 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::InvalidTransactionState);
    s.execute("ROLLBACK").unwrap();
    s.execute("SELECT count(*) FROM orders").unwrap();
}

#[test]
fn prepared_transactions_two_phase() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 500 WHERE o_id = 10").unwrap();
    s.execute("PREPARE TRANSACTION 'tx1'").unwrap();
    // session has moved on; effect not yet visible anywhere
    let r = s.execute("SELECT amount FROM orders WHERE o_id = 10").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(25.0));
    assert_eq!(e.txns.prepared_gids(), vec!["tx1".to_string()]);
    // a different session can finish it (recovery does this)
    let mut other = e.session().unwrap();
    other.execute("COMMIT PREPARED 'tx1'").unwrap();
    let r = s.execute("SELECT amount FROM orders WHERE o_id = 10").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(500.0));
}

#[test]
fn prepared_transaction_holds_locks() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE orders SET amount = 1 WHERE o_id = 10").unwrap();
    s.execute("PREPARE TRANSACTION 'blocker'").unwrap();
    // lock survives: a concurrent update must block → use lock_timeout
    e.locks.cancel_dist_txn(pgmini::lock::DistTxnId { origin_node: 0, number: 0, timestamp: 0 });
    let mut other = e.session().unwrap();
    other.execute("BEGIN").unwrap();
    // cancel the waiter from another thread after a moment
    let flag = other.cancel_flag();
    let h = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(100));
        flag.store(pgmini::lock::CANCEL_QUERY, std::sync::atomic::Ordering::SeqCst);
    });
    let err = other.execute("UPDATE orders SET amount = 2 WHERE o_id = 10").unwrap_err();
    assert_eq!(err.code, ErrorCode::QueryCanceled);
    h.join().unwrap();
    other.execute("ROLLBACK").unwrap();
    let mut fin = e.session().unwrap();
    fin.execute("ROLLBACK PREPARED 'blocker'").unwrap();
}

#[test]
fn select_for_update_blocks_writer() {
    let e = engine_with_orders();
    let mut s1 = e.session().unwrap();
    s1.execute("BEGIN").unwrap();
    let r = s1.execute("SELECT * FROM orders WHERE o_id = 10 FOR UPDATE").unwrap();
    assert_eq!(r.rows().len(), 1);
    // concurrent update of the same row waits; of another row proceeds
    let e2 = e.clone();
    let h = std::thread::spawn(move || {
        let mut s2 = e2.session().unwrap();
        s2.execute("UPDATE orders SET amount = 7 WHERE o_id = 10").unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(e.locks.waiting_count(), 1);
    s1.execute("COMMIT").unwrap();
    h.join().unwrap();
    let mut s3 = e.session().unwrap();
    let r = s3.execute("SELECT amount FROM orders WHERE o_id = 10").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(7.0));
}

#[test]
fn copy_and_vacuum() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (id bigint PRIMARY KEY, v text)").unwrap();
    let n = s.copy_text("t", &[], "1,hello\n2,\\N\n3,\"with,comma\"\n").unwrap();
    assert_eq!(n, 3);
    let r = s.execute("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Null);
    let r = s.execute("SELECT v FROM t WHERE id = 3").unwrap();
    assert_eq!(r.rows()[0][0], Datum::from_text("with,comma"));
    // dead versions accumulate and vacuum reclaims them
    s.execute("UPDATE t SET v = 'x' WHERE id = 1").unwrap();
    let reclaimed = s.execute("VACUUM t").unwrap();
    assert_eq!(reclaimed.affected(), 1);
}

#[test]
fn json_and_gin_trigram_dashboard() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE events (id bigint PRIMARY KEY, data jsonb)").unwrap();
    s.execute(
        "CREATE INDEX ev_msg ON events USING gin \
         ((jsonb_path_query_array(data, '$.payload.commits[*].message')::text))",
    )
    .unwrap();
    s.execute(concat!(
        "INSERT INTO events VALUES ",
        "(1, '{\"created_at\": \"2020-01-01\", \"payload\": {\"commits\": [{\"message\": \"fix postgres bug\"}]}}'),",
        "(2, '{\"created_at\": \"2020-01-01\", \"payload\": {\"commits\": [{\"message\": \"docs\"}]}}'),",
        "(3, '{\"created_at\": \"2020-01-02\", \"payload\": {\"commits\": [{\"message\": \"postgresql tuning\"}, {\"message\": \"ci\"}]}}')"
    ))
    .unwrap();
    // the paper's dashboard query shape (Figure 7b)
    let r = s
        .execute(
            "SELECT (data->>'created_at')::date, \
                    sum(jsonb_array_length(data->'payload'->'commits')) \
             FROM events \
             WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text \
                   ILIKE '%postgres%' \
             GROUP BY 1 ORDER BY 1 ASC",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][1], Datum::Int(1));
    assert_eq!(r.rows()[1][1], Datum::Int(2));
    // the gin index is selected for the ILIKE filter
    let r = s
        .execute(
            "EXPLAIN SELECT count(*) FROM events \
             WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text \
                   ILIKE '%postgres%'",
        )
        .unwrap();
    let plan = format!("{:?}", r.rows());
    assert!(plan.contains("trigram"), "expected gin trigram scan: {plan}");
}

#[test]
fn case_and_date_functions() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let r = s
        .execute(
            "SELECT o_id, CASE WHEN amount >= 75 THEN 'big' ELSE 'small' END \
             FROM orders ORDER BY o_id",
        )
        .unwrap();
    assert_eq!(r.rows()[0][1], Datum::from_text("small"));
    assert_eq!(r.rows()[1][1], Datum::from_text("big"));
    let r = s
        .execute("SELECT count(*) FROM orders WHERE extract(month FROM placed) = 1")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(2));
    let r = s
        .execute("SELECT count(*) FROM orders WHERE placed < date '2020-02-15'")
        .unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(3));
}

#[test]
fn correlated_subquery_is_rejected() {
    let e = engine_with_orders();
    let mut s = e.session().unwrap();
    let err = s
        .execute(
            "SELECT name FROM customers c WHERE c_id IN \
             (SELECT o.c_id FROM orders o WHERE o.c_id = c.c_id)",
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::FeatureNotSupported);
}

#[test]
fn columnar_table_scan_and_restrictions() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE facts (k bigint, v float)").unwrap();
    e.set_columnar("facts").unwrap();
    s.execute("INSERT INTO facts VALUES (1, 1.5), (2, 2.5), (3, 3.5)").unwrap();
    let r = s.execute("SELECT sum(v) FROM facts WHERE k > 1").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Float(6.0));
    let err = s.execute("UPDATE facts SET v = 0 WHERE k = 1").unwrap_err();
    assert_eq!(err.code, ErrorCode::FeatureNotSupported);
}

/// A table-level `UNIQUE (..)` constraint gets a unique index, like a
/// column's `UNIQUE`, and names only columns of the table.
#[test]
fn table_unique_constraint_is_enforced() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (a bigint, b bigint, UNIQUE (a, b))").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1), (1, 2)").unwrap();
    let err = s.execute("INSERT INTO t VALUES (1, 2)").unwrap_err();
    assert_eq!(err.code, ErrorCode::UniqueViolation, "{}", err.message);
    let err = s.execute("CREATE TABLE bad (a bigint, UNIQUE (nope))").unwrap_err();
    assert_eq!(err.code, ErrorCode::UndefinedColumn, "{}", err.message);
    assert!(e.table_meta("bad").is_err());
}

#[test]
fn cost_model_tracks_io_when_table_exceeds_memory() {
    let e = Engine::new_default();
    e.buffer.set_capacity(64);
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE big (id bigint PRIMARY KEY, pad text)").unwrap();
    e.set_sim_row_width("big", 8192).unwrap(); // one simulated page per row
    let rows: Vec<Vec<Datum>> =
        (0..500).map(|i| vec![Datum::Int(i), Datum::from_text("x")]).collect();
    s.copy_rows("big", &[], rows).unwrap();
    s.execute("SELECT count(*) FROM big").unwrap();
    let first = s.last_cost();
    s.execute("SELECT count(*) FROM big").unwrap();
    let second = s.last_cost();
    // table (500 pages) >> memory (64 pages): both scans are I/O bound
    assert!(second.io_ms > 0.0, "spilled scan must pay I/O: {second:?}");
    // with plenty of memory the second scan is cached
    let e2 = Engine::new_default();
    let mut s2 = e2.session().unwrap();
    s2.execute("CREATE TABLE big (id bigint PRIMARY KEY, pad text)").unwrap();
    e2.set_sim_row_width("big", 8192).unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..500).map(|i| vec![Datum::Int(i), Datum::from_text("x")]).collect();
    s2.copy_rows("big", &[], rows).unwrap();
    s2.execute("SELECT count(*) FROM big").unwrap();
    s2.execute("SELECT count(*) FROM big").unwrap();
    let cached = s2.last_cost();
    assert_eq!(cached.page_misses, 0, "in-memory scan must not miss: {cached:?}");
    let _ = first;
}

#[test]
fn udf_registration_and_call() {
    let e = Engine::new_default();
    e.register_udf("magic_number", |_s, args| {
        let base = args.first().map(|d| d.as_i64().unwrap_or(0)).unwrap_or(0);
        Ok(Datum::Int(base + 41))
    });
    let mut s = e.session().unwrap();
    let r = s.execute("SELECT magic_number(1)").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(42));
    let r = s.execute("SELECT magic_number(1) AS x, 7 AS y").unwrap();
    assert_eq!(r.columns(), &["x".to_string(), "y".to_string()]);
    assert_eq!(r.rows()[0][1], Datum::Int(7));
}

#[test]
fn concurrent_counter_updates_are_serialized_by_row_locks() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE c (id bigint PRIMARY KEY, n bigint)").unwrap();
    s.execute("INSERT INTO c VALUES (1, 0)").unwrap();
    drop(s);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let e = e.clone();
            std::thread::spawn(move || {
                let mut s = e.session().unwrap();
                for _ in 0..25 {
                    s.execute("UPDATE c SET n = n + 1 WHERE id = 1").unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut s = e.session().unwrap();
    let r = s.execute("SELECT n FROM c WHERE id = 1").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(200), "all 200 increments must survive");
}

/// NaN is one value, equal to itself and above every other number, as in
/// PostgreSQL: it groups, counts, sorts and joins as that one value.
#[test]
fn nan_is_one_value_above_every_number() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (x float)").unwrap();
    s.execute("CREATE TABLE u (y float)").unwrap();
    s.execute("INSERT INTO t VALUES (1.0), ('NaN'), (2.0), ('NaN'), (0.5)").unwrap();
    s.execute("INSERT INTO u VALUES (1.0)").unwrap();
    let show = |rows: Vec<Vec<Datum>>| -> Vec<String> {
        rows.iter()
            .map(|r| r.iter().map(Datum::to_text).collect::<Vec<_>>().join(","))
            .collect()
    };

    let groups = s.query("SELECT x, count(*) FROM t GROUP BY x").unwrap();
    assert_eq!(show(groups), ["0.5,1", "1,1", "2,1", "NaN,2"]);
    let distinct = s.query("SELECT count(DISTINCT x) FROM t").unwrap();
    assert_eq!(show(distinct), ["4"]);
    let sorted = s.query("SELECT x FROM t ORDER BY x").unwrap();
    assert_eq!(show(sorted), ["0.5", "1", "2", "NaN", "NaN"]);
    let joined = s.query("SELECT t.x, u.y FROM t JOIN u ON t.x = u.y").unwrap();
    assert_eq!(show(joined), ["1,1"]);
    let nan_join = s.query("SELECT count(*) FROM t a JOIN t b ON a.x = b.x").unwrap();
    assert_eq!(show(nan_join), ["7"], "each NaN joins both NaNs");
    let above = s.query("SELECT count(*) FROM t WHERE x > 1e300").unwrap();
    assert_eq!(show(above), ["2"]);
}

/// Three tables for the restrictions a cross-table OR implies: t1's row
/// with k = 9 has b = 0 and joins no t2 row.
fn engine_for_or_restrictions() -> std::sync::Arc<Engine> {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute_script(
        "CREATE TABLE t1 (k bigint, a bigint, b bigint);
         CREATE TABLE t2 (k bigint, c bigint);
         CREATE TABLE t3 (x bigint);
         INSERT INTO t1 VALUES (1, 4, 2), (2, 6, 3), (9, 1, 0);
         INSERT INTO t2 VALUES (1, 1), (2, 2), (3, 1);
         INSERT INTO t3 VALUES (1), (2), (3);",
    )
    .unwrap();
    drop(s);
    e
}

/// The scan lines of `sql`'s plan that carry a filter.
fn filtered_scans(s: &mut pgmini::session::Session, sql: &str) -> Vec<String> {
    let plan = s.query(&format!("EXPLAIN {sql}")).unwrap();
    plan.iter()
        .map(|r| r[0].to_text().trim().to_string())
        .filter(|l| l.contains("(filtered)"))
        .collect()
}

/// A branch conjunct that can raise an error is not copied to its table's
/// scan: `t1.a / t1.b > 0` would raise 22012 on t1's row with b = 0, which
/// the written statement never tests because that row joins nothing. Only
/// t2 gets a derived restriction.
#[test]
fn or_restrictions_copy_no_conjunct_that_can_raise() {
    let e = engine_for_or_restrictions();
    let mut s = e.session().unwrap();
    let err = s.query("SELECT count(*) FROM t1 WHERE a / b > 0").unwrap_err();
    assert_eq!(err.code, ErrorCode::DivisionByZero);
    let sql = "SELECT t1.k, t2.c FROM t1, t2 WHERE t1.k = t2.k \
               AND ((t1.a / t1.b > 0 AND t2.c = 1) OR (t1.a = 6 AND t2.c = 2)) ORDER BY 1";
    let rows = s.query(sql).unwrap();
    assert_eq!(rows, [[Datum::Int(1), Datum::Int(1)], [Datum::Int(2), Datum::Int(2)]]);
    let scans = filtered_scans(&mut s, sql);
    assert!(matches!(&scans[..], [t2] if t2.starts_with("Seq Scan on t2")), "{scans:?}");
}

/// A volatile call is not copied: `random()` stays in the OR, drawn as
/// written, and the branch holding it restricts t1 by nothing else.
#[test]
fn or_restrictions_copy_no_volatile_call() {
    let e = engine_for_or_restrictions();
    let mut s = e.session().unwrap();
    let sql = "SELECT t1.k FROM t1, t2 WHERE t1.k = t2.k \
               AND ((t1.b < random() + 10 AND t2.c = 1) OR (t1.a = 6 AND t2.c = 2)) ORDER BY 1";
    let rows = s.query(sql).unwrap();
    assert_eq!(rows, [[Datum::Int(1)], [Datum::Int(2)]]);
    let scans = filtered_scans(&mut s, sql);
    assert!(matches!(&scans[..], [t2] if t2.starts_with("Seq Scan on t2")), "{scans:?}");
}

/// An OR over the null-extended side of a LEFT JOIN: the restriction it
/// implies on t2 must not filter t2's scan, where it would turn t1's row
/// with k = 2 into a null-extended row that passes `t2.c IS NULL`.
#[test]
fn or_restrictions_stay_off_the_null_extended_side() {
    let e = engine_for_or_restrictions();
    let mut s = e.session().unwrap();
    let sql = "SELECT t1.k, t3.x FROM t1 LEFT JOIN t2 ON t1.k = t2.k, t3 \
               WHERE (t2.c = 1 AND t3.x = 1) OR (t2.c IS NULL AND t3.x = 2) ORDER BY 1";
    let rows = s.query(sql).unwrap();
    assert_eq!(rows, [[Datum::Int(1), Datum::Int(1)], [Datum::Int(9), Datum::Int(2)]]);
    let scans = filtered_scans(&mut s, sql);
    assert!(matches!(&scans[..], [t3] if t3.starts_with("Seq Scan on t3")), "{scans:?}");
}

/// A derived table over `*` keeps every column its subquery returns, under
/// the subquery's own output names.
#[test]
fn derived_table_keeps_every_wildcard_column() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    let row = |vals: &[i64]| vals.iter().map(|v| Datum::Int(*v)).collect::<Vec<_>>();
    let r = s.execute("SELECT * FROM (SELECT * FROM t) s ORDER BY 1").unwrap();
    assert_eq!(r.rows(), [row(&[1, 10]), row(&[2, 20])]);
    let r = s.execute("SELECT * FROM (SELECT k, * FROM t WHERE k = 2) s").unwrap();
    assert_eq!(r.rows(), [row(&[2, 2, 20])]);
    let r = s.execute("SELECT s.v FROM (SELECT * FROM t) s ORDER BY 1").unwrap();
    assert_eq!(ints(&r), vec![10, 20]);
}

/// A column name two FROM items share is ambiguous (42702), at the top level
/// and inside an uncorrelated subquery alike: the subquery does not become a
/// correlated one (0A000), which only a column it cannot see makes it.
#[test]
fn an_ambiguous_column_raises_42702() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    for t in ["a", "b", "c"] {
        s.execute(&format!("CREATE TABLE {t} (k bigint, v bigint)")).unwrap();
        s.execute(&format!("INSERT INTO {t} VALUES (1, 10), (2, 20)")).unwrap();
    }
    for sql in [
        "SELECT k FROM a, b",
        "SELECT count(*) FROM b WHERE k IN (SELECT k FROM a, c)",
        "SELECT count(*) FROM b WHERE v > (SELECT max(k) FROM a JOIN c ON a.v = c.v)",
    ] {
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err.code.sqlstate(), "42702", "{sql}: {err:?}");
        assert!(err.message.contains("\"k\" is ambiguous"), "{sql}: {}", err.message);
    }
    let r = s.execute("SELECT count(*) FROM b WHERE k IN (SELECT a.k FROM a, c)").unwrap();
    assert_eq!(ints(&r), vec![2]);
}

/// A row-returning SELECT projects each row as its scan passes it on, so
/// `random()` in the WHERE clause and in the select list draw in turns, row
/// by row, from the statement's one generator (seeded by session and
/// statement): the answer below is pinned for that order.
#[test]
fn filter_and_projection_draw_random_in_turns() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)").unwrap();
    let rows = s.query("SELECT k, random() FROM t WHERE random() < 0.5").unwrap();
    assert_eq!(
        rows,
        [
            [Datum::Int(3), Datum::Float(0.15216929610283747)],
            [Datum::Int(5), Datum::Float(0.6355551538268401)],
        ]
    );
}
