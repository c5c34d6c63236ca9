//! The wall around the engine's plan cache (`pgmini::plancache`): a warm
//! generic plan must be indistinguishable — rows, affected counts, errors and
//! simulated cost — from planning the statement from scratch, whatever the
//! literal values are; structure must never share a plan; DDL must
//! invalidate.

use pgmini::engine::Engine;
use pgmini::error::ErrorCode;
use pgmini::session::{QueryResult, Session};
use pgmini::types::Datum;
use proptest::prelude::*;
use std::sync::Arc;

/// A heap table with a b-tree and a trigram index, and a columnar table, so
/// every probe kind and the vectorized kernels see parameter slots.
fn fixture() -> (Arc<Engine>, Session) {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint, s text, f float)").unwrap();
    s.execute("CREATE INDEX t_v ON t (v)").unwrap();
    s.execute("CREATE INDEX t_s ON t USING gin (s)").unwrap();
    s.execute("CREATE TABLE c (a bigint, b bigint, s text) USING columnar").unwrap();
    for k in 0..40i64 {
        let word = ["alpha", "beta", "gamma", "delta"][k as usize % 4];
        s.execute(&format!(
            "INSERT INTO t VALUES ({k}, {}, '{word}-{k}', {}.5)",
            k % 7,
            k % 3
        ))
        .unwrap();
        s.execute(&format!("INSERT INTO c VALUES ({k}, {}, '{word}')", k % 5)).unwrap();
    }
    (e, s)
}

fn run(s: &mut Session, sql: &str) -> Result<QueryResult, ErrorCode> {
    s.execute(sql).map_err(|e| e.code)
}

const WORDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A literal as SQL text: every type, NULL, and values that need casting.
fn arb_literal() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("NULL".to_string()),
        (-3..45i64).prop_map(|v| v.to_string()),
        (-3..45i64).prop_map(|v| format!("'{v}'")),
        (0..80i64).prop_map(|v| format!("{}.5", v % 9)),
        "[a-e]{0,4}".prop_map(|s| format!("'{s}'")),
        (0..4usize, 0..45i64).prop_map(|(w, k)| format!("'{}-{k}'", WORDS[w])),
        Just("true".to_string()),
    ]
}

fn arb_pattern() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-e%_]{0,3}".prop_map(|p| format!("'{p}'")), // mostly too short for a trigram
        prop::sample::select(vec!["alp", "bet", "gam", "del", "ta-", "a-1"])
            .prop_map(|p| format!("'%{p}%'")),
        (0..2usize, 0..10i64).prop_map(|(w, k)| format!("'{}-{k}%'", WORDS[w])),
    ]
}

/// One single-table statement with every literal drawn at random.
fn arb_statement() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_literal().prop_map(|l| format!("SELECT * FROM t WHERE k = {l}")),
        arb_literal().prop_map(|l| format!("SELECT k, s FROM t WHERE v = {l} ORDER BY k")),
        (arb_literal(), arb_literal())
            .prop_map(|(a, b)| format!("SELECT k FROM t WHERE v BETWEEN {a} AND {b} ORDER BY 1")),
        (arb_literal(), arb_literal())
            .prop_map(|(a, b)| format!("SELECT k FROM t WHERE k >= {a} AND k < {b} ORDER BY k")),
        prop::collection::vec(arb_literal(), 1..5)
            .prop_map(|l| format!("SELECT k FROM t WHERE k IN ({}) ORDER BY k", l.join(", "))),
        prop::collection::vec(0..60i64, 33..40).prop_map(|l| {
            let l: Vec<String> = l.iter().map(i64::to_string).collect();
            format!("SELECT k FROM t WHERE k IN ({}) ORDER BY k", l.join(", "))
        }),
        arb_pattern().prop_map(|p| format!("SELECT k FROM t WHERE s LIKE {p} ORDER BY k")),
        arb_pattern().prop_map(|p| format!("SELECT count(*) FROM t WHERE s ILIKE {p}")),
        (arb_literal(), 0..6i64, 0..3i64).prop_map(|(l, lim, off)| format!(
            "SELECT k, v FROM t WHERE k > {l} ORDER BY k LIMIT {lim} OFFSET {off}"
        )),
        arb_literal()
            .prop_map(|l| format!("SELECT v, count(*), sum(k) FROM t WHERE k < {l} GROUP BY v")),
        arb_literal().prop_map(|l| format!("SELECT v FROM t WHERE k = {l} FOR UPDATE")),
        arb_literal().prop_map(|l| format!("SELECT sum(a), count(*) FROM c WHERE b = {l}")),
        (arb_literal(), arb_pattern()).prop_map(|(l, p)| format!(
            "SELECT b, sum(a) FROM c WHERE a > {l} OR s LIKE {p} GROUP BY b"
        )),
        (arb_literal(), arb_literal())
            .prop_map(|(a, b)| format!("UPDATE t SET v = {a} WHERE k = {b}")),
        (0..9i64, arb_literal())
            .prop_map(|(d, l)| format!("UPDATE t SET v = v + {d}, s = s || 'x' WHERE v = {l}")),
        arb_literal().prop_map(|l| format!("DELETE FROM t WHERE k = {l}")),
        (arb_literal(), arb_literal())
            .prop_map(|(a, b)| format!("DELETE FROM t WHERE v = {a} AND f > {b}")),
        (30..60i64, arb_literal(), arb_literal())
            .prop_map(|(k, v, s)| format!("INSERT INTO t VALUES ({k}, {v}, {s}, 1.5)")),
        (0..45i64, arb_literal())
            .prop_map(|(k, v)| format!("INSERT INTO t (k, v) VALUES ({k}, {v})")),
        (0..45i64, 0..9i64).prop_map(|(k, d)| format!(
            "INSERT INTO t (k, v) VALUES ({k}, {d}) \
             ON CONFLICT (k) DO UPDATE SET v = t.v + excluded.v + {d}"
        )),
        (0..45i64, arb_literal())
            .prop_map(|(a, s)| format!("INSERT INTO c VALUES ({a}, {a}, {s}), ({a}, 0, 'z')")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Warm (plans reused across the workload) against cold (cache cleared
    /// before every statement): same results or error codes, same simulated
    /// cost to the last bit, same final table.
    #[test]
    fn warm_plans_are_indistinguishable_from_cold(
        workload in prop::collection::vec(arb_statement(), 1..14),
    ) {
        let (_warm_engine, mut warm) = fixture();
        let (cold_engine, mut cold) = fixture();
        let cold_hits = cold_engine.plan_cache_stats().hits;
        for sql in &workload {
            cold_engine.clear_plan_cache();
            let (w, c) = (run(&mut warm, sql), run(&mut cold, sql));
            prop_assert_eq!(&w, &c, "results diverge for `{}`", sql);
            prop_assert_eq!(warm.last_cost(), cold.last_cost(), "cost diverges for `{}`", sql);
        }
        for table in ["t", "c"] {
            let all = format!("SELECT * FROM {table}");
            prop_assert_eq!(run(&mut warm, &all), run(&mut cold, &all));
        }
        prop_assert_eq!(cold_engine.plan_cache_stats().hits, cold_hits);
    }
}

/// Run `sql` warm and on a cold twin; returns the rows after checking both
/// agree on result and cost.
fn agree(warm: &mut Session, cold: &mut (Arc<Engine>, Session), sql: &str) -> Vec<Vec<Datum>> {
    cold.0.clear_plan_cache();
    let (w, c) = (run(warm, sql), run(&mut cold.1, sql));
    assert_eq!(w, c, "{sql}");
    assert_eq!(warm.last_cost(), cold.1.last_cost(), "{sql}");
    w.expect(sql).into_rows()
}

#[test]
fn values_of_any_type_share_one_plan() {
    let (e, mut warm) = fixture();
    let mut cold = fixture();
    let groups: &[&[&str]] = &[
        &[
            "SELECT s FROM t WHERE k = 1",
            "SELECT s FROM t WHERE k = '1'",
            "SELECT s FROM t WHERE k = NULL",
            "SELECT s FROM t WHERE k = 2.5",
        ],
        &["SELECT k FROM t WHERE k IN (1, 2, 3)", "SELECT k FROM t WHERE k IN ('4', NULL, 99)"],
        &[
            "SELECT k FROM t WHERE s LIKE '%alp%' ORDER BY k", // usable trigram
            "SELECT k FROM t WHERE s LIKE '%a%' ORDER BY k",   // too short: falls back to a scan
            "SELECT k FROM t WHERE s LIKE NULL ORDER BY k",
        ],
        &[
            "SELECT k FROM t WHERE v BETWEEN 2 AND 4 ORDER BY k",
            "SELECT k FROM t WHERE v BETWEEN 5 AND 1 ORDER BY k",
            "SELECT k FROM t WHERE v BETWEEN '3' AND NULL ORDER BY k",
        ],
        &["SELECT v FROM t WHERE k = 7 FOR UPDATE", "SELECT v FROM t WHERE k = 8 FOR UPDATE"],
        &["UPDATE t SET v = v + 1 WHERE k = 3", "UPDATE t SET v = v + 10 WHERE k = 4"],
        &["DELETE FROM t WHERE k = 38", "DELETE FROM t WHERE k = 39"],
        &["INSERT INTO t (k, s) VALUES (100, 'x')", "INSERT INTO t (k, s) VALUES ('101', NULL)"],
    ];
    for group in groups {
        let before = e.plan_cache_stats();
        for sql in *group {
            agree(&mut warm, &mut cold, sql);
        }
        let after = e.plan_cache_stats();
        assert_eq!(after.entries, before.entries + 1, "one entry for {group:?}");
        assert_eq!(after.misses, before.misses + 1, "{group:?}");
        assert_eq!(after.hits, before.hits + group.len() as u64 - 1, "{group:?}");
    }
    assert_eq!(agree(&mut warm, &mut cold, "SELECT v FROM t WHERE k = 4"), vec![vec![Datum::Int(14)]]);
}

#[test]
fn in_lists_the_binder_folds_are_planned_as_written() {
    let (e, mut warm) = fixture();
    let mut cold = fixture();
    let list = |from: i64| (from..from + 33).map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    let before = e.plan_cache_stats();
    for from in [0, 20] {
        let rows =
            agree(&mut warm, &mut cold, &format!("SELECT count(*) FROM t WHERE k IN ({})", list(from)));
        assert_eq!(rows, vec![vec![Datum::Int((40 - from).min(33))]]);
    }
    assert_eq!(e.plan_cache_stats(), before, "outside the cacheable class: never looked up");
}

#[test]
fn structure_never_shares_a_plan() {
    let (e, mut warm) = fixture();
    let mut cold = fixture();
    let first = |rows: Vec<Vec<Datum>>| rows[0].clone();
    let base = e.plan_cache_stats();
    let since = |e: &Engine| {
        let s = e.plan_cache_stats();
        (s.hits - base.hits, s.entries - base.entries)
    };
    // ORDER BY ordinals
    let by_k = first(agree(&mut warm, &mut cold, "SELECT k, v FROM t WHERE k < 30 ORDER BY 1 DESC"));
    let by_v = first(agree(&mut warm, &mut cold, "SELECT k, v FROM t WHERE k < 30 ORDER BY 2 DESC"));
    assert_eq!(by_k, vec![Datum::Int(29), Datum::Int(1)]);
    assert_eq!(by_v[1], Datum::Int(6));
    // GROUP BY ordinals
    let g1 = agree(&mut warm, &mut cold, "SELECT v, k % 2, count(*) FROM t WHERE k < 30 GROUP BY 1, 2");
    let g2 = agree(&mut warm, &mut cold, "SELECT v, k % 2, count(*) FROM t WHERE k < 30 GROUP BY 2, 1");
    assert_eq!(g1.len(), 14);
    assert_eq!(g1.len(), g2.len());
    // a literal inside a grouped expression is part of the grouping
    agree(&mut warm, &mut cold, "SELECT v + 1, count(*) FROM t WHERE k < 9 GROUP BY v + 1");
    agree(&mut warm, &mut cold, "SELECT v + 2, count(*) FROM t WHERE k < 9 GROUP BY v + 2");
    assert_eq!(since(&e), (0, 6), "six structures, six plans");
    // LIMIT and OFFSET are slots: one plan, different row counts
    for (limit, offset, want) in [(1, 0, 1), (5, 0, 5), (5, 38, 2), (0, 0, 0)] {
        let rows = agree(
            &mut warm,
            &mut cold,
            &format!("SELECT k FROM t WHERE k >= 0 ORDER BY k LIMIT {limit} OFFSET {offset}"),
        );
        assert_eq!(rows.len(), want, "LIMIT {limit} OFFSET {offset}");
    }
    assert_eq!(since(&e), (3, 7));
}

fn explain(s: &mut Session, sql: &str) -> String {
    format!("{:?}", s.execute(&format!("EXPLAIN {sql}")).unwrap().into_rows())
}

#[test]
fn ddl_invalidates_warm_plans() {
    let (e, mut s) = fixture();
    let by_f = "SELECT k FROM t WHERE f = 2.5 AND k < 6";
    let rows = s.execute(by_f).unwrap().into_rows();
    assert!(explain(&mut s, by_f).contains("t_pkey"), "planned over the primary key");
    s.execute("SELECT k FROM t WHERE f = 1.5 AND k < 9").unwrap();
    assert!(e.plan_cache_stats().hits >= 2, "{:?}", e.plan_cache_stats());

    // CREATE INDEX: the warm shape must pick the new index up
    let invalidated = e.plan_cache_stats().invalidations;
    s.execute("CREATE INDEX t_f ON t (f)").unwrap();
    assert!(explain(&mut s, by_f).contains("t_f"), "{}", explain(&mut s, by_f));
    assert_eq!(s.execute(by_f).unwrap().into_rows(), rows);
    assert_eq!(e.plan_cache_stats().invalidations, invalidated + 1);

    // TRUNCATE
    s.execute("TRUNCATE t").unwrap();
    assert!(s.execute(by_f).unwrap().rows().is_empty());
    s.execute("INSERT INTO t VALUES (2, 0, 'two', 2.5)").unwrap();
    assert_eq!(s.execute(by_f).unwrap().into_rows(), vec![vec![Datum::Int(2)]]);

    // DROP + CREATE under the same name with the columns in another order:
    // the same statement text now means other columns
    let insert = "INSERT INTO t VALUES (7, 1, 'seven', 0.5)";
    s.execute(insert).unwrap();
    s.execute("DROP TABLE t").unwrap();
    s.execute("CREATE TABLE t (f float, s text, v bigint, k bigint PRIMARY KEY)").unwrap();
    assert_eq!(s.execute(insert).unwrap_err().code, ErrorCode::InvalidText, "7 is f now, 0.5 is k");
    s.execute("INSERT INTO t VALUES (2.5, 'x', 1, 3)").unwrap();
    assert_eq!(s.execute(by_f).unwrap().into_rows(), vec![vec![Datum::Int(3)]]);
    assert_eq!(
        s.execute("SELECT * FROM t WHERE k = 3").unwrap().into_rows(),
        vec![vec![Datum::Float(2.5), Datum::from_text("x"), Datum::Int(1), Datum::Int(3)]]
    );

    // storage and cost-model attributes are part of what a plan was built from
    s.execute("CREATE TABLE w (a bigint, b bigint)").unwrap();
    let count = "SELECT count(*) FROM w WHERE b = 1";
    s.execute(count).unwrap();
    e.set_columnar("w").unwrap();
    s.execute("INSERT INTO w VALUES (1, 1), (2, 1)").unwrap();
    assert_eq!(s.execute(count).unwrap().into_rows(), vec![vec![Datum::Int(2)]]);
    let narrow = s.last_cost();
    e.set_sim_row_width("w", 80_000).unwrap();
    s.execute(count).unwrap();
    assert!(s.last_cost().pages_read > narrow.pages_read, "the wider rows are charged");
}

#[test]
fn shape_churn_does_not_grow_the_cache() {
    let (e, mut s) = fixture();
    // every VALUES row count and every IN-list length is a shape of its own
    for round in 0..3i64 {
        for n in 1..300i64 {
            let rows: Vec<String> =
                (0..n).map(|i| format!("({}, 0, 'r')", 10_000 + round * 100_000 + n * 300 + i)).collect();
            s.execute(&format!("INSERT INTO c VALUES {}", rows.join(", "))).unwrap();
            let list: Vec<String> = (0..n % 30 + 1).map(|i| (i + round).to_string()).collect();
            s.execute(&format!("SELECT count(*) FROM t WHERE k IN ({}) AND v = {n}", list.join(", ")))
                .unwrap();
        }
    }
    let stats = e.plan_cache_stats();
    assert!(stats.entries <= 512, "{stats:?}");
    // long statements are planned as written: about 1 KB of skeleton is the bound
    assert!(stats.hits + stats.misses < 3 * 299 * 2, "{stats:?}");
}
