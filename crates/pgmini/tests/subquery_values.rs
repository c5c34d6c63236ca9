//! An uncorrelated `IN` subquery answers like the same statement with the
//! subquery's rows written out as a literal `IN` list, and a DISTINCT
//! aggregate like the plain aggregate over the distinct (group, value)
//! pairs. Each statement's EXPLAIN text and exact `SimCost` are pinned, so
//! a change to how a subquery's values reach the outer plan, or to how
//! DISTINCT deduplicates, shows here if it moves a plan or a charge.
//!
//! The cases cover `IN` and `NOT IN` over results of 0, 1, 32, 33 and
//! 10 000 rows (32 is the longest list the binder keeps as a list), NULL in
//! the result and in the probed column, heap and columnar tables on both
//! sides, text and timestamp values, a grouped subquery with `HAVING
//! count(DISTINCT …)`, and `count` / `sum` / `avg(DISTINCT)` where one value
//! is shared by two groups.

use pgmini::engine::Engine;
use pgmini::session::Session;
use pgmini::types::{Datum, Row};
use std::sync::Arc;

const SOURCE_ROWS: i64 = 10_000;

/// Source rows `(x, g, v, s, t)`: `x` = i, `g` = i / 4, and `v` = g in even
/// groups, g + i % 2 in odd ones, so an odd group holds two distinct values
/// and shares its larger one with the next group; `s` and `t` are text and
/// timestamp forms of `x`. One more row has every column NULL.
fn source_rows() -> Vec<Row> {
    let mut rows: Vec<Row> = (0..SOURCE_ROWS)
        .map(|i| {
            let g = i / 4;
            let v = if g % 2 == 0 { g } else { g + i % 2 };
            vec![
                Datum::Int(i),
                Datum::Int(g),
                Datum::Int(v),
                Datum::from_text(&format!("s{i}")),
                Datum::Timestamp(1_577_836_800_000_000 + i * 3_600_000_000),
            ]
        })
        .collect();
    rows.push(vec![Datum::Null; 5]);
    rows
}

/// Probed rows `(k, v, s, t)`: every third key below 12 000, so some keys
/// are in a source result and some are not, and a few rows with a NULL key.
fn probed_rows() -> Vec<Row> {
    (0..4_000i64)
        .map(|i| {
            let k = if i % 500 == 7 { None } else { Some(i * 3) };
            vec![
                k.map_or(Datum::Null, Datum::Int),
                Datum::Int(i % 97),
                k.map_or(Datum::Null, |k| Datum::from_text(&format!("s{k}"))),
                k.map_or(Datum::Null, |k| {
                    Datum::Timestamp(1_577_836_800_000_000 + k * 3_600_000_000)
                }),
            ]
        })
        .collect()
}

/// Table `d (g, v)`: value 5 sits in groups 1 and 2, and NULLs in 2 and 3.
const SMALL: &str = "(1, 5), (1, 5), (1, 7), (2, 5), (2, NULL), (3, NULL)";

/// An engine holding heap tables `src`, `h` and `d` and their columnar
/// twins `csrc`, `c` and `cd`.
fn loaded() -> (Arc<Engine>, Session) {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    for (heap, col) in [("src", "csrc"), ("h", "c"), ("d", "cd")] {
        let columns = match heap {
            "src" => "(x bigint, g bigint, v bigint, s text, t timestamp)",
            "h" => "(k bigint, v bigint, s text, t timestamp)",
            _ => "(g bigint, v bigint)",
        };
        s.execute(&format!("CREATE TABLE {heap} {columns}"))
            .unwrap();
        s.execute(&format!("CREATE TABLE {col} {columns} USING columnar"))
            .unwrap();
        for t in [heap, col] {
            match heap {
                "src" => s.copy_rows(t, &[], source_rows()).unwrap(),
                "h" => s.copy_rows(t, &[], probed_rows()).unwrap(),
                _ => s
                    .execute(&format!("INSERT INTO {t} VALUES {SMALL}"))
                    .unwrap()
                    .affected(),
            };
        }
    }
    (e, s)
}

/// `sql` with its one `IN (SELECT …)` written out as the literal list of
/// the subquery's rows, or as the boolean an empty result stands for.
fn written_out(reference: &mut Session, sql: &str) -> String {
    let open = sql.find("(SELECT").unwrap();
    let mut depth = 0;
    let close = open
        + sql[open..]
            .find(|c| {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .unwrap();
    let rows = reference.query(&sql[open + 1..close]).unwrap();
    let negated = sql[..open].ends_with("NOT IN ");
    let probe_at = sql[..open].rfind(" WHERE ").unwrap() + " WHERE ".len();
    if rows.is_empty() {
        return format!("{}{}{}", &sql[..probe_at], negated, &sql[close + 1..]);
    }
    let values: Vec<String> = rows
        .iter()
        .map(|r| match &r[0] {
            Datum::Null => "NULL".to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Timestamp(_) => format!("'{}'::timestamp", r[0].to_text()),
            other => format!("'{}'", other.to_text()),
        })
        .collect();
    format!(
        "{}({}){}",
        &sql[..open],
        values.join(", "),
        &sql[close + 1..]
    )
}

/// Run each `(sql, reference, explain, cost)` case in order on one engine:
/// the statement's rows must equal `reference`'s (written out by
/// [`written_out`] when `None`) on a second engine, and its EXPLAIN lines
/// and `SimCost` must equal the pinned text.
fn check(cases: &[(&str, Option<&str>, &str, &str)]) {
    let (_e, mut s) = loaded();
    let (_r, mut reference) = loaded();
    let mut differ = Vec::new();
    for &(sql, reference_sql, explain, cost) in cases {
        let want_sql = reference_sql.map_or_else(|| written_out(&mut reference, sql), String::from);
        let want = reference.query(&want_sql).unwrap();
        let got_explain: Vec<String> = s
            .query(&format!("EXPLAIN {sql}"))
            .unwrap()
            .iter()
            .map(|r| r[0].to_text())
            .collect();
        let got = s.query(sql).unwrap();
        let got_cost = format!("{:?}", s.last_cost());
        assert_eq!(got, want, "{sql}\nanswers unlike {want_sql}");
        let got_explain = got_explain.join(" | ");
        if got_explain != explain || got_cost != cost {
            differ.push(format!(
                "{sql}\n  want: {explain}\n        {cost}\n  got:  {got_explain}\n        {got_cost}"
            ));
        }
    }
    assert!(
        differ.is_empty(),
        "{} of {} differ:\n{}",
        differ.len(),
        cases.len(),
        differ.join("\n")
    );
}

#[test]
fn in_subqueries_answer_like_their_written_lists() {
    check(&[
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 0)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 1)",
            "SimCost { cpu_ms: 7.050999999999999, io_ms: 5.6, net_ms: 0.0, pages_read: 155, page_misses: 42, rows_processed: 14002, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 0)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 1)",
            "SimCost { cpu_ms: 9.051, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 18002, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 1)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.051999999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14004, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 1)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 9.047, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 17994, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 32)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.071999999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14044, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 32)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 9.058, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 18016, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 33)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.072499999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14045, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 33)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 9.0585, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 18017, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 10000)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 13.7145, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 27329, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 10000)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 12.3835, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 24667, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 10 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.058499999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14017, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 10 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.056499999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14013, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT x FROM src WHERE x < 40 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.077999999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14056, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT x FROM src WHERE x < 40 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.0714999999999995, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14043, batches: 0 }",
        ),
        (
            "SELECT k, v FROM h WHERE k IN (SELECT x FROM src WHERE x < 60) ORDER BY k",
            None,
            "Sort | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 7.130355311377714, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14080, batches: 0 }",
        ),
        (
            "SELECT count(*) FROM h WHERE s IN (SELECT s FROM src WHERE x < 300)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 1)",
            "SimCost { cpu_ms: 7.2505, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 14401, batches: 0 }",
        ),
        (
            "SELECT count(*) FROM h WHERE t NOT IN (SELECT t FROM src WHERE x < 20)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 1)",
            "SimCost { cpu_ms: 9.0535, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 18007, batches: 0 }",
        ),
        (
            "SELECT count(*) FROM h WHERE t NOT IN (SELECT t FROM src WHERE x < 3000)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 1)",
            "SimCost { cpu_ms: 10.048, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 19996, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k IN (SELECT g FROM src GROUP BY g HAVING count(DISTINCT v) > 1)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 12.883999999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 25668, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM h WHERE k NOT IN (SELECT g FROM src GROUP BY g HAVING count(DISTINCT v) > 1)",
            None,
            "HashAggregate | Seq Scan on h (filtered) (cols: 2)",
            "SimCost { cpu_ms: 14.464999999999998, io_ms: 0.0, net_ms: 0.0, pages_read: 155, page_misses: 0, rows_processed: 28830, batches: 0 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 0)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 1)",
            "SimCost { cpu_ms: 0.45852, io_ms: 0.8, net_ms: 0.0, pages_read: 20, page_misses: 6, rows_processed: 14002, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 0)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 1)",
            "SimCost { cpu_ms: 0.45852, io_ms: 0.0, net_ms: 0.0, pages_read: 20, page_misses: 0, rows_processed: 14002, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 1)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.47502, io_ms: 0.8, net_ms: 0.0, pages_read: 26, page_misses: 6, rows_processed: 14003, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 1)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.47502, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14003, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 32)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.49052, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14034, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 32)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.49052, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14034, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 33)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.49102, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14035, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 33)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.49102, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14035, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 10000)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 5.47452, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 24002, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 10000)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 5.47452, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 24002, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 10 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.56002, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14013, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 10 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.56002, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14013, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 40 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.57502, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14043, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT x FROM csrc WHERE x < 40 OR x IS NULL)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.57502, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14043, batches: 14 }",
        ),
        (
            "SELECT k, v FROM c WHERE k IN (SELECT x FROM csrc WHERE x < 60) ORDER BY k",
            None,
            "Sort | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 0.521875311377714, io_ms: 0.0, net_ms: 0.0, pages_read: 26, page_misses: 0, rows_processed: 14080, batches: 14 }",
        ),
        (
            "SELECT count(*) FROM c WHERE s IN (SELECT s FROM csrc WHERE x < 300)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 1)",
            "SimCost { cpu_ms: 0.60852, io_ms: 3.2, net_ms: 0.0, pages_read: 95, page_misses: 24, rows_processed: 14302, batches: 14 }",
        ),
        (
            "SELECT count(*) FROM c WHERE t NOT IN (SELECT t FROM csrc WHERE x < 20)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 1)",
            "SimCost { cpu_ms: 0.7885199999999999, io_ms: 0.8, net_ms: 0.0, pages_read: 34, page_misses: 6, rows_processed: 14022, batches: 14 }",
        ),
        (
            "SELECT count(*) FROM c WHERE t NOT IN (SELECT t FROM csrc WHERE x < 3000)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 1)",
            "SimCost { cpu_ms: 1.9585199999999998, io_ms: 0.0, net_ms: 0.0, pages_read: 34, page_misses: 0, rows_processed: 17002, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k IN (SELECT g FROM csrc GROUP BY g HAVING count(DISTINCT v) > 1)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 1.1395199999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 40, page_misses: 0, rows_processed: 15252, batches: 14 }",
        ),
        (
            "SELECT count(*), sum(v) FROM c WHERE k NOT IN (SELECT g FROM csrc GROUP BY g HAVING count(DISTINCT v) > 1)",
            None,
            "HashAggregate | Seq Scan on c (filtered) (cols: 2)",
            "SimCost { cpu_ms: 1.1395199999999999, io_ms: 0.0, net_ms: 0.0, pages_read: 40, page_misses: 0, rows_processed: 15252, batches: 14 }",
        ),
    ]);
}

#[test]
fn distinct_aggregates_answer_like_distinct_pairs() {
    check(&[
        (
            "SELECT g, count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM d GROUP BY g ORDER BY g",
            Some("SELECT g, count(v), sum(v), avg(v) FROM (SELECT DISTINCT g, v FROM d) s GROUP BY g ORDER BY g"),
            "Sort | HashAggregate | Seq Scan on d (cols: 2)",
            "SimCost { cpu_ms: 0.05987744375108174, io_ms: 0.13333333333333333, net_ms: 0.0, pages_read: 1, page_misses: 1, rows_processed: 15, batches: 0 }",
        ),
        (
            "SELECT count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM d",
            Some("SELECT count(v), sum(v), avg(v) FROM (SELECT DISTINCT v FROM d) s"),
            "HashAggregate | Seq Scan on d (cols: 1)",
            "SimCost { cpu_ms: 0.05650000000000001, io_ms: 0.0, net_ms: 0.0, pages_read: 1, page_misses: 0, rows_processed: 13, batches: 0 }",
        ),
        (
            "SELECT g, count(DISTINCT v), count(v), sum(DISTINCT v), sum(v) FROM d GROUP BY g ORDER BY g",
            Some("SELECT a.g, a.n, b.c, a.s, b.t FROM (SELECT g, count(v) AS n, sum(v) AS s FROM (SELECT DISTINCT g, v FROM d) x GROUP BY g) a JOIN (SELECT g, count(v) AS c, sum(v) AS t FROM d GROUP BY g) b ON a.g = b.g ORDER BY a.g"),
            "Sort | HashAggregate | Seq Scan on d (cols: 2)",
            "SimCost { cpu_ms: 0.05987744375108174, io_ms: 0.0, net_ms: 0.0, pages_read: 1, page_misses: 0, rows_processed: 15, batches: 0 }",
        ),
        (
            "SELECT g % 7 AS m, count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM src GROUP BY 1 ORDER BY 1",
            Some("SELECT m, count(v), sum(v), avg(v) FROM (SELECT DISTINCT g % 7 AS m, v FROM src) s GROUP BY m ORDER BY m"),
            "Sort | HashAggregate | Seq Scan on src (cols: 2)",
            "SimCost { cpu_ms: 10.066999999999998, io_ms: 15.066666666666666, net_ms: 0.0, pages_read: 113, page_misses: 113, rows_processed: 20010, batches: 0 }",
        ),
        (
            "SELECT g, count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM cd GROUP BY g ORDER BY g",
            Some("SELECT g, count(v), sum(v), avg(v) FROM (SELECT DISTINCT g, v FROM cd) s GROUP BY g ORDER BY g"),
            "Sort | HashAggregate | Seq Scan on cd (cols: 2)",
            "SimCost { cpu_ms: 0.07399744375108173, io_ms: 0.26666666666666666, net_ms: 0.0, pages_read: 2, page_misses: 2, rows_processed: 9, batches: 1 }",
        ),
        (
            "SELECT count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM cd",
            Some("SELECT count(v), sum(v), avg(v) FROM (SELECT DISTINCT v FROM cd) s"),
            "HashAggregate | Seq Scan on cd (cols: 1)",
            "SimCost { cpu_ms: 0.06662, io_ms: 0.0, net_ms: 0.0, pages_read: 1, page_misses: 0, rows_processed: 7, batches: 1 }",
        ),
        (
            "SELECT g, count(DISTINCT v), count(v), sum(DISTINCT v), sum(v) FROM cd GROUP BY g ORDER BY g",
            Some("SELECT a.g, a.n, b.c, a.s, b.t FROM (SELECT g, count(v) AS n, sum(v) AS s FROM (SELECT DISTINCT g, v FROM cd) x GROUP BY g) a JOIN (SELECT g, count(v) AS c, sum(v) AS t FROM cd GROUP BY g) b ON a.g = b.g ORDER BY a.g"),
            "Sort | HashAggregate | Seq Scan on cd (cols: 2)",
            "SimCost { cpu_ms: 0.07799744375108174, io_ms: 0.0, net_ms: 0.0, pages_read: 2, page_misses: 0, rows_processed: 9, batches: 1 }",
        ),
        (
            "SELECT g % 7 AS m, count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v) FROM csrc GROUP BY 1 ORDER BY 1",
            Some("SELECT m, count(v), sum(v), avg(v) FROM (SELECT DISTINCT g % 7 AS m, v FROM csrc) s GROUP BY m ORDER BY m"),
            "Sort | HashAggregate | Seq Scan on csrc (cols: 2)",
            "SimCost { cpu_ms: 0.5060199999999999, io_ms: 3.7333333333333334, net_ms: 0.0, pages_read: 28, page_misses: 28, rows_processed: 10009, batches: 10 }",
        ),
    ]);
}
