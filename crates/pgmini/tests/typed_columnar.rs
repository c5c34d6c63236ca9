//! Typed columnar stripes keep every value: a columnar table answers like a
//! heap table holding the same rows, and its rows come back equal through
//! every path that carries a stripe — WAL replay, a shard move's copy and
//! catch-up, logical decoding and the byte encoding. The rows hold NULL in
//! every column type, NaN, ±0.0, `i64::MIN` / `i64::MAX`, timestamps, empty
//! text, repeated and unique text, booleans and JSON.

use pgmini::engine::Engine;
use pgmini::session::Session;
use pgmini::types::{Datum, Json, Row};
use pgmini::wal::{decode_record, decode_table_changes, encode_record, Change, WalRecord};
use std::sync::Arc;

const COLUMNS: &str =
    "(k bigint, i bigint, f float, ts timestamp, s text, u text, b boolean, j jsonb)";

/// Day `d` after 2020-01-01, in microseconds.
fn day(d: i64) -> Datum {
    Datum::Timestamp(1_577_836_800_000_000 + d * 86_400_000_000)
}

/// Rows `k` in `keys`: each column cycles through its edge values at its
/// own period, so every combination meets.
fn rows(keys: std::ops::Range<i64>) -> Vec<Row> {
    keys.map(|k| {
        let ints = [Datum::Null, Datum::Int(i64::MIN), Datum::Int(i64::MAX), Datum::Int(0)];
        let floats = [
            Datum::Null,
            Datum::Float(f64::NAN),
            Datum::Float(0.0),
            Datum::Float(-0.0),
            Datum::Float(1.5),
            Datum::Float(-2.25),
        ];
        let repeated = [
            Datum::from_text(""),
            Datum::from_text("MAIL"),
            Datum::Null,
            Datum::from_text("héllo"),
        ];
        vec![
            Datum::Int(k),
            if k % 5 == 4 { Datum::Int(k - 7) } else { ints[k as usize % 4].clone() },
            if k % 7 == 6 { Datum::Float(k as f64 * 0.1) } else { floats[k as usize % 6].clone() },
            if k % 9 == 0 { Datum::Null } else { day(k % 40) },
            repeated[k as usize % 4].clone(),
            if k % 11 == 0 { Datum::Null } else { Datum::from_text(&format!("u{k}")) },
            [Datum::Null, Datum::Bool(true), Datum::Bool(false)][k as usize % 3].clone(),
            if k % 2 == 0 {
                Datum::Null
            } else {
                Datum::json(Json::parse(&format!(r#"{{"k": {k}, "tag": "t{}"}}"#, k % 3)).unwrap())
            },
        ]
    })
    .collect()
}

/// An engine with heap table `h` and columnar table `c`, both loaded with
/// `rows(0..300)` in three COPYs (three stripes of `c`).
fn loaded() -> (Arc<Engine>, Session) {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute(&format!("CREATE TABLE h {COLUMNS}")).unwrap();
    s.execute(&format!("CREATE TABLE c {COLUMNS} USING columnar")).unwrap();
    for part in [0..100, 100..250, 250..300] {
        for t in ["h", "c"] {
            s.copy_rows(t, &[], rows(part.clone())).unwrap();
        }
    }
    (e, s)
}

/// A statement's answer, or its SQLSTATE and message, as text: `{:?}` shows
/// NaN and -0.0 as themselves, where `==` would call NaN unequal to itself.
fn answer(s: &mut Session, sql: &str) -> String {
    match s.execute(sql) {
        Ok(r) => format!("{:?}", r.into_rows()),
        Err(e) => format!("error {}: {}", e.code.sqlstate(), e.message),
    }
}

#[test]
fn a_columnar_table_answers_like_a_heap_table() {
    let (_e, mut s) = loaded();
    let statements = [
        "SELECT * FROM {t} ORDER BY k",
        "SELECT k, i FROM {t} WHERE i > 0 ORDER BY k",
        "SELECT k FROM {t} WHERE i >= 9223372036854775807 ORDER BY k",
        "SELECT k FROM {t} WHERE i < -5 ORDER BY k",
        "SELECT k, f FROM {t} WHERE f = 0 ORDER BY k",
        "SELECT k, f FROM {t} WHERE f > 1 ORDER BY k",
        "SELECT k FROM {t} WHERE 1 < f ORDER BY k",
        "SELECT k FROM {t} WHERE f BETWEEN -3 AND 1.5 ORDER BY k",
        "SELECT k FROM {t} WHERE f NOT BETWEEN -3 AND 1.5 ORDER BY k",
        "SELECT k FROM {t} WHERE ts < '2020-01-05' ORDER BY k",
        "SELECT k FROM {t} WHERE ts >= timestamp '2020-01-30' AND s = 'MAIL' ORDER BY k",
        "SELECT k FROM {t} WHERE ts < 'not a time' ORDER BY k",
        "SELECT k FROM {t} WHERE s = '' ORDER BY k",
        "SELECT k FROM {t} WHERE s LIKE 'h_llo' OR u LIKE '%9%' ORDER BY k",
        "SELECT k FROM {t} WHERE s IN ('MAIL', '') AND u IS NOT NULL ORDER BY k",
        "SELECT k FROM {t} WHERE s IS NULL OR i IS NULL ORDER BY k",
        "SELECT k FROM {t} WHERE b ORDER BY k",
        "SELECT k FROM {t} WHERE i + 1 > 0 ORDER BY k",
        "SELECT k, f * 2 - i FROM {t} WHERE f * 2 < 0 ORDER BY k",
        "SELECT k FROM {t} WHERE k % 3 = 0 AND f / 0.5 > 1 ORDER BY k",
        "SELECT k FROM {t} WHERE k > 1000 AND 1 / (k - k) > 0",
        "SELECT k FROM {t} WHERE k < 50 AND 10 / (k - 20) > 0 ORDER BY k",
        // the constant division runs only on rows whose `i > 0` is NULL
        "SELECT k FROM {t} WHERE i > 0 AND (k > 0 OR 1 / 0 > 0) ORDER BY k",
        // an IN item runs only on rows no earlier item matched
        "SELECT k FROM {t} WHERE k < 1 AND k IN (0, 1 / 0)",
        "SELECT k FROM {t} WHERE k IN (0, 1 / 0)",
        "SELECT count(*), count(i), sum(i), sum(f), avg(f), min(f), max(f) FROM {t}",
        "SELECT min(i), max(i), min(ts), max(ts), min(s), max(u), count(j) FROM {t}",
        "SELECT sum(i), avg(k) FROM {t} WHERE f > -1",
        // `u` is NULL and `s` is '' on row 0: the error names that ''
        "SELECT sum(u), sum(s) FROM {t}",
        "SELECT s, count(*), sum(k), min(f), max(ts) FROM {t} GROUP BY s ORDER BY s",
        "SELECT b, count(DISTINCT s), sum(f) FROM {t} GROUP BY b ORDER BY b",
        "SELECT f, count(*) FROM {t} GROUP BY f ORDER BY f",
        "SELECT count(*) FROM {t} WHERE j IS NOT NULL AND s <> 'MAIL'",
        "SELECT a.k, b.u FROM {t} a JOIN {t} b ON a.s = b.s AND a.k < b.k \
         WHERE a.k < 12 AND b.k < 30 ORDER BY 1, 2",
        "SELECT a.k, h.u FROM {t} a JOIN h ON a.ts = h.ts AND a.i = h.i WHERE a.k < 40 \
         ORDER BY 1, 2",
    ];
    let mut differ = Vec::new();
    for sql in statements {
        let (heap, col) =
            (answer(&mut s, &sql.replace("{t}", "h")), answer(&mut s, &sql.replace("{t}", "c")));
        if heap != col {
            differ.push(format!("{sql}\n  heap:     {heap}\n  columnar: {col}"));
        }
    }
    assert!(differ.is_empty(), "{} statements differ:\n{}", differ.len(), differ.join("\n"));
}

/// `table`'s rows in key order, as text.
fn table_rows(e: &Arc<Engine>, table: &str) -> String {
    answer(&mut e.session().unwrap(), &format!("SELECT * FROM {table} ORDER BY k"))
}

#[test]
fn columnar_rows_survive_replay_a_move_and_decoding() {
    let (src, mut s) = loaded();
    let want = format!("{:?}", rows(0..300));
    assert_eq!(table_rows(&src, "c"), want);

    // WAL replay
    let restored = Engine::restore_from_wal(&src.wal.all(), None).unwrap();
    assert_eq!(table_rows(&restored, "c"), want);

    // a shard move: copy what is there, then catch up on a later COPY
    let dst = Engine::new_default();
    let (create, _) = src.table_schema("c", "c", str::to_string).unwrap();
    dst.ddl_create_table(&create).unwrap();
    let tables = [(src.table_meta("c").unwrap().id, dst.table_meta("c").unwrap().id)];
    let from_lsn = src.wal.lsn();
    dst.copy_table_from(&src, tables[0].0, tables[0].1).unwrap();
    s.copy_rows("c", &[], rows(300..320)).unwrap();
    dst.catch_up_from(&src, from_lsn, &tables).unwrap();
    assert_eq!(table_rows(&dst, "c"), format!("{:?}", rows(0..320)));

    // the copy holds the source's stripe images, not copies of them
    let stripes = |e: &Arc<Engine>| {
        let store = e.store(e.table_meta("c").unwrap().id).unwrap();
        let mut out = Vec::new();
        store.columnar().unwrap().for_each_visible_stripe(
            &e.txns,
            &e.txns.snapshot(pgmini::txn::INVALID_XID),
            |seq, stripe| out.push((seq, stripe.clone())),
        );
        out
    };
    let (from, to) = (stripes(&src), stripes(&dst));
    assert_eq!(from.len(), 4);
    assert_eq!(from.len(), to.len());
    for ((a_seq, a), (b_seq, b)) in from.iter().zip(&to) {
        assert!(a_seq == b_seq && Arc::ptr_eq(a, b), "stripe {a_seq} was copied");
    }

    // logical decoding, and the byte encoding of each stripe record
    let table = src.table_meta("c").unwrap().id;
    src.wal.read(0, src.wal.lsn(), |recs| {
        let decoded = decode_table_changes(recs, 0, table);
        let inserted: Vec<Row> = decoded
            .changes
            .into_iter()
            .map(|c| match c {
                Change::Insert(row) => row,
                other => panic!("a columnar table logs inserts only: {other:?}"),
            })
            .collect();
        assert_eq!(format!("{inserted:?}"), format!("{:?}", rows(0..320)));
        for rec in recs.iter().filter(|r| matches!(r, WalRecord::ColumnarAppend { .. })) {
            let back = decode_record(encode_record(rec)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        }
    });
}
