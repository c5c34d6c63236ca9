//! Sharing is a property, not a hope: a text or JSON value is one allocation
//! however many places hold it. Each assertion is `Arc::ptr_eq` between two
//! holders of the same value.

use pgmini::engine::Engine;
use pgmini::txn::INVALID_XID;
use pgmini::types::{Datum, Json, Row};
use pgmini::wal::{decode_table_changes, Change, WalRecord};
use std::sync::Arc;

/// Do `a` and `b` point at the same text / JSON allocation?
fn same(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Text(x), Datum::Text(y)) => Arc::ptr_eq(x, y),
        (Datum::Json(x), Datum::Json(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// The one row of `table` visible to a new snapshot, as the heap holds it.
fn heap_row(e: &Arc<Engine>, table: &str) -> Row {
    let meta = e.table_meta(table).unwrap();
    let rows = e.store(meta.id).unwrap().scan_visible_rows(&e.txns, &e.txns.snapshot(INVALID_XID));
    assert_eq!(rows.len(), 1);
    rows.into_iter().next().unwrap()
}

#[test]
fn an_update_shares_untouched_columns_with_the_old_version_the_wal_and_the_result() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    let fields: Vec<String> = (0..10).map(|i| format!("f{i} text")).collect();
    s.execute(&format!("CREATE TABLE t (k bigint PRIMARY KEY, {})", fields.join(", "))).unwrap();
    let mut row = vec![Datum::Int(7)];
    row.extend((0..10).map(|i| Datum::from_text(&format!("{i}").repeat(100))));
    s.copy_rows("t", &[], vec![row]).unwrap();

    let old = heap_row(&e, "t");
    s.execute(&format!("UPDATE t SET f3 = '{}' WHERE k = 7", "x".repeat(100))).unwrap();
    let new = heap_row(&e, "t");
    // column 0 is the key, f3 is column 4
    for c in 1..=10 {
        assert_eq!(same(&old[c], &new[c]), c != 4, "column {c}");
    }
    assert_eq!(new[4], Datum::from_text(&"x".repeat(100)));

    // the WAL images are the heap's: old image = old version, new = new version
    let (wal_old, wal_new) = e.wal.read(0, e.wal.lsn(), |recs| {
        recs.iter()
            .find_map(|r| match r {
                WalRecord::Update { old_row, new_row, .. } => {
                    Some((old_row.clone(), new_row.clone()))
                }
                _ => None,
            })
            .expect("the update is logged")
    });
    for c in 1..=10 {
        assert!(same(&wal_old[c], &old[c]), "old image, column {c}");
        assert!(same(&wal_new[c], &new[c]), "new image, column {c}");
    }

    // an unprojected result row is the heap's strings too
    let result = s.execute("SELECT * FROM t WHERE k = 7").unwrap();
    let got = &result.rows()[0];
    for c in 1..=10 {
        assert!(same(&got[c], &new[c]), "result, column {c}");
    }
}

#[test]
fn a_json_value_is_one_tree_from_copy_to_the_decoded_change() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE ev (id text PRIMARY KEY, data jsonb)").unwrap();
    let doc = Datum::json(Json::parse(r#"{"payload": {"commits": [{"message": "m"}]}}"#).unwrap());
    s.copy_rows("ev", &[], vec![vec![Datum::from_text("e1"), doc.clone()]]).unwrap();

    let heap = heap_row(&e, "ev");
    assert!(same(&heap[1], &doc), "COPY → heap");

    let table = e.table_meta("ev").unwrap().id;
    e.wal.read(0, e.wal.lsn(), |recs| {
        let logged = recs
            .iter()
            .find_map(|r| match r {
                WalRecord::Insert { row, .. } => Some(row),
                _ => None,
            })
            .expect("the insert is logged");
        assert!(same(&logged[1], &doc), "heap → WAL");
        let decoded = decode_table_changes(recs, 0, table);
        let [Change::Insert(row)] = decoded.changes.as_slice() else {
            panic!("one committed insert expected, got {:?}", decoded.changes)
        };
        assert!(same(&row[1], &doc), "WAL → decoded change");
        assert!(same(&row[0], &heap[0]), "the text key is shared as well");
    });
}
