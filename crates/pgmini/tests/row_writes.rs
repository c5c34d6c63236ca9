//! One way to write a row. A COPY is an INSERT of rows that are already
//! materialised, so loading the same rows either way must leave the same
//! table, the same index entries, the same log and the same cost, and refuse
//! a bad row with the same SQLSTATE. An UPDATE and an upsert replace a version
//! the same way, so they report a NULL in a NOT NULL column in INSERT's words,
//! and an upsert whose conflicting row disappears while it waits looks for it
//! again. A partial index neither evaluates nor constrains the rows its
//! predicate leaves out.

use pgmini::engine::Engine;
use pgmini::error::PgError;
use pgmini::index::IndexStore;
use pgmini::types::{Datum, Row};
use std::sync::Arc;

/// A heap table with every kind of constraint and index a write maintains,
/// and a columnar table with a NOT NULL column and a default.
const SCHEMA: [&str; 4] = [
    "CREATE TABLE h (k bigint PRIMARY KEY, email text UNIQUE, body text NOT NULL, \
     score bigint DEFAULT 7, tag text)",
    "CREATE INDEX h_body ON h USING gin (body)",
    "CREATE INDEX h_hot ON h (k) WHERE tag = 'hot'",
    "CREATE TABLE c (k bigint NOT NULL, v text, n bigint DEFAULT 3) USING columnar",
];

/// The rows both loads write, as COPY text: `h (k, email, body, tag)` and
/// `c (k, v)`. `score` and `n` take their defaults.
const HEAP_ROWS: &str = "1,a@x.org,fix postgres planner bug,hot\n\
                         2,\\N,update docs for the planner,cold\n\
                         3,b@x.org,postgres deadlock detector,hot\n\
                         4,\\N,\"cleanup, lint and ci\",\\N\n\
                         5,c@x.org,,hot\n";
const COLUMNAR_ROWS: &str = "10,ten\n11,\\N\n12,twelve\n";

/// The same rows as `INSERT … VALUES`.
const HEAP_INSERT: &str = "INSERT INTO h (k, email, body, tag) VALUES \
     (1, 'a@x.org', 'fix postgres planner bug', 'hot'), \
     (2, NULL, 'update docs for the planner', 'cold'), \
     (3, 'b@x.org', 'postgres deadlock detector', 'hot'), \
     (4, NULL, 'cleanup, lint and ci', NULL), \
     (5, 'c@x.org', '', 'hot')";
const COLUMNAR_INSERT: &str = "INSERT INTO c (k, v) VALUES (10, 'ten'), (11, NULL), (12, 'twelve')";

const HEAP_COLS: [&str; 4] = ["k", "email", "body", "tag"];
const COLUMNAR_COLS: [&str; 2] = ["k", "v"];

fn cols(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

fn engine_with_schema() -> Arc<Engine> {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    for ddl in SCHEMA {
        s.execute(ddl).unwrap();
    }
    e
}

/// Load `table` on a new session, by COPY text or by an INSERT statement,
/// and return that session's statement cost.
fn load(e: &Arc<Engine>, by_copy: bool, table: &str) -> pgmini::cost::SimCost {
    let mut s = e.session().unwrap();
    let (names, text, insert) = match table {
        "h" => (&HEAP_COLS[..], HEAP_ROWS, HEAP_INSERT),
        _ => (&COLUMNAR_COLS[..], COLUMNAR_ROWS, COLUMNAR_INSERT),
    };
    let n = if by_copy {
        s.copy_text(table, &cols(names), text).unwrap()
    } else {
        s.execute(insert).unwrap().affected()
    };
    assert_eq!(n, text.lines().count() as u64, "{table}: rows loaded");
    s.last_cost()
}

/// What a reader can tell about an engine's tables: their rows, what each
/// index of `h` answers, and the kinds of the records in its log.
#[derive(Debug, PartialEq)]
struct Observed {
    heap: Vec<Row>,
    columnar: Vec<Row>,
    probes: Vec<(u64, Vec<Vec<u64>>)>,
    wal: Vec<String>,
}

fn observe(e: &Arc<Engine>) -> Observed {
    let mut s = e.session().unwrap();
    let heap = s.query("SELECT * FROM h ORDER BY k").unwrap();
    let columnar = s.query("SELECT * FROM c ORDER BY k").unwrap();
    let meta = e.table_meta("h").unwrap();
    let probes = meta
        .indexes
        .iter()
        .map(|iid| {
            let store = e.index_store(*iid).unwrap();
            let answers = match &*store {
                IndexStore::BTree(b) => vec![b.scan_ordered()],
                IndexStore::Gin(g) => ["%postgres%", "%planner%", "%lint%", "%bug%"]
                    .iter()
                    .map(|p| g.candidates_for_like(p).unwrap())
                    .collect(),
            };
            (store.len(), answers)
        })
        .collect();
    let wal = e
        .wal
        .all()
        .iter()
        .map(|rec| format!("{rec:?}").chars().take_while(|c| c.is_alphanumeric()).collect())
        .collect();
    Observed { heap, columnar, probes, wal }
}

#[test]
fn copy_loads_like_insert() {
    let by_copy = engine_with_schema();
    let by_insert = engine_with_schema();
    for table in ["h", "c"] {
        assert_eq!(load(&by_copy, true, table), load(&by_insert, false, table), "{table}: cost");
    }
    let copied = observe(&by_copy);
    assert_eq!(copied, observe(&by_insert));
    // the load did write: defaults, every index and one record per row
    assert_eq!(copied.heap[0][3], Datum::Int(7));
    assert_eq!(copied.columnar[1], vec![Datum::Int(11), Datum::Null, Datum::Int(3)]);
    assert_eq!(copied.probes[3], (3, vec![vec![1, 3, 5]]), "partial index: the hot rows");
    assert_eq!(copied.probes[2].1[0], vec![1, 3], "GIN: the rows saying postgres");
    let kinds = |k: &str| copied.wal.iter().filter(|w| *w == k).count();
    assert_eq!((kinds("Insert"), kinds("ColumnarAppend")), (5, 1));

    // a row breaking each constraint: the same SQLSTATE either way, and
    // neither load leaves anything behind
    let bad: [(&str, &str, &str); 5] = [
        ("h", "1,z@x.org,dup,hot", "1, 'z@x.org', 'dup', 'hot'"),
        ("h", "9,a@x.org,dup,hot", "9, 'a@x.org', 'dup', 'hot'"),
        ("h", "9,z@x.org,\\N,hot", "9, 'z@x.org', NULL, 'hot'"),
        ("h", "nine,z@x.org,b,hot", "'nine', 'z@x.org', 'b', 'hot'"),
        ("c", "\\N,null key", "NULL, 'null key'"),
    ];
    let mut copy_session = by_copy.session().unwrap();
    let mut insert_session = by_insert.session().unwrap();
    for (table, text, values) in bad {
        let names = if table == "h" { &HEAP_COLS[..] } else { &COLUMNAR_COLS[..] };
        let copied = copy_session.copy_text(table, &cols(names), text).unwrap_err();
        let insert = format!("INSERT INTO {table} ({}) VALUES ({values})", names.join(", "));
        let inserted = insert_session.execute(&insert).unwrap_err();
        assert_eq!(copied.code.sqlstate(), inserted.code.sqlstate(), "{text}");
    }
    let after = observe(&by_copy);
    assert_eq!((after.heap, after.columnar), (copied.heap, copied.columnar));
    assert_eq!(observe(&by_copy).probes, observe(&by_insert).probes);
}

#[test]
fn not_null_reads_the_same_from_every_write() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v text NOT NULL)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    let errors: [PgError; 4] = [
        s.execute("INSERT INTO t VALUES (2, NULL)").unwrap_err(),
        s.copy_text("t", &[], "2,\\N").unwrap_err(),
        s.execute("UPDATE t SET v = NULL WHERE k = 1").unwrap_err(),
        s.execute("INSERT INTO t VALUES (1, 'b') ON CONFLICT (k) DO UPDATE SET v = NULL")
            .unwrap_err(),
    ];
    for err in &errors {
        assert_eq!(err.code.sqlstate(), "23502", "{err:?}");
        assert_eq!(err.message, errors[0].message);
    }
    assert_eq!(s.query("SELECT v FROM t").unwrap(), vec![vec![Datum::from_text("a")]]);
}

/// Run `upsert` on a second session while the first holds `k = 1`'s row
/// lock inside the open transaction `concurrent`, commit that once the
/// upsert waits, and return the rows the upsert reports and the table after.
fn upsert_after(concurrent: &[&str], upsert: &'static str) -> (u64, Vec<Row>) {
    let e = Engine::new_default();
    let mut a = e.session().unwrap();
    a.execute("CREATE TABLE t (k bigint PRIMARY KEY, v text)").unwrap();
    a.execute("INSERT INTO t VALUES (1, 'old')").unwrap();
    a.execute("BEGIN").unwrap();
    for sql in concurrent {
        a.execute(sql).unwrap();
    }
    let waiter = {
        let e = e.clone();
        std::thread::spawn(move || e.session()?.execute(upsert).map(|r| r.affected()))
    };
    // the upsert blocks on the row lock (or failed: join reports it)
    while e.locks.waiting_count() == 0 && !waiter.is_finished() {
        std::hint::spin_loop();
    }
    a.execute("COMMIT").unwrap();
    let affected = waiter.join().unwrap().unwrap();
    (affected, a.query("SELECT k, v FROM t ORDER BY k").unwrap())
}

const UPSERT: &str =
    "INSERT INTO t VALUES (1, 'new') ON CONFLICT (k) DO UPDATE SET v = excluded.v";

/// Read committed: an upsert that waited on the deleter of its conflicting
/// row finds the row gone once the deleter commits, and inserts instead.
#[test]
fn upsert_inserts_when_its_conflict_was_deleted_meanwhile() {
    let (affected, rows) = upsert_after(&["DELETE FROM t WHERE k = 1"], UPSERT);
    assert_eq!(affected, 1);
    assert_eq!(rows, vec![vec![Datum::Int(1), Datum::from_text("new")]]);
}

/// Read committed: a waiting upsert whose conflicting row changed looks for
/// its conflict again. When the deleter put the key back as a new row, it
/// updates that row; when an UPDATE moved the row off the key, it leaves
/// that row alone and inserts.
#[test]
fn upsert_searches_again_when_its_conflict_changed_meanwhile() {
    let row = |k, v| vec![Datum::Int(k), Datum::from_text(v)];
    let put_back = ["DELETE FROM t WHERE k = 1", "INSERT INTO t VALUES (1, 'back')"];
    assert_eq!(upsert_after(&put_back, UPSERT), (1, vec![row(1, "new")]));
    let moved = ["UPDATE t SET k = 2 WHERE k = 1"];
    assert_eq!(upsert_after(&moved, UPSERT), (1, vec![row(1, "new"), row(2, "old")]));
}

/// A partial index's key expressions run only on the rows its predicate
/// admits, so a key the predicate guards fails no write, index backfill,
/// vacuum or redo of a row it leaves out.
#[test]
fn partial_index_key_runs_only_on_rows_it_admits() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE p (id bigint PRIMARY KEY, k bigint)").unwrap();
    s.execute("INSERT INTO p VALUES (1, 4), (2, 5), (5, 20)").unwrap();
    s.execute("CREATE INDEX p_inv ON p ((100 / k)) WHERE k <> 0").unwrap();
    s.execute("INSERT INTO p VALUES (3, 0)").unwrap();
    s.copy_text("p", &[], "4,0").unwrap();
    s.execute("UPDATE p SET k = 0 WHERE id = 1").unwrap();
    s.execute("INSERT INTO p VALUES (2, 0) ON CONFLICT (id) DO UPDATE SET k = excluded.k")
        .unwrap();
    s.execute("CREATE INDEX p_tenth ON p ((10 / k)) WHERE k > 0").unwrap();
    s.execute("DELETE FROM p WHERE id = 4").unwrap();
    e.vacuum_all().unwrap();
    let expect: Vec<Row> = [(1, 0), (2, 0), (3, 0), (5, 20)]
        .iter()
        .map(|&(id, k)| vec![Datum::Int(id), Datum::Int(k)])
        .collect();
    assert_eq!(s.query("SELECT id, k FROM p ORDER BY id").unwrap(), expect);
    let restored = Engine::restore_from_wal(&e.wal.all(), None).unwrap();
    let mut r = restored.session().unwrap();
    assert_eq!(r.query("SELECT id, k FROM p ORDER BY id").unwrap(), expect);
}

/// A partial unique index constrains only the rows its predicate admits:
/// rows it leaves out may share a key with each other and with an admitted
/// row, and a row updated out of it frees its key.
#[test]
fn partial_unique_index_constrains_only_rows_it_admits() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE u (id bigint PRIMARY KEY, code text, state text)").unwrap();
    s.execute("CREATE UNIQUE INDEX u_live ON u (code) WHERE state = 'live'").unwrap();
    s.execute("INSERT INTO u VALUES (1, 'a', 'live'), (2, 'a', 'gone')").unwrap();
    s.copy_text("u", &[], "3,a,gone").unwrap();
    let dup = s.execute("INSERT INTO u VALUES (4, 'a', 'live')").unwrap_err();
    assert_eq!(dup.code.sqlstate(), "23505", "{dup:?}");
    s.execute("UPDATE u SET state = 'gone' WHERE id = 1").unwrap();
    s.execute("INSERT INTO u VALUES (4, 'a', 'live')").unwrap();
    let dup = s.execute("UPDATE u SET state = 'live' WHERE id = 2").unwrap_err();
    assert_eq!(dup.code.sqlstate(), "23505", "{dup:?}");
    let live = s.query("SELECT id FROM u WHERE state = 'live'").unwrap();
    assert_eq!(live, vec![vec![Datum::Int(4)]]);
}
