//! The replay wall: redoing a log into another engine must leave that engine
//! equal to the one that wrote the log, by visible rows under their row ids,
//! columnar stripes under their sequence numbers and what every index
//! answers. The log mixes autocommit writes, rolled-back and two-phase
//! transactions, a second session whose transaction can straddle any cut
//! point, and columnar appends.

use pgmini::engine::Engine;
use pgmini::index::IndexStore;
use pgmini::session::Session;
use pgmini::txn::INVALID_XID;
use pgmini::types::{Datum, Row};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const WORDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    Append(i64),
    /// Writes both tables in one transaction, then ROLLBACK (0), or PREPARE
    /// TRANSACTION and COMMIT PREPARED (1) or ROLLBACK PREPARED (2).
    Txn(i64, i64, u8),
    /// The second session begins a transaction inserting key `1000 + n`, or
    /// ends its open one with COMMIT (`true`) or ROLLBACK.
    Other(i64, bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..12i64, 0..6i64).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..12i64, 0..6i64).prop_map(|(k, v)| Op::Update(k, v)),
        (0..12i64).prop_map(Op::Delete),
        (0..6i64).prop_map(Op::Append),
        (0..12i64, 0..6i64, 0..3u8).prop_map(|(k, v, end)| Op::Txn(k, v, end)),
        (0..100i64, prop::bool::ANY).prop_map(|(n, commit)| Op::Other(n, commit)),
    ]
}

fn insert(k: i64, v: i64) -> String {
    format!("INSERT INTO t VALUES ({k}, {v}, '{}-{k}')", WORDS[v as usize % 4])
}

struct Source {
    engine: Arc<Engine>,
    s: Session,
    other: Session,
    other_open: bool,
}

impl Source {
    fn new() -> Source {
        let engine = Engine::new_default();
        let mut s = engine.session().unwrap();
        for ddl in [
            "CREATE TABLE t (k bigint PRIMARY KEY, v bigint, s text)",
            "CREATE INDEX t_v ON t (v)",
            "CREATE INDEX t_s ON t USING gin (s)",
            "CREATE TABLE c (a bigint, b text) USING columnar",
        ] {
            s.execute(ddl).unwrap();
        }
        let other = engine.session().unwrap();
        Source { engine, s, other, other_open: false }
    }

    /// Run one op. A failing statement (a duplicate key) ends its own
    /// transaction, which the log records like any other abort.
    fn run(&mut self, op: &Op) {
        let s = &mut self.s;
        let _ = match *op {
            Op::Insert(k, v) => s.execute(&insert(k, v)),
            Op::Update(k, v) => s.execute(&format!(
                "UPDATE t SET v = {v}, s = '{}-{k}' WHERE k = {k}",
                WORDS[v as usize % 4]
            )),
            Op::Delete(k) => s.execute(&format!("DELETE FROM t WHERE k = {k}")),
            Op::Append(a) => s.execute(&format!("INSERT INTO c VALUES ({a}, 'c{a}'), ({a}, NULL)")),
            Op::Txn(k, v, end) => {
                s.execute("BEGIN").unwrap();
                let _ = s.execute(&format!("UPDATE t SET v = {v} WHERE k = {k}"));
                let _ = s.execute(&insert(k + 20, v));
                let _ = s.execute(&format!("INSERT INTO c VALUES ({v}, 'txn')"));
                let gid = format!("g{}", self.engine.wal.lsn());
                if end == 0 || s.execute(&format!("PREPARE TRANSACTION '{gid}'")).is_err() {
                    s.execute("ROLLBACK")
                } else {
                    let finish = if end == 1 { "COMMIT" } else { "ROLLBACK" };
                    s.execute(&format!("{finish} PREPARED '{gid}'"))
                }
            }
            Op::Other(_, commit) if self.other_open => {
                self.other_open = false;
                self.other.execute(if commit { "COMMIT" } else { "ROLLBACK" })
            }
            Op::Other(n, _) => {
                self.other.execute("BEGIN").unwrap();
                self.other_open = true;
                self.other.execute(&insert(1000 + n, n))
            }
        };
    }

    fn settle(&mut self) {
        if self.other_open {
            self.run(&Op::Other(0, true));
        }
    }
}

/// The visible rows of `t` by row id, the visible stripes of `c` by sequence
/// number, and each index of `t` (primary key on k, t_v on v, t_s on s)
/// answering every probe with the row ids whose visible row holds the probed
/// value: an index also keeps entries of dead versions.
type State = (BTreeMap<u64, Row>, Vec<(u64, Vec<Row>)>, Vec<Vec<u64>>);

fn state(e: &Engine) -> State {
    let snap = e.txns.snapshot(INVALID_XID);
    let t = e.table_meta("t").unwrap();
    let mut rows = BTreeMap::new();
    e.store(t.id).unwrap().heap().unwrap().scan_visible(&e.txns, &snap, |tuple| {
        let twice = rows.insert(tuple.row_id, tuple.data.clone()).is_some();
        assert!(!twice, "row id {} visible twice", tuple.row_id);
    });
    let c = e.store(e.table_meta("c").unwrap().id).unwrap();
    let mut stripes = Vec::new();
    c.columnar().unwrap().for_each_visible_stripe(&e.txns, &snap, |seq, stripe| {
        stripes.push((seq, stripe.to_rows()));
    });
    stripes.sort_by_key(|(seq, _)| *seq);
    let mut probes = Vec::new();
    for (col, iid) in t.indexes.iter().enumerate() {
        let store = e.index_store(*iid).unwrap();
        let answers: Vec<(Vec<u64>, Datum)> = match &*store {
            IndexStore::BTree(b) => (0..30)
                .chain(1000..1100)
                .map(|k| (b.get_eq(&[Datum::Int(k)]), Datum::Int(k)))
                .collect(),
            IndexStore::Gin(g) => WORDS
                .iter()
                .map(|w| (g.candidates_for_like(&format!("%{w}%")).unwrap(), Datum::text(*w)))
                .collect(),
        };
        for (ids, key) in answers {
            let holds = |d: &Datum| match &*store {
                IndexStore::BTree(_) => *d == key,
                IndexStore::Gin(_) => d.to_text().contains(&key.to_text()),
            };
            let mut ids: Vec<u64> =
                ids.into_iter().filter(|id| rows.get(id).is_some_and(|r| holds(&r[col]))).collect();
            ids.sort_unstable();
            ids.dedup();
            probes.push(ids);
        }
    }
    (rows, stripes, probes)
}

/// A replica's live-row count of `t`, which redo keeps exact: the source's is
/// an estimate that counts rolled-back inserts.
fn live(e: &Engine) -> usize {
    e.store(e.table_meta("t").unwrap().id).unwrap().live_estimate() as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `restore_from_wal` of the source equals the source.
    #[test]
    fn replay_equals_source(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut src = Source::new();
        for op in &ops {
            src.run(op);
        }
        src.settle();
        let restored = Engine::restore_from_wal(&src.engine.wal.all(), None).unwrap();
        let got = state(&restored);
        prop_assert_eq!(live(&restored), got.0.len());
        prop_assert_eq!(got, state(&src.engine));
    }

    /// A move's three steps, `table_schema`, `copy_table_from` and
    /// `catch_up_from`, give the source's tables wherever the catch-up slice
    /// starts and wherever, later, the copy is taken.
    #[test]
    fn copy_and_catch_up_equal_source(
        ops in prop::collection::vec(arb_op(), 0..40),
        cuts in (0..41usize, 0..41usize),
    ) {
        let from_cut = cuts.0.min(cuts.1).min(ops.len());
        let copy_cut = cuts.0.max(cuts.1).min(ops.len());
        let mut src = Source::new();
        let dst = Engine::new_default();
        let mut tables = Vec::new();
        for name in ["t", "c"] {
            let (create, indexes) = src.engine.table_schema(name, name, str::to_string).unwrap();
            dst.ddl_create_table(&create).unwrap();
            for index in &indexes {
                dst.ddl_create_index(index).unwrap();
            }
            let src_table = src.engine.table_meta(name).unwrap().id;
            tables.push((src_table, dst.table_meta(name).unwrap().id));
        }
        for op in &ops[..from_cut] {
            src.run(op);
        }
        // the slice must hold every change the copy can miss
        src.settle();
        let from_lsn = src.engine.wal.lsn();
        for op in &ops[from_cut..copy_cut] {
            src.run(op);
        }
        for (src_table, dst_table) in &tables {
            dst.copy_table_from(&src.engine, *src_table, *dst_table).unwrap();
        }
        for op in &ops[copy_cut..] {
            src.run(op);
        }
        src.settle();
        dst.catch_up_from(&src.engine, from_lsn, &tables).unwrap();
        let got = state(&dst);
        prop_assert_eq!(live(&dst), got.0.len());
        prop_assert_eq!(got, state(&src.engine));
    }
}
