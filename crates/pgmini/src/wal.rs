//! Write-ahead log.
//!
//! Records every data change with its transaction, supports named *restore
//! points* (the primitive behind the paper's consistent cluster backups,
//! §3.9), byte-level encoding (what a standby would receive over the
//! replication stream), and replay into a fresh engine.

use crate::catalog::TableId;
use crate::error::{ErrorCode, PgError, PgResult};
use crate::stripe::Stripe;
use crate::types::{Datum, Json, Row};
use crate::txn::Xid;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use sqlparse::ast::TypeName;
use std::collections::HashMap;
use std::sync::Arc;

/// Log sequence number: index into the record stream.
pub type Lsn = u64;

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Begin { xid: Xid },
    Insert { xid: Xid, table: TableId, row_id: u64, row: Row },
    /// MVCC update: expire `row_id`'s old version, append the new one. The
    /// expired image rides along so logical consumers (change-data capture,
    /// rollup maintenance) can retract the old row without a heap lookup —
    /// the WAL analog of `REPLICA IDENTITY FULL`.
    Update { xid: Xid, table: TableId, row_id: u64, old_row: Row, new_row: Row },
    /// Delete, carrying the deleted image (see [`WalRecord::Update`]).
    Delete { xid: Xid, table: TableId, row_id: u64, row: Row },
    /// Append-only columnar stripe write. `seq` is the stripe's stable
    /// sequence number, which shard-move catch-up uses to deduplicate
    /// stripes present in both the copy snapshot and the WAL delta. The
    /// stripe is the image the table's store holds, not a copy of it.
    ColumnarAppend { xid: Xid, table: TableId, seq: u64, stripe: Arc<Stripe> },
    Commit { xid: Xid },
    Abort { xid: Xid },
    /// First phase of 2PC: the transaction's fate is now externally decided.
    Prepare { xid: Xid, gid: String },
    CommitPrepared { gid: String },
    AbortPrepared { gid: String },
    /// Named restore point for consistent cluster-wide backups.
    RestorePoint { name: String },
    /// Schema change, logged as SQL text so standbys can replay it.
    Ddl { sql: String },
}

impl WalRecord {
    /// The xid this record belongs to, when any.
    pub fn xid(&self) -> Option<Xid> {
        match self {
            WalRecord::Begin { xid }
            | WalRecord::Insert { xid, .. }
            | WalRecord::Update { xid, .. }
            | WalRecord::Delete { xid, .. }
            | WalRecord::ColumnarAppend { xid, .. }
            | WalRecord::Commit { xid }
            | WalRecord::Abort { xid }
            | WalRecord::Prepare { xid, .. } => Some(*xid),
            _ => None,
        }
    }

    /// The table a data record changes; `None` for every other record.
    pub fn table(&self) -> Option<TableId> {
        match self {
            WalRecord::Insert { table, .. }
            | WalRecord::Update { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::ColumnarAppend { table, .. } => Some(*table),
            _ => None,
        }
    }
}

/// In-memory write-ahead log for one engine.
#[derive(Debug, Default)]
pub struct Wal {
    records: Mutex<Vec<WalRecord>>,
}

impl Wal {
    /// Append a record, returning its LSN.
    pub fn append(&self, rec: WalRecord) -> Lsn {
        let mut r = self.records.lock();
        r.push(rec);
        r.len() as Lsn
    }

    /// Current end-of-log LSN.
    pub fn lsn(&self) -> Lsn {
        self.records.lock().len() as Lsn
    }

    /// Lend the records in `(from, to]` to `f` without copying them. `f` runs
    /// under the log's lock: it must not append to this log or run SQL.
    pub fn read<R>(&self, from: Lsn, to: Lsn, f: impl FnOnce(&[WalRecord]) -> R) -> R {
        let r = self.records.lock();
        let to = (to as usize).min(r.len());
        f(&r[(from as usize).min(to)..to])
    }

    /// An owned copy of the records in `(from, to]` — what a standby pulls to
    /// catch up.
    pub fn range(&self, from: Lsn, to: Lsn) -> Vec<WalRecord> {
        self.read(from, to, <[WalRecord]>::to_vec)
    }

    /// Full copy of the log (for backup archiving).
    pub fn all(&self) -> Vec<WalRecord> {
        self.records.lock().clone()
    }

    /// LSN of the restore point `name`, if present.
    pub fn restore_point(&self, name: &str) -> Option<Lsn> {
        restore_point_in(&self.records.lock(), name)
    }
}

/// LSN of the restore point `name` in `records`: replaying `records[..lsn]`
/// stops right after it.
pub fn restore_point_in(records: &[WalRecord], name: &str) -> Option<Lsn> {
    records
        .iter()
        .position(|rec| matches!(rec, WalRecord::RestorePoint { name: n } if n == name))
        .map(|i| (i + 1) as Lsn)
}

// ---------------- transaction fates ----------------

/// How a transaction ended, as far as a WAL slice tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate<'a> {
    Committed,
    Aborted,
    /// Prepared for two-phase commit, not yet committed or rolled back.
    Prepared(&'a str),
}

/// The fate of every transaction `records` decides. Every fate-deciding
/// event (`COMMIT`, `ABORT`, `PREPARE TRANSACTION`, `COMMIT/ROLLBACK
/// PREPARED`) is WAL-logged, and always *after* the data records it decides,
/// so a slice starting where no transaction was undecided is self-contained.
/// A transaction absent from the map is still in flight (or was decided
/// before the slice).
pub fn fates(records: &[WalRecord]) -> HashMap<Xid, Fate<'_>> {
    let mut fate = HashMap::new();
    let mut gid_to_xid: HashMap<&str, Xid> = HashMap::new();
    for rec in records {
        let (xid, decided) = match rec {
            WalRecord::Commit { xid } => (*xid, Fate::Committed),
            WalRecord::Abort { xid } => (*xid, Fate::Aborted),
            WalRecord::Prepare { xid, gid } => {
                gid_to_xid.insert(gid, *xid);
                (*xid, Fate::Prepared(gid))
            }
            WalRecord::CommitPrepared { gid } | WalRecord::AbortPrepared { gid } => {
                let Some(&xid) = gid_to_xid.get(gid.as_str()) else { continue };
                let committed = matches!(rec, WalRecord::CommitPrepared { .. });
                (xid, if committed { Fate::Committed } else { Fate::Aborted })
            }
            _ => continue,
        };
        fate.insert(xid, decided);
    }
    fate
}

// ---------------- logical decode (change-data capture) ----------------

/// One committed logical change of a single table, decoded from the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    Insert(Row),
    Update { old: Row, new: Row },
    Delete(Row),
}

/// A decoded per-table change-stream prefix: every *committed* change of one
/// table in WAL order, up to the decode horizon.
#[derive(Debug, Clone, Default)]
pub struct TableChanges {
    pub changes: Vec<Change>,
    /// Absolute LSN decoding stopped at: either the first record of the table
    /// belonging to a transaction whose fate is still undecided (in flight,
    /// or prepared and not yet resolved), or the end of the slice. Decoding
    /// can resume from here once the fate lands — everything before the
    /// horizon is final.
    pub horizon: Lsn,
}

/// Decode the committed change stream of `table` from `records` (a WAL slice
/// whose first record sits at absolute LSN `base_lsn`).
///
/// The horizon rule makes the stream *prefix-stable*: no later decode of the
/// same (or a longer) log can ever reorder or insert changes before a
/// previously returned horizon. A still-undecided transaction stalls the
/// stream at its first record for the table rather than being skipped,
/// because once it commits its changes must appear exactly there. Aborted
/// transactions' records are dropped — symmetric with
/// [`crate::engine::Engine::restore_from_wal`], which re-logs committed and
/// prepared records in original order and drops aborted ones, so a
/// consumer's change *ordinal* (count of committed changes consumed) stays
/// valid across crash-restore even though raw LSNs do not.
///
/// `ColumnarAppend` stripes decode to one [`Change::Insert`] per row, built
/// here from the stripe: columnar tables are append-only, so old images
/// never arise. A slice that
/// starts at a previous horizon is self-contained (see [`fates`]).
pub fn decode_table_changes(records: &[WalRecord], base_lsn: Lsn, table: TableId) -> TableChanges {
    let fate = fates(records);
    let mut out = TableChanges::default();
    for (i, rec) in records.iter().enumerate() {
        let (Some(xid), Some(rec_table)) = (rec.xid(), rec.table()) else { continue };
        if rec_table != table {
            continue;
        }
        match fate.get(&xid) {
            Some(Fate::Committed) => match rec {
                WalRecord::Insert { row, .. } => out.changes.push(Change::Insert(row.clone())),
                WalRecord::Update { old_row, new_row, .. } => out
                    .changes
                    .push(Change::Update { old: old_row.clone(), new: new_row.clone() }),
                WalRecord::Delete { row, .. } => out.changes.push(Change::Delete(row.clone())),
                WalRecord::ColumnarAppend { stripe, .. } => {
                    out.changes.extend(stripe.to_rows().into_iter().map(Change::Insert))
                }
                // no other record has a table
                _ => {}
            },
            Some(Fate::Aborted) => {}
            // in flight or prepared-undecided: the horizon
            None | Some(Fate::Prepared(_)) => {
                out.horizon = base_lsn + i as Lsn;
                return out;
            }
        }
    }
    out.horizon = base_lsn + records.len() as Lsn;
    out
}

// ---------------- byte encoding ----------------

fn put_datum(buf: &mut BytesMut, d: &Datum) {
    match d {
        Datum::Null => buf.put_u8(0),
        Datum::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Datum::Int(v) => {
            buf.put_u8(2);
            buf.put_i64(*v);
        }
        Datum::Float(v) => {
            buf.put_u8(3);
            buf.put_f64(*v);
        }
        Datum::Text(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        Datum::Json(j) => {
            buf.put_u8(5);
            put_str(buf, &j.to_string());
        }
        Datum::Timestamp(t) => {
            buf.put_u8(6);
            buf.put_i64(*t);
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> PgResult<String> {
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(corrupt());
    }
    let b = buf.copy_to_bytes(len);
    String::from_utf8(b.to_vec()).map_err(|_| corrupt())
}

fn get_datum(buf: &mut Bytes) -> PgResult<Datum> {
    if buf.remaining() < 1 {
        return Err(corrupt());
    }
    Ok(match buf.get_u8() {
        0 => Datum::Null,
        1 => Datum::Bool(buf.get_u8() != 0),
        2 => Datum::Int(buf.get_i64()),
        3 => Datum::Float(buf.get_f64()),
        4 => Datum::text(get_str(buf)?),
        5 => Datum::json(Json::parse(&get_str(buf)?)?),
        6 => Datum::Timestamp(buf.get_i64()),
        _ => return Err(corrupt()),
    })
}

fn put_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u32(row.len() as u32);
    for d in row {
        put_datum(buf, d);
    }
}

fn get_row(buf: &mut Bytes) -> PgResult<Row> {
    let n = buf.get_u32() as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_datum(buf)?);
    }
    Ok(row)
}

/// A stripe column's type on the wire: its index here, which is its
/// discriminant (`TypeName`'s declaration order; `type_tags_are_discriminants`).
const TYPE_TAGS: [TypeName; 6] = [
    TypeName::Int,
    TypeName::Float,
    TypeName::Text,
    TypeName::Bool,
    TypeName::Json,
    TypeName::Timestamp,
];

fn corrupt() -> PgError {
    PgError::new(ErrorCode::Internal, "corrupt WAL record")
}

/// Encode a record to bytes (the replication wire format).
pub fn encode_record(rec: &WalRecord) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match rec {
        WalRecord::Begin { xid } => {
            buf.put_u8(1);
            buf.put_u64(*xid);
        }
        WalRecord::Insert { xid, table, row_id, row } => {
            buf.put_u8(2);
            buf.put_u64(*xid);
            buf.put_u32(table.0);
            buf.put_u64(*row_id);
            put_row(&mut buf, row);
        }
        WalRecord::Update { xid, table, row_id, old_row, new_row } => {
            buf.put_u8(3);
            buf.put_u64(*xid);
            buf.put_u32(table.0);
            buf.put_u64(*row_id);
            put_row(&mut buf, old_row);
            put_row(&mut buf, new_row);
        }
        WalRecord::Delete { xid, table, row_id, row } => {
            buf.put_u8(4);
            buf.put_u64(*xid);
            buf.put_u32(table.0);
            buf.put_u64(*row_id);
            put_row(&mut buf, row);
        }
        WalRecord::Commit { xid } => {
            buf.put_u8(5);
            buf.put_u64(*xid);
        }
        WalRecord::Abort { xid } => {
            buf.put_u8(6);
            buf.put_u64(*xid);
        }
        WalRecord::Prepare { xid, gid } => {
            buf.put_u8(7);
            buf.put_u64(*xid);
            put_str(&mut buf, gid);
        }
        WalRecord::CommitPrepared { gid } => {
            buf.put_u8(8);
            put_str(&mut buf, gid);
        }
        WalRecord::AbortPrepared { gid } => {
            buf.put_u8(9);
            put_str(&mut buf, gid);
        }
        WalRecord::RestorePoint { name } => {
            buf.put_u8(10);
            put_str(&mut buf, name);
        }
        WalRecord::Ddl { sql } => {
            buf.put_u8(11);
            put_str(&mut buf, sql);
        }
        WalRecord::ColumnarAppend { xid, table, seq, stripe } => {
            // the column types, then the rows: decoding rebuilds the same
            // stripe from them
            buf.put_u8(12);
            buf.put_u64(*xid);
            buf.put_u32(table.0);
            buf.put_u64(*seq);
            let types = stripe.types();
            buf.put_u32(types.len() as u32);
            for ty in types {
                buf.put_u8(ty as u8);
            }
            buf.put_u32(stripe.rows() as u32);
            for r in 0..stripe.rows() {
                put_row(&mut buf, &stripe.row(r));
            }
        }
    }
    buf.freeze()
}

/// Decode a record from bytes.
pub fn decode_record(mut buf: Bytes) -> PgResult<WalRecord> {
    if buf.remaining() < 1 {
        return Err(corrupt());
    }
    Ok(match buf.get_u8() {
        1 => WalRecord::Begin { xid: buf.get_u64() },
        2 => {
            let xid = buf.get_u64();
            let table = TableId(buf.get_u32());
            let row_id = buf.get_u64();
            WalRecord::Insert { xid, table, row_id, row: get_row(&mut buf)? }
        }
        3 => {
            let xid = buf.get_u64();
            let table = TableId(buf.get_u32());
            let row_id = buf.get_u64();
            let old_row = get_row(&mut buf)?;
            WalRecord::Update { xid, table, row_id, old_row, new_row: get_row(&mut buf)? }
        }
        4 => {
            let xid = buf.get_u64();
            let table = TableId(buf.get_u32());
            let row_id = buf.get_u64();
            WalRecord::Delete { xid, table, row_id, row: get_row(&mut buf)? }
        }
        5 => WalRecord::Commit { xid: buf.get_u64() },
        6 => WalRecord::Abort { xid: buf.get_u64() },
        7 => {
            let xid = buf.get_u64();
            WalRecord::Prepare { xid, gid: get_str(&mut buf)? }
        }
        8 => WalRecord::CommitPrepared { gid: get_str(&mut buf)? },
        9 => WalRecord::AbortPrepared { gid: get_str(&mut buf)? },
        10 => WalRecord::RestorePoint { name: get_str(&mut buf)? },
        11 => WalRecord::Ddl { sql: get_str(&mut buf)? },
        12 => {
            let xid = buf.get_u64();
            let table = TableId(buf.get_u32());
            let seq = buf.get_u64();
            let types = (0..buf.get_u32())
                .map(|_| TYPE_TAGS.get(buf.get_u8() as usize).copied().ok_or_else(corrupt))
                .collect::<PgResult<Vec<_>>>()?;
            let n = buf.get_u32() as usize;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(get_row(&mut buf)?);
            }
            let stripe = Arc::new(Stripe::from_rows(rows, &types).map_err(|_| corrupt())?);
            WalRecord::ColumnarAppend { xid, table, seq, stripe }
        }
        _ => return Err(corrupt()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(rows: Vec<Row>, types: &[TypeName]) -> Arc<Stripe> {
        Arc::new(Stripe::from_rows(rows, types).unwrap())
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { xid: 7 },
            WalRecord::Insert {
                xid: 7,
                table: TableId(3),
                row_id: 99,
                row: vec![
                    Datum::Int(5),
                    Datum::Null,
                    Datum::from_text("héllo"),
                    Datum::Float(2.5),
                    Datum::Bool(true),
                    Datum::Timestamp(123_456),
                    Datum::json(Json::parse(r#"{"a": [1, 2]}"#).unwrap()),
                ],
            },
            WalRecord::Update {
                xid: 7,
                table: TableId(3),
                row_id: 99,
                old_row: vec![Datum::Int(5)],
                new_row: vec![Datum::Int(6)],
            },
            WalRecord::Delete { xid: 7, table: TableId(3), row_id: 99, row: vec![Datum::Int(6)] },
            WalRecord::Prepare { xid: 7, gid: "citrus_1_7".into() },
            WalRecord::CommitPrepared { gid: "citrus_1_7".into() },
            WalRecord::AbortPrepared { gid: "other".into() },
            WalRecord::Commit { xid: 8 },
            WalRecord::Abort { xid: 9 },
            WalRecord::RestorePoint { name: "backup-2020".into() },
            WalRecord::Ddl { sql: "CREATE TABLE t (a bigint)".into() },
            WalRecord::ColumnarAppend {
                xid: 7,
                table: TableId(4),
                seq: 2,
                stripe: stripe(
                    vec![vec![Datum::Int(1), Datum::from_text("x")], vec![Datum::Int(2), Datum::Null]],
                    &[TypeName::Int, TypeName::Text],
                ),
            },
        ]
    }

    #[test]
    fn type_tags_are_discriminants() {
        for (i, ty) in TYPE_TAGS.iter().enumerate() {
            assert_eq!(*ty as usize, i, "{ty:?}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in sample_records() {
            let bytes = encode_record(&rec);
            let back = decode_record(bytes).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn append_and_range() {
        let wal = Wal::default();
        for rec in sample_records() {
            wal.append(rec);
        }
        assert_eq!(wal.lsn(), 12);
        assert_eq!(wal.range(0, 3).len(), 3);
        assert_eq!(wal.range(8, 100).len(), 4);
        assert_eq!(wal.range(5, 3).len(), 0);
        // `read` lends the slice `range` copies
        let tail = wal.range(8, 100);
        assert!(wal.read(8, 100, |lent| lent == tail.as_slice()));
        assert_eq!(wal.read(5, 3, <[WalRecord]>::len), 0);
    }

    #[test]
    fn restore_point_lookup() {
        let wal = Wal::default();
        wal.append(WalRecord::Begin { xid: 1 });
        wal.append(WalRecord::RestorePoint { name: "rp1".into() });
        wal.append(WalRecord::Commit { xid: 1 });
        assert_eq!(wal.restore_point("rp1"), Some(2));
        assert_eq!(wal.restore_point("nope"), None);
        // replaying up to the restore point excludes the commit
        assert_eq!(wal.range(0, wal.restore_point("rp1").unwrap()).len(), 2);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(Bytes::from_static(&[])).is_err());
        assert!(decode_record(Bytes::from_static(&[200])).is_err());
    }

    fn ins(xid: Xid, table: u32, v: i64) -> WalRecord {
        WalRecord::Insert { xid, table: TableId(table), row_id: v as u64, row: vec![Datum::Int(v)] }
    }

    #[test]
    fn decode_emits_only_committed_changes_in_order() {
        let recs = vec![
            WalRecord::Begin { xid: 1 },
            ins(1, 3, 10),
            WalRecord::Begin { xid: 2 },
            ins(2, 3, 20), // aborted: dropped
            WalRecord::Update {
                xid: 1,
                table: TableId(3),
                row_id: 10,
                old_row: vec![Datum::Int(10)],
                new_row: vec![Datum::Int(11)],
            },
            ins(1, 4, 99), // other table: ignored
            WalRecord::Abort { xid: 2 },
            WalRecord::Commit { xid: 1 },
        ];
        let s = decode_table_changes(&recs, 0, TableId(3));
        assert_eq!(
            s.changes,
            vec![
                Change::Insert(vec![Datum::Int(10)]),
                Change::Update { old: vec![Datum::Int(10)], new: vec![Datum::Int(11)] },
            ]
        );
        assert_eq!(s.horizon, recs.len() as Lsn);
    }

    #[test]
    fn decode_horizon_stalls_on_undecided_txn() {
        // xid 1 is prepared but unresolved: its first record for the table is
        // the horizon, and a *later* committed change must not jump the queue
        let recs = vec![
            ins(2, 3, 1),
            WalRecord::Commit { xid: 2 },
            ins(1, 3, 2),
            WalRecord::Prepare { xid: 1, gid: "g1".into() },
            ins(3, 3, 3),
            WalRecord::Commit { xid: 3 },
        ];
        let s = decode_table_changes(&recs, 0, TableId(3));
        assert_eq!(s.changes, vec![Change::Insert(vec![Datum::Int(1)])]);
        assert_eq!(s.horizon, 2);
        // resuming from the horizon after the fate lands is self-contained:
        // the prepare + commit-prepared records sit after the data record
        let mut recs2 = recs[s.horizon as usize..].to_vec();
        recs2.push(WalRecord::CommitPrepared { gid: "g1".into() });
        let s2 = decode_table_changes(&recs2, s.horizon, TableId(3));
        assert_eq!(
            s2.changes,
            vec![Change::Insert(vec![Datum::Int(2)]), Change::Insert(vec![Datum::Int(3)])]
        );
        assert_eq!(s2.horizon, s.horizon + recs2.len() as Lsn);
    }

    #[test]
    fn decode_in_flight_txn_stalls_only_its_table() {
        let recs = vec![
            ins(1, 7, 1), // xid 1 never decided, but only touches table 7
            ins(2, 3, 2),
            WalRecord::Commit { xid: 2 },
        ];
        let s = decode_table_changes(&recs, 0, TableId(3));
        assert_eq!(s.changes, vec![Change::Insert(vec![Datum::Int(2)])]);
        assert_eq!(s.horizon, 3);
        let stalled = decode_table_changes(&recs, 0, TableId(7));
        assert!(stalled.changes.is_empty());
        assert_eq!(stalled.horizon, 0);
    }

    #[test]
    fn decode_columnar_append_fans_out_to_inserts() {
        let recs = vec![
            WalRecord::ColumnarAppend {
                xid: 5,
                table: TableId(4),
                seq: 0,
                stripe: stripe(vec![vec![Datum::Int(1)], vec![Datum::Int(2)]], &[TypeName::Int]),
            },
            WalRecord::Commit { xid: 5 },
        ];
        let s = decode_table_changes(&recs, 0, TableId(4));
        assert_eq!(
            s.changes,
            vec![Change::Insert(vec![Datum::Int(1)]), Change::Insert(vec![Datum::Int(2)])]
        );
    }
}
