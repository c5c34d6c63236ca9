//! Streaming changefeed: per-shard WAL decode into ordered committed-change
//! streams, plus durable per-consumer cursors.
//!
//! Each shard placement's pgmini WAL already carries everything logical
//! decoding needs (old images ride on `Update`/`Delete` records — the analog
//! of `REPLICA IDENTITY FULL`). This module turns a placement's log into the
//! suffix of committed changes a consumer has not seen yet, identified by a
//! **sequence ordinal**: the count of committed changes of that physical
//! table the consumer has already applied.
//!
//! Ordinals — not raw LSNs — are the durable cursor representation because
//! they survive `restore_from_wal`: a restored engine re-logs the committed
//! data records in their original order and drops aborted ones (which were
//! never counted), so "skip the first N committed changes" lands on the same
//! boundary before and after a crash/promote cycle. Raw LSNs are only an
//! in-memory fast-path hint (see [`crate::rollup::StreamHint`]) and are
//! revalidated against engine identity before use.

use crate::cluster::Cluster;
use crate::metadata::{NodeId, ShardId};
use pgmini::engine::Engine;
use pgmini::error::{PgError, PgResult};
use pgmini::types::Datum;
use pgmini::wal::{decode_table_changes, Change, Lsn};
use sqlparse::quote_literal;
use std::sync::Arc;

/// Durable per-(rollup, shard) cursor catalog. Lives on the coordinator
/// (created everywhere so a promoted standby can serve it); rows are updated
/// inside the same distributed transaction that applies the deltas they
/// account for, which is what makes delta application exactly-once.
pub const CHANGEFEED_CURSORS_TABLE: &str = "citrus_changefeed_cursors";

/// One consumer's durable position in one shard's change stream.
#[derive(Debug, Clone)]
pub struct Cursor {
    pub rollup: String,
    pub shard: ShardId,
    /// Node currently holding the placement this cursor follows. Updated by
    /// the shard-move handoff at the `switched` journal phase.
    pub node: NodeId,
    /// Committed changes of the physical table already consumed.
    pub seq: u64,
}

/// The catalog primary key for one cursor.
pub fn cursor_id(rollup: &str, shard: ShardId) -> String {
    format!("{rollup}:{}", shard.0)
}

/// New committed changes for one shard past a consumer's position.
#[derive(Debug)]
pub struct ShardChanges {
    pub changes: Vec<Change>,
    /// The consumer's ordinal after applying `changes`.
    pub new_seq: u64,
    /// Decode horizon: the LSN up to which the stream is settled. A later
    /// incremental read may start here (hint fast path).
    pub horizon: Lsn,
}

/// Decode one placement's new committed changes for the physical table
/// `physical`, starting at consumer ordinal `seq`.
///
/// `hint` is an optional `(lsn, seq)` fast path: when the caller has verified
/// the hint belongs to this engine incarnation and `hint.1 == seq`, decoding
/// starts at the hinted LSN instead of replaying the whole log. The horizon
/// property of `decode_table_changes` makes the suffix self-contained: fate
/// records always follow the data records they decide, and the previous
/// horizon stopped before the first undecided record of this table.
pub fn fetch_changes(
    engine: &Arc<Engine>,
    physical: &str,
    seq: u64,
    hint: Option<(Lsn, u64)>,
) -> PgResult<ShardChanges> {
    let table = engine.catalog.read().table_id(physical)?;
    let end = engine.wal.lsn();
    if let Some((lsn, hint_seq)) = hint {
        if hint_seq == seq && lsn <= end {
            let decoded = engine.wal.read(lsn, end, |recs| decode_table_changes(recs, lsn, table));
            let new_seq = seq + decoded.changes.len() as u64;
            return Ok(ShardChanges {
                changes: decoded.changes,
                new_seq,
                horizon: decoded.horizon,
            });
        }
    }
    // cold path: replay the full log and skip the first `seq` committed
    // changes (crash/promote invalidated the hint, or there never was one)
    let decoded = engine.wal.read(0, end, |recs| decode_table_changes(recs, 0, table));
    let total = decoded.changes.len() as u64;
    if total < seq {
        return Err(PgError::internal(format!(
            "changefeed cursor for {physical} is ahead of the log: seq {seq}, decoded {total}"
        )));
    }
    let changes = decoded.changes.into_iter().skip(seq as usize).collect();
    Ok(ShardChanges { changes, new_seq: total, horizon: decoded.horizon })
}

/// Count the committed changes of `physical` over an engine's whole log.
/// Used at shard-move handoff to compute the destination baseline: the copy
/// and catch-up phases log (and commit) every row they install on the
/// destination, so the count is exactly the prefix a cursor must skip there.
pub fn committed_count(engine: &Arc<Engine>, physical: &str) -> PgResult<(u64, Lsn)> {
    let table = engine.catalog.read().table_id(physical)?;
    let end = engine.wal.lsn();
    let decoded = engine.wal.read(0, end, |recs| decode_table_changes(recs, 0, table));
    Ok((decoded.changes.len() as u64, decoded.horizon))
}

/// Read all cursors for one rollup from the coordinator catalog.
pub fn load_cursors(cluster: &Arc<Cluster>, rollup: &str) -> PgResult<Vec<Cursor>> {
    let sql = format!(
        "SELECT shard, node, seq FROM {CHANGEFEED_CURSORS_TABLE} \
         WHERE rollup = {} ORDER BY shard",
        quote_literal(rollup)
    );
    let rows = coordinator_query(cluster, &sql)?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(Cursor {
            rollup: rollup.to_string(),
            shard: ShardId(datum_i64(&row, 0)? as u64),
            node: NodeId(datum_i64(&row, 1)? as u32),
            seq: datum_i64(&row, 2)? as u64,
        });
    }
    Ok(out)
}

pub fn insert_cursor_sql(rollup: &str, shard: ShardId, node: NodeId, seq: u64) -> String {
    format!(
        "INSERT INTO {CHANGEFEED_CURSORS_TABLE} (cursor_id, rollup, shard, node, seq) \
         VALUES ({}, {}, {}, {}, {})",
        quote_literal(&cursor_id(rollup, shard)),
        quote_literal(rollup),
        shard.0,
        node.0,
        seq
    )
}

pub fn update_cursor_sql(rollup: &str, shard: ShardId, node: NodeId, seq: u64) -> String {
    format!(
        "UPDATE {CHANGEFEED_CURSORS_TABLE} SET node = {}, seq = {} WHERE cursor_id = {}",
        node.0,
        seq,
        quote_literal(&cursor_id(rollup, shard))
    )
}

pub fn delete_cursors_sql(rollup: &str) -> String {
    format!("DELETE FROM {CHANGEFEED_CURSORS_TABLE} WHERE rollup = {}", quote_literal(rollup))
}

/// Run a read against the coordinator's local engine, bypassing the
/// distributed layer (the cursor catalog is coordinator-local state; going
/// through a ClientSession would add modeled cost to every staleness check).
pub fn coordinator_query(cluster: &Arc<Cluster>, sql: &str) -> PgResult<Vec<pgmini::types::Row>> {
    let stmt = sqlparse::parse(sql)?;
    let engine = cluster.node(NodeId(0))?.engine();
    let mut session = engine.session()?;
    Ok(session.execute_local(&stmt)?.into_rows())
}

fn datum_i64(row: &[Datum], idx: usize) -> PgResult<i64> {
    row.get(idx)
        .ok_or_else(|| PgError::internal("short cursor row"))?
        .as_i64()
}
