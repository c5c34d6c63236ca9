//! Durable shard-move journal (§3.4, §3.9).
//!
//! Before the rebalancer touches any physical state it writes a
//! `citrus_shard_moves` record to the **coordinator's** engine — the same
//! durability domain as the 2PC commit records in `pg_dist_transaction` — and
//! advances the record's `phase` with every durable protocol step:
//!
//! ```text
//! started → created → copied → caught_up → switched → done
//! ```
//!
//! A crash leaves the record behind, and [`crate::rebalancer::recover_moves`]
//! uses the phase to pick the safe direction: **abort** (drop the orphan
//! target shards, clear the record) strictly before `switched`, **roll
//! forward** (re-apply the placement switch, finish the source drop) at or
//! after it. Target-shard creations additionally log
//! `citrus_cleanup_records` rows naming each physical object on its node, so
//! orphans are identifiable even when metadata never changed — the analogue
//! of `pg_dist_cleanup` in production Citus.
//!
//! Records are written through plain autocommit SQL on the coordinator
//! engine, so they are WAL-logged and replayed by `promote_standby` /
//! `restore_cluster` like any other table — that is the entire durability
//! argument.

use crate::cluster::Cluster;
use crate::metadata::NodeId;
use pgmini::error::{PgError, PgResult};
use pgmini::session::QueryResult;
use sqlparse::quote_literal;
use std::sync::Arc;

/// The journal catalog: one row per shard-group move, kept (phase `done`)
/// after completion so `citus_rebalance_status` can report move history.
pub const SHARD_MOVES_TABLE: &str = "citrus_shard_moves";

/// Cleanup catalog: physical objects created on behalf of an in-flight move,
/// one row per (move, node, object). Dropped-or-cleared when the move
/// finishes or is recovered.
pub const CLEANUP_RECORDS_TABLE: &str = "citrus_cleanup_records";

/// Durable phases of the five-phase move protocol, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MovePhase {
    /// Journal record written; no physical state touched yet.
    Started,
    /// Target shard tables exist on the destination.
    Created,
    /// Initial snapshot copy landed on the destination.
    Copied,
    /// Write-locked WAL delta applied; source and target are identical.
    CaughtUp,
    /// Metadata switch journaled — the point of no return. From here the
    /// move can only roll forward.
    Switched,
    /// Source dropped; the move is complete.
    Done,
}

impl MovePhase {
    pub fn as_str(self) -> &'static str {
        match self {
            MovePhase::Started => "started",
            MovePhase::Created => "created",
            MovePhase::Copied => "copied",
            MovePhase::CaughtUp => "caught_up",
            MovePhase::Switched => "switched",
            MovePhase::Done => "done",
        }
    }

    pub fn parse(s: &str) -> Option<MovePhase> {
        Some(match s {
            "started" => MovePhase::Started,
            "created" => MovePhase::Created,
            "copied" => MovePhase::Copied,
            "caught_up" => MovePhase::CaughtUp,
            "switched" => MovePhase::Switched,
            "done" => MovePhase::Done,
            _ => return None,
        })
    }

    /// Is this move past the point of no return (recovery must roll forward
    /// rather than abort)?
    pub fn reached_switch(self) -> bool {
        self >= MovePhase::Switched
    }
}

/// One journal row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRecord {
    pub move_id: u64,
    pub anchor_table: String,
    pub bucket: usize,
    pub from: NodeId,
    pub to: NodeId,
    pub phase: MovePhase,
    pub rows_moved: u64,
    pub catchup_rows: u64,
}

/// Run one autocommit statement on the coordinator engine (hooks skipped:
/// the journal is plain local state, exactly like the commit records).
fn exec(cluster: &Arc<Cluster>, sql: &str) -> PgResult<QueryResult> {
    let engine = cluster.node(NodeId(0))?.engine();
    let mut s = engine.session()?;
    s.execute_local(&sqlparse::parse(sql)?)
}

/// Journal a new move in phase `started` and return its id. This is the
/// first durable step of every move: a crash after this point is visible to
/// the recovery pass.
pub fn begin(
    cluster: &Arc<Cluster>,
    anchor_table: &str,
    bucket: usize,
    from: NodeId,
    to: NodeId,
) -> PgResult<u64> {
    let move_id = all(cluster)?.iter().map(|r| r.move_id).max().unwrap_or(0) + 1;
    exec(
        cluster,
        &format!(
            "INSERT INTO {SHARD_MOVES_TABLE} \
             (move_id, anchor_table, bucket, from_node, to_node, phase, rows_moved, catchup_rows) \
             VALUES ({move_id}, {}, {bucket}, {}, {}, 'started', 0, 0)",
            quote_literal(anchor_table),
            from.0,
            to.0,
        ),
    )?;
    Ok(move_id)
}

/// Durably advance a move to `phase`.
pub fn advance(cluster: &Arc<Cluster>, move_id: u64, phase: MovePhase) -> PgResult<()> {
    exec(
        cluster,
        &format!(
            "UPDATE {SHARD_MOVES_TABLE} SET phase = '{}' WHERE move_id = {move_id}",
            phase.as_str()
        ),
    )?;
    Ok(())
}

/// Record per-move progress counters (surfaced by `citus_rebalance_status`).
pub fn set_progress(
    cluster: &Arc<Cluster>,
    move_id: u64,
    column: &str,
    value: u64,
) -> PgResult<()> {
    exec(
        cluster,
        &format!("UPDATE {SHARD_MOVES_TABLE} SET {column} = {value} WHERE move_id = {move_id}"),
    )?;
    Ok(())
}

/// Journal that `object` is about to be created on `node` on behalf of
/// `move_id` — written *before* the CREATE so a crash in between at worst
/// names an object that does not exist (cleanup drops are `IF EXISTS`).
pub fn log_cleanup(
    cluster: &Arc<Cluster>,
    move_id: u64,
    node: NodeId,
    object: &str,
) -> PgResult<()> {
    let r = exec(cluster, &format!("SELECT max(record_id) FROM {CLEANUP_RECORDS_TABLE}"))?;
    let next = r
        .rows()
        .first()
        .and_then(|row| row.first())
        .and_then(|d| d.as_i64().ok())
        .unwrap_or(0)
        + 1;
    exec(
        cluster,
        &format!(
            "INSERT INTO {CLEANUP_RECORDS_TABLE} (record_id, move_id, node_id, object_name) \
             VALUES ({next}, {move_id}, {}, {})",
            node.0,
            quote_literal(object),
        ),
    )?;
    Ok(())
}

/// Physical objects journaled for `move_id`: `(node, object_name)` pairs.
pub fn cleanup_records(cluster: &Arc<Cluster>, move_id: u64) -> PgResult<Vec<(NodeId, String)>> {
    let r = exec(
        cluster,
        &format!(
            "SELECT node_id, object_name FROM {CLEANUP_RECORDS_TABLE} WHERE move_id = {move_id}"
        ),
    )?;
    let mut out = Vec::new();
    for row in r.rows() {
        let node = row.first().and_then(|d| d.as_i64().ok()).unwrap_or(0) as u32;
        let object = row.get(1).and_then(|d| d.as_str().ok()).unwrap_or("").to_string();
        out.push((NodeId(node), object));
    }
    out.sort();
    Ok(out)
}

/// Drop the cleanup records of a move (its targets are now live, or gone).
pub fn clear_cleanup(cluster: &Arc<Cluster>, move_id: u64) -> PgResult<()> {
    exec(cluster, &format!("DELETE FROM {CLEANUP_RECORDS_TABLE} WHERE move_id = {move_id}"))?;
    Ok(())
}

/// Remove a move from the journal entirely (abort path: the move never
/// happened as far as the cluster is concerned).
pub fn clear(cluster: &Arc<Cluster>, move_id: u64) -> PgResult<()> {
    clear_cleanup(cluster, move_id)?;
    exec(cluster, &format!("DELETE FROM {SHARD_MOVES_TABLE} WHERE move_id = {move_id}"))?;
    Ok(())
}

/// Every journal row, sorted by move id.
pub fn all(cluster: &Arc<Cluster>) -> PgResult<Vec<MoveRecord>> {
    let r = exec(
        cluster,
        &format!(
            "SELECT move_id, anchor_table, bucket, from_node, to_node, phase, \
             rows_moved, catchup_rows FROM {SHARD_MOVES_TABLE}"
        ),
    )?;
    let mut out = Vec::new();
    for row in r.rows() {
        let col_i64 = |i: usize| row.get(i).and_then(|d| d.as_i64().ok()).unwrap_or(0);
        let phase = row
            .get(5)
            .and_then(|d| d.as_str().ok())
            .and_then(MovePhase::parse)
            .ok_or_else(|| PgError::internal("unparseable move journal phase"))?;
        out.push(MoveRecord {
            move_id: col_i64(0) as u64,
            anchor_table: row
                .get(1)
                .and_then(|d| d.as_str().ok())
                .unwrap_or("")
                .to_string(),
            bucket: col_i64(2) as usize,
            from: NodeId(col_i64(3) as u32),
            to: NodeId(col_i64(4) as u32),
            phase,
            rows_moved: col_i64(6) as u64,
            catchup_rows: col_i64(7) as u64,
        });
    }
    out.sort_by_key(|r| r.move_id);
    Ok(out)
}

/// Journal rows of moves that have not reached `done` — the recovery pass's
/// work list.
pub fn pending(cluster: &Arc<Cluster>) -> PgResult<Vec<MoveRecord>> {
    Ok(all(cluster)?.into_iter().filter(|r| r.phase != MovePhase::Done).collect())
}
