//! Shard rebalancer (§3.4).
//!
//! Moves co-located shard groups between workers until the placement is
//! balanced — by shard count (default), by data size, or by a custom policy
//! (cost / capacity / constraint functions). A shard move mirrors the
//! logical-replication choreography: create, initial copy while writes
//! continue, then a brief write-locked catch-up applying the WAL delta
//! before the metadata switch (the "minimal write downtime" property).
//!
//! # Crash safety
//!
//! Every move is journaled in [`crate::movejournal`] before it touches any
//! physical state, and the journal phase advances with each durable step of
//! the five-phase protocol. A move that dies mid-flight (coordinator error,
//! node crash) leaves its record behind; [`recover_moves`] — run by the
//! maintenance daemon next to the deadlock and 2PC passes, and by
//! [`crate::ha::promote_standby`] — restores the placement invariant:
//!
//! * journaled **before `switched`** → abort: drop the orphan target shards
//!   named by the cleanup records, clear the record;
//! * journaled **at/after `switched`** → roll forward: re-apply the
//!   placement switch (idempotent), finish the source drop, mark `done`.
//!
//! The `switched` journal write lands *before* the in-memory metadata flip,
//! so recovery never aborts a move whose placements already point at the
//! target. Every phase boundary is also a fault-injection point
//! ([`FaultOp::Move`], tags `move_create` … `move_drop`, scoped to the
//! anchor shard) so the whole state machine is drillable.

use crate::cluster::Cluster;
use crate::metadata::{NodeId, ShardId};
use crate::movejournal::{self, MovePhase, MoveRecord};
use crate::trace::Span;
use netsim::fault::{FaultOp, FaultPhase};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::lock::{LockKey, LockMode};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Fault-injection tags of the five move phases, in protocol order. Create
/// and copy are charged against the *target* node, catch-up/switch/drop
/// against the *source*.
pub const MOVE_PHASE_TAGS: [&str; 5] =
    ["move_create", "move_copy", "move_catchup", "move_switch", "move_drop"];

/// A custom policy's cost of a shard of the given size.
pub type ShardCost = Box<dyn Fn(&crate::metadata::Shard, u64) -> f64 + Send + Sync>;
/// A custom policy's test of whether a shard may be placed on a node.
pub type PlacementConstraint = Box<dyn Fn(&crate::metadata::Shard, NodeId) -> bool + Send + Sync>;

/// Balancing policy.
pub enum RebalanceStrategy {
    /// Equal shard counts per worker (the default).
    ByShardCount,
    /// Equal total live rows per worker.
    ByDiskSize,
    /// Custom policy: shard cost, node capacity, and a placement constraint.
    Custom {
        cost: ShardCost,
        capacity: Box<dyn Fn(NodeId) -> f64 + Send + Sync>,
        constraint: PlacementConstraint,
    },
}

/// Outcome of one shard-group move.
#[derive(Debug, Clone)]
pub struct MoveReport {
    pub bucket: usize,
    pub from: NodeId,
    pub to: NodeId,
    pub shards_moved: usize,
    pub rows_moved: u64,
    /// Rows applied during the write-locked catch-up window.
    pub catchup_rows: u64,
}

/// What one [`recover_moves`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveRecoveryStats {
    /// Moves aborted (journaled before `switched`; orphan targets dropped).
    pub aborted: u64,
    /// Moves rolled forward (at/after `switched`; source drop finished).
    pub rolled_forward: u64,
    /// Journal records skipped because a live session is still driving them.
    pub skipped_in_flight: u64,
    /// Records deferred because a node they need is down (retried by the
    /// next pass, exactly like 2PC recovery).
    pub unreachable_nodes: u64,
}

impl MoveRecoveryStats {
    fn is_empty(&self) -> bool {
        *self == MoveRecoveryStats::default()
    }
}

/// Live row count of a shard on its placement.
fn shard_rows(cluster: &Arc<Cluster>, shard: &crate::metadata::Shard) -> u64 {
    let Some(&node) = shard.placements.first() else { return 0 };
    let Ok(n) = cluster.node(node) else { return 0 };
    let engine = n.engine();
    engine
        .table_meta(&shard.physical_name())
        .and_then(|m| engine.store(m.id))
        .map(|s| s.live_estimate())
        .unwrap_or(0)
}

/// Rebalance all colocation groups. Returns one [`MoveReport`] per group
/// move, in move order.
pub fn rebalance(
    cluster: &Arc<Cluster>,
    strategy: &RebalanceStrategy,
) -> PgResult<Vec<MoveReport>> {
    let workers = cluster.worker_ids();
    let mut reports = Vec::new();
    if workers.len() < 2 {
        return Ok(reports);
    }
    // iterate until no improving move exists (bounded for safety)
    for _ in 0..1024 {
        let Some((bucket, table, from, to)) = pick_move(cluster, strategy, &workers)? else {
            break;
        };
        reports.push(move_shard_group(cluster, &table, bucket, from, to)?);
    }
    Ok(reports)
}

/// Pick the next improving move: shard group from the most-loaded node to
/// the least-loaded node.
fn pick_move(
    cluster: &Arc<Cluster>,
    strategy: &RebalanceStrategy,
    workers: &[NodeId],
) -> PgResult<Option<(usize, String, NodeId, NodeId)>> {
    let meta = cluster.metadata.read_recursive();
    // load per node and shard-group inventory: (table, bucket) → node, cost
    let mut load: HashMap<NodeId, f64> = workers.iter().map(|w| (*w, 0.0)).collect();
    let mut groups: Vec<(String, usize, NodeId, f64)> = Vec::new();
    // take one anchor table per colocation group; moving it moves the group
    let mut seen_groups: std::collections::HashSet<u32> = Default::default();
    let mut anchors: Vec<crate::metadata::DistTable> = Vec::new();
    for t in meta.tables() {
        if t.is_reference() {
            continue;
        }
        if seen_groups.insert(t.colocation_id) {
            anchors.push(t.clone());
        }
    }
    for anchor in &anchors {
        // group cost = sum over co-located tables of this bucket's cost
        let group_tables = meta.colocated_tables(anchor.colocation_id);
        let tables: Vec<String> = group_tables.iter().map(|t| t.name.clone()).collect();
        for (bucket, sid) in anchor.shards.iter().enumerate() {
            let shard = meta.shard(*sid)?;
            let Some(&node) = shard.placements.first() else { continue };
            let mut cost = 0.0;
            for tname in &tables {
                let t = meta.require_table(tname)?;
                let s = meta.shard(t.shards[bucket])?;
                cost += match strategy {
                    RebalanceStrategy::ByShardCount => 1.0,
                    RebalanceStrategy::ByDiskSize => shard_rows(cluster, s) as f64,
                    RebalanceStrategy::Custom { cost, .. } => {
                        cost(s, shard_rows(cluster, s))
                    }
                };
            }
            *load.entry(node).or_insert(0.0) += cost;
            groups.push((anchor.name.clone(), bucket, node, cost));
        }
    }
    let capacity = |n: NodeId| -> f64 {
        match strategy {
            RebalanceStrategy::Custom { capacity, .. } => capacity(n),
            _ => 1.0,
        }
    };
    // normalised load = load / capacity
    let norm = |n: NodeId, load: &HashMap<NodeId, f64>| load[&n] / capacity(n).max(1e-9);
    let by_load = |a: &&NodeId, b: &&NodeId| norm(**a, &load).total_cmp(&norm(**b, &load));
    let (Some(&busiest), Some(&idlest)) =
        (workers.iter().max_by(by_load), workers.iter().min_by(by_load))
    else {
        return Ok(None);
    };
    if groups.is_empty() || busiest == idlest {
        return Ok(None);
    }
    // smallest group on the busiest node that actually improves balance
    let mut candidates: Vec<&(String, usize, NodeId, f64)> =
        groups.iter().filter(|(_, _, n, _)| *n == busiest).collect();
    candidates.sort_by(|a, b| a.3.total_cmp(&b.3));
    for (table, bucket, _, cost) in candidates {
        // placement constraint for custom policies
        if let RebalanceStrategy::Custom { constraint, .. } = strategy {
            let t = meta.require_table(table)?;
            let s = meta.shard(t.shards[*bucket])?;
            if !constraint(s, idlest) {
                continue;
            }
        }
        let gap = norm(busiest, &load) - norm(idlest, &load);
        let moved_gap = (load[&busiest] - cost) / capacity(busiest).max(1e-9)
            - (load[&idlest] + cost) / capacity(idlest).max(1e-9);
        if moved_gap.abs() < gap {
            return Ok(Some((*bucket, table.clone(), busiest, idlest)));
        }
    }
    Ok(None)
}

/// Move one co-located shard group from `from` to `to`.
///
/// The move is journaled before any physical work; on error the journal
/// record is deliberately left behind for [`recover_moves`] to abort or roll
/// forward, and the source's write locks are always released so the cluster
/// stays queryable.
pub fn move_shard_group(
    cluster: &Arc<Cluster>,
    anchor_table: &str,
    bucket: usize,
    from: NodeId,
    to: NodeId,
) -> PgResult<MoveReport> {
    let (src, dst) = (cluster.node(from)?, cluster.node(to)?);
    for (node, role) in [(&src, "source"), (&dst, "target")] {
        if !node.is_active() {
            let message = format!("{role} node {} is down", node.name);
            return Err(PgError::new(ErrorCode::ConnectionFailure, message));
        }
    }
    let (shard_ids, anchor_shard) = {
        let meta = cluster.metadata.read_recursive();
        let anchor = meta.require_table(anchor_table)?;
        if bucket >= anchor.shards.len() {
            return Err(PgError::new(
                ErrorCode::InvalidParameter,
                format!("table {anchor_table} has no shard bucket {bucket}"),
            ));
        }
        let group = meta.colocated_tables(anchor.colocation_id);
        let sids: Vec<ShardId> = group.iter().map(|t| t.shards[bucket]).collect();
        (sids, anchor.shards[bucket])
    };
    // fault rules scope move ops by the anchor shard, mirroring the
    // executor's task scopes
    let scope = format!("s{}", anchor_shard.0);

    cluster.metrics.moves_started.fetch_add(1, Relaxed);
    let move_id = movejournal::begin(cluster, anchor_table, bucket, from, to)?;
    // shield the record from a concurrent recovery pass while we drive it
    cluster.note_move_active(move_id);
    let mut span = Span::new("rebalance.move")
        .with("table", anchor_table)
        .with("bucket", bucket)
        .with("from", &src.name)
        .with("to", &dst.name)
        .with("shards", shard_ids.len());
    let result = run_move(cluster, &shard_ids, bucket, from, to, move_id, &scope, &mut span);
    cluster.note_move_finished(move_id);
    match &result {
        Ok(report) => {
            cluster.metrics.moves_completed.fetch_add(1, Relaxed);
            span.set("rows_moved", report.rows_moved);
            span.set("catchup_rows", report.catchup_rows);
            span.set("phase", "done");
        }
        Err(e) => {
            // the journal record stays behind on purpose: recover_moves owns
            // the journal from here
            span.set("error", format!("{:?}", e.code));
        }
    }
    cluster.tracer.record_daemon(span);
    result
}

/// The five-phase protocol body. Each `?` exit leaves the journal record in
/// its last durable phase for the recovery pass.
#[allow(clippy::too_many_arguments)]
fn run_move(
    cluster: &Arc<Cluster>,
    shard_ids: &[ShardId],
    bucket: usize,
    from: NodeId,
    to: NodeId,
    move_id: u64,
    scope: &str,
    span: &mut Span,
) -> PgResult<MoveReport> {
    let src_engine = cluster.node(from)?.engine();
    let dst_engine = cluster.node(to)?.engine();

    // phase 1: create target tables. Every CREATE is preceded by a durable
    // cleanup record, so a crash anywhere in this phase leaves only
    // identifiable orphans.
    let lsn_start = src_engine.wal.lsn();
    cluster.fault_point(to, FaultOp::Move, "move_create", scope, FaultPhase::Before)?;
    let physical_names: Vec<String> = {
        let meta = cluster.metadata.read_recursive();
        shard_ids.iter().map(|sid| Ok(meta.shard(*sid)?.physical_name())).collect::<PgResult<_>>()?
    };
    // (source table, destination table) per shard
    let mut tables = Vec::new();
    for physical in &physical_names {
        // the source shard's schema and every index, under their own names
        let (create, indexes) = src_engine.table_schema(physical, physical, str::to_string)?;
        movejournal::log_cleanup(cluster, move_id, to, physical)?;
        dst_engine.ddl_create_table(&create)?;
        for index in &indexes {
            dst_engine.ddl_create_index(index)?;
        }
        tables.push((src_engine.table_meta(physical)?.id, dst_engine.table_meta(physical)?.id));
    }
    cluster.fault_point(to, FaultOp::Move, "move_create", scope, FaultPhase::After)?;
    movejournal::advance(cluster, move_id, MovePhase::Created)?;
    span.child(Span::new("phase.create").with("tables", tables.len()));

    // phase 2: initial copy (logical replication snapshot) while writes
    // continue on the source; copied rows keep their source row ids
    cluster.fault_point(to, FaultOp::Move, "move_copy", scope, FaultPhase::Before)?;
    let mut rows_moved = 0u64;
    for (src_table, dst_table) in &tables {
        rows_moved += dst_engine.copy_table_from(&src_engine, *src_table, *dst_table)?;
    }
    cluster.fault_point(to, FaultOp::Move, "move_copy", scope, FaultPhase::After)?;
    movejournal::set_progress(cluster, move_id, "rows_moved", rows_moved)?;
    movejournal::advance(cluster, move_id, MovePhase::Copied)?;
    span.child(Span::new("phase.copy").with("rows", rows_moved));

    // phase 3+4: write-locked catch-up, then the metadata switch. Locks are
    // released on *every* exit path so an injected fault never wedges the
    // source shards.
    //
    // The exclusive acquires below would stall forever behind an idle-in-
    // transaction session pinned to the source (the holder is not waiting,
    // so no deadlock cycle ever forms): pre-fence such holders — bounded
    // wait, then force-abort with a retryable 40001 — before taking the
    // locks. The lock transaction itself is registered with a distributed
    // id (and a cancel flag) so the wait graph and per-worker lock reports
    // see the move as a distributed waiter, not an anonymous local one.
    let move_dist = pgmini::lock::DistTxnId {
        origin_node: 0,
        number: move_id,
        timestamp: move_id,
    };
    crate::deadlock::fence_local_blockers(cluster, from, &physical_names, Some(move_dist))?;
    let lock_xid = src_engine.txns.begin();
    src_engine.locks.register_txn(
        lock_xid,
        std::sync::Arc::new(std::sync::atomic::AtomicU8::new(0)),
        Some(move_dist),
    );
    let locked = (|| -> PgResult<u64> {
        for (src_table, _) in &tables {
            src_engine.locks.acquire(lock_xid, LockKey::Table(*src_table), LockMode::Exclusive)?;
        }
        cluster.fault_point(from, FaultOp::Move, "move_catchup", scope, FaultPhase::Before)?;
        let catchup_rows = dst_engine.catch_up_from(&src_engine, lsn_start, &tables)?;
        cluster.fault_point(from, FaultOp::Move, "move_catchup", scope, FaultPhase::After)?;
        movejournal::set_progress(cluster, move_id, "catchup_rows", catchup_rows)?;
        movejournal::advance(cluster, move_id, MovePhase::CaughtUp)?;

        // phase 4: journal `switched` BEFORE flipping the in-memory
        // placements — recovery must never see switched metadata with a
        // pre-switch journal record, and the flip itself is re-applied
        // idempotently on roll-forward
        cluster.fault_point(from, FaultOp::Move, "move_switch", scope, FaultPhase::Before)?;
        movejournal::advance(cluster, move_id, MovePhase::Switched)?;
        // changefeed handoff: drain the settled source streams (the locks
        // guarantee the per-table horizon reaches end-of-log) and point the
        // cursors at the destination before placements flip
        crate::rollup::handoff_cursors(cluster, shard_ids, to)?;
        switch_placements(cluster, shard_ids, to)?;
        cluster.fault_point(from, FaultOp::Move, "move_switch", scope, FaultPhase::After)?;
        Ok(catchup_rows)
    })();
    // release the write locks (end of downtime window)
    src_engine.locks.release_all(lock_xid);
    src_engine.txns.commit(lock_xid);
    let catchup_rows = locked?;
    span.child(Span::new("phase.catchup").with("rows", catchup_rows));

    // phase 5: drop the source copies, retire the cleanup records, done
    cluster.fault_point(from, FaultOp::Move, "move_drop", scope, FaultPhase::Before)?;
    for physical in &physical_names {
        let _ = src_engine.ddl_drop_table(physical, true);
    }
    cluster.fault_point(from, FaultOp::Move, "move_drop", scope, FaultPhase::After)?;
    movejournal::clear_cleanup(cluster, move_id)?;
    movejournal::advance(cluster, move_id, MovePhase::Done)?;
    span.child(Span::new("phase.drop").with("tables", tables.len()));
    Ok(MoveReport {
        bucket,
        from,
        to,
        shards_moved: shard_ids.len(),
        rows_moved,
        catchup_rows,
    })
}

/// Point every shard of the group at `to`. Idempotent — roll-forward
/// recovery re-applies it.
fn switch_placements(cluster: &Arc<Cluster>, shard_ids: &[ShardId], to: NodeId) -> PgResult<()> {
    let mut meta = cluster.metadata.write();
    for sid in shard_ids {
        let shard = meta.shard_mut(*sid)?;
        shard.placements = vec![to];
    }
    Ok(())
}

/// Move-recovery pass: settle every journaled move whose driving session is
/// gone. Runs from the maintenance daemon (next to the deadlock and 2PC
/// recovery passes), from `promote_standby`, and after a cluster restore.
///
/// Records needing a node that is currently down are left for the next pass,
/// exactly like unreachable prepared transactions in 2PC recovery.
pub fn recover_moves(cluster: &Arc<Cluster>) -> PgResult<MoveRecoveryStats> {
    let mut stats = MoveRecoveryStats::default();
    let pending = movejournal::pending(cluster)?;
    if pending.is_empty() {
        return Ok(stats);
    }
    let active = cluster.active_move_ids();
    let mut span = Span::new("rebalance.recover");
    for rec in pending {
        if active.contains(&rec.move_id) {
            stats.skipped_in_flight += 1;
            continue;
        }
        if rec.phase.reached_switch() {
            roll_forward(cluster, &rec, &mut stats, &mut span)?;
        } else {
            abort_move(cluster, &rec, &mut stats, &mut span)?;
        }
    }
    if !stats.is_empty() {
        span.set("aborted", stats.aborted);
        span.set("rolled_forward", stats.rolled_forward);
        span.set("unreachable", stats.unreachable_nodes);
        cluster.tracer.record_daemon(span);
    }
    Ok(stats)
}

/// Undo a move that died before the metadata switch: the source placements
/// are still authoritative, so the journaled target objects are orphans.
fn abort_move(
    cluster: &Arc<Cluster>,
    rec: &MoveRecord,
    stats: &mut MoveRecoveryStats,
    span: &mut Span,
) -> PgResult<()> {
    let cleanups = movejournal::cleanup_records(cluster, rec.move_id)?;
    // all drops or none: a down node defers the whole record to a later pass
    for (node_id, _) in &cleanups {
        if !cluster.node(*node_id)?.is_active() {
            stats.unreachable_nodes += 1;
            return Ok(());
        }
    }
    for (node_id, object) in &cleanups {
        cluster.node(*node_id)?.engine().ddl_drop_table(object, true)?;
    }
    movejournal::clear(cluster, rec.move_id)?;
    cluster.metrics.moves_aborted.fetch_add(1, Relaxed);
    stats.aborted += 1;
    span.child(
        Span::new("move.abort")
            .with("table", &rec.anchor_table)
            .with("bucket", rec.bucket)
            .with("phase", rec.phase.as_str())
            .with("orphans", cleanups.len()),
    );
    Ok(())
}

/// Finish a move that died at/after the metadata switch: the target copies
/// are complete, so re-apply the placement flip and drop the source copies.
fn roll_forward(
    cluster: &Arc<Cluster>,
    rec: &MoveRecord,
    stats: &mut MoveRecoveryStats,
    span: &mut Span,
) -> PgResult<()> {
    let src = cluster.node(rec.from)?;
    if !src.is_active() {
        stats.unreachable_nodes += 1;
        return Ok(());
    }
    let shard_ids: Vec<ShardId> = {
        let meta = cluster.metadata.read_recursive();
        match meta.table(&rec.anchor_table) {
            Some(anchor) if rec.bucket < anchor.shards.len() => meta
                .colocated_tables(anchor.colocation_id)
                .iter()
                .map(|t| t.shards[rec.bucket])
                .collect(),
            // the whole table is gone (dropped since): nothing to finish
            _ => {
                movejournal::clear(cluster, rec.move_id)?;
                return Ok(());
            }
        }
    };
    // redo the changefeed handoff first — the pre-crash attempt may not have
    // committed; a cursor already flipped to the destination is skipped
    crate::rollup::handoff_cursors(cluster, &shard_ids, rec.to)?;
    switch_placements(cluster, &shard_ids, rec.to)?;
    let physicals: Vec<String> = {
        let meta = cluster.metadata.read_recursive();
        shard_ids.iter().filter_map(|sid| meta.shard(*sid).ok().map(|s| s.physical_name())).collect()
    };
    for physical in &physicals {
        src.engine().ddl_drop_table(physical, true)?;
    }
    movejournal::clear_cleanup(cluster, rec.move_id)?;
    movejournal::advance(cluster, rec.move_id, MovePhase::Done)?;
    cluster.metrics.moves_rolled_forward.fetch_add(1, Relaxed);
    stats.rolled_forward += 1;
    span.child(
        Span::new("move.roll_forward")
            .with("table", &rec.anchor_table)
            .with("bucket", rec.bucket)
            .with("phase", rec.phase.as_str())
            .with("shards", shard_ids.len()),
    );
    Ok(())
}

/// Journal records of moves not yet `done` (test/diagnostic helper).
pub fn pending_moves(cluster: &Arc<Cluster>) -> PgResult<Vec<MoveRecord>> {
    movejournal::pending(cluster)
}

/// Shard counts per worker (test/diagnostic helper).
pub fn placement_counts(cluster: &Arc<Cluster>) -> HashMap<NodeId, usize> {
    let meta = cluster.metadata.read_recursive();
    meta.placement_counts(&cluster.worker_ids())
}

/// Drop-in helper used by `Statement` tests: move the group containing the
/// given distribution value.
pub fn isolate_tenant(
    cluster: &Arc<Cluster>,
    table: &str,
    value: &pgmini::types::Datum,
    to: NodeId,
) -> PgResult<MoveReport> {
    let (bucket, from) = {
        let meta = cluster.metadata.read_recursive();
        let bucket = meta.shard_index_for_value(table, value)?;
        let dt = meta.require_table(table)?;
        let shard = meta.shard(dt.shards[bucket])?;
        (bucket, *shard.placements.first().ok_or_else(|| PgError::internal("no placement"))?)
    };
    move_shard_group(cluster, table, bucket, from, to)
}
