//! 2PC transaction recovery (§3.7.2).
//!
//! The maintenance daemon periodically compares the prepared transactions on
//! each worker against the coordinator's commit records: a prepared `gid`
//! with a visible commit record must COMMIT PREPARED (the coordinator
//! committed); one without, whose originating transaction has ended, must
//! ROLLBACK PREPARED. In-flight transactions are left alone.
//!
//! Recovery is also the only deleter of commit records: the commit path
//! writes one per transaction, and a pass sweeps those no participant needs.
//!
//! The sibling pass for crashed *shard moves* — same daemon, same
//! leave-in-flight-work-alone discipline, driven by the durable move journal
//! instead of commit records — lives in [`crate::rebalancer::recover_moves`].

use crate::cluster::Cluster;
use crate::extension::{parse_gid, COMMIT_RECORDS_TABLE};
use crate::metadata::NodeId;
use pgmini::error::PgResult;
use sqlparse::ast::Statement;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Outcome of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    pub committed: u64,
    pub rolled_back: u64,
    pub skipped_in_flight: u64,
    /// Nodes that were down during the pass; their prepared transactions (if
    /// any) wait for a later pass, after restore or promotion. A pass with an
    /// unreachable node sweeps no commit records.
    pub unreachable_nodes: u64,
    /// Commit records deleted: their transactions had ended and left no
    /// participant prepared anywhere.
    pub swept: u64,
}

/// Does a commit record for `gid`'s transaction exist on the origin
/// coordinator? (Public: the sim's read-skew invariant asks the same
/// question to decide whether a prepared transaction is already
/// decided-committed.)
pub fn commit_record_exists(cluster: &Arc<Cluster>, origin: NodeId, gid: &str) -> PgResult<bool> {
    let Some((_, number)) = parse_gid(gid) else { return Ok(false) };
    Ok(commit_records(cluster, origin)?.contains(&number))
}

/// The transaction numbers with a commit record on `node`.
pub fn commit_records(cluster: &Arc<Cluster>, node: NodeId) -> PgResult<BTreeSet<u64>> {
    let engine = cluster.node(node)?.engine();
    let stmt = sqlparse::parse(&format!("SELECT number FROM {COMMIT_RECORDS_TABLE}"))?;
    let r = engine.session()?.execute_local(&stmt)?;
    r.rows().iter().map(|row| Ok(row[0].as_i64()? as u64)).collect()
}

/// One recovery pass over the whole cluster. When tracing is enabled, a pass
/// that found any prepared transaction (or unreachable node) records a
/// `recovery.pass` span with one child per COMMIT/ROLLBACK PREPARED action.
pub fn recover_once(cluster: &Arc<Cluster>) -> PgResult<RecoveryStats> {
    let mut stats = RecoveryStats::default();
    let mut span = crate::trace::Span::new("recovery.pass");
    for node in cluster.nodes() {
        if !node.is_active() {
            stats.unreachable_nodes += 1;
            continue;
        }
        let engine = node.engine();
        for gid in engine.txns.prepared_gids() {
            let Some((origin, number)) = parse_gid(&gid) else { continue };
            let origin = NodeId(origin);
            // in-flight transactions are still being driven by their
            // coordinator; leave them alone
            let in_flight = cluster
                .extension(origin)
                .map(|e| e.active_txn_numbers().contains(&number))
                .unwrap_or(false);
            if in_flight {
                stats.skipped_in_flight += 1;
                span.child(
                    crate::trace::Span::new("recovery.skip_in_flight")
                        .with("node", &node.name)
                        .with("gid", &gid),
                );
                continue;
            }
            let committed = commit_record_exists(cluster, origin, &gid)?;
            let (stmt, label, count, metric) = if committed {
                let stmt = Statement::CommitPrepared(gid.clone());
                (stmt, "recovery.commit", &mut stats.committed, &cluster.metrics.recovery_commits)
            } else {
                let stmt = Statement::RollbackPrepared(gid.clone());
                let metric = &cluster.metrics.recovery_rollbacks;
                (stmt, "recovery.rollback", &mut stats.rolled_back, metric)
            };
            if engine.session()?.execute_stmt(&stmt).is_err() {
                continue;
            }
            *count += 1;
            metric.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            span.child(crate::trace::Span::new(label).with("node", &node.name).with("gid", &gid));
        }
    }
    if stats.unreachable_nodes == 0 {
        stats.swept = sweep_commit_records(cluster)?;
    }
    if stats != RecoveryStats::default() {
        span.set("committed", stats.committed);
        span.set("rolled_back", stats.rolled_back);
        span.set("skipped_in_flight", stats.skipped_in_flight);
        span.set("unreachable_nodes", stats.unreachable_nodes);
        span.set("swept", stats.swept);
        cluster.tracer.record_daemon(span);
    }
    Ok(stats)
}

/// Delete the commit records no participant can still need; returns how
/// many went. Reading the records R, then the in-flight numbers F, then
/// every node's prepared gids P makes deleting R − F − P safe: a record in R
/// was committed before R was read, and a transaction out of F by then had
/// finished its `COMMIT PREPARED`s before P was listed. A down node hides
/// its prepared gids, so then nothing is deleted.
fn sweep_commit_records(cluster: &Arc<Cluster>) -> PgResult<u64> {
    let nodes = cluster.nodes();
    let mut doomed = BTreeSet::new();
    for node in &nodes {
        doomed.extend(commit_records(cluster, node.id)?.into_iter().map(|n| (node.id.0, n)));
    }
    for node in &nodes {
        let Ok(ext) = cluster.extension(node.id) else { continue };
        let in_flight = ext.active_txn_numbers();
        doomed.retain(|(origin, n)| *origin != node.id.0 || !in_flight.contains(n));
    }
    for node in &nodes {
        if !node.is_active() {
            return Ok(0);
        }
        for key in node.engine().txns.prepared_gids().iter().filter_map(|g| parse_gid(g)) {
            doomed.remove(&key);
        }
    }
    let mut swept = 0;
    for node in &nodes {
        let mine = doomed.range((node.id.0, 0)..=(node.id.0, u64::MAX));
        let numbers: Vec<String> = mine.map(|(_, n)| n.to_string()).collect();
        if !numbers.is_empty() {
            let list = numbers.join(", ");
            let sql = format!("DELETE FROM {COMMIT_RECORDS_TABLE} WHERE number IN ({list})");
            swept += node.engine().session()?.execute_local(&sqlparse::parse(&sql)?)?.affected();
        }
    }
    cluster.metrics.commit_records_swept.fetch_add(swept, std::sync::atomic::Ordering::Relaxed);
    Ok(swept)
}
