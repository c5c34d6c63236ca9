//! 2PC transaction recovery (§3.7.2).
//!
//! The maintenance daemon periodically compares the prepared transactions on
//! each worker against the coordinator's commit records: a prepared `gid`
//! with a visible commit record must COMMIT PREPARED (the coordinator
//! committed); one without, whose originating transaction has ended, must
//! ROLLBACK PREPARED. In-flight transactions are left alone.
//!
//! The sibling pass for crashed *shard moves* — same daemon, same
//! leave-in-flight-work-alone discipline, driven by the durable move journal
//! instead of commit records — lives in [`crate::rebalancer::recover_moves`].

use crate::cluster::Cluster;
use crate::extension::{commit_record_delete, parse_gid, COMMIT_RECORDS_TABLE};
use crate::metadata::NodeId;
use pgmini::error::PgResult;
use sqlparse::ast::Statement;
use std::sync::Arc;

/// Outcome of one recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    pub committed: u64,
    pub rolled_back: u64,
    pub skipped_in_flight: u64,
    /// Nodes that were down during the pass; their prepared transactions (if
    /// any) wait for a later pass, after restore or promotion.
    pub unreachable_nodes: u64,
}

/// Does a commit record for `gid` exist on the origin coordinator?
/// (Public: the sim's read-skew invariant asks the same question to decide
/// whether a prepared transaction is already decided-committed.)
pub fn commit_record_exists(cluster: &Arc<Cluster>, origin: NodeId, gid: &str) -> PgResult<bool> {
    let engine = cluster.node(origin)?.engine();
    let mut session = engine.session()?;
    let stmt = sqlparse::parse(&format!(
        "SELECT count(*) FROM {COMMIT_RECORDS_TABLE} WHERE gid = {}",
        sqlparse::quote_literal(gid)
    ))?;
    let r = session.execute_local(&stmt)?;
    Ok(r.scalar().and_then(|d| d.as_i64().ok()).unwrap_or(0) > 0)
}

fn delete_commit_record(cluster: &Arc<Cluster>, origin: NodeId, gid: &str) -> PgResult<()> {
    let engine = cluster.node(origin)?.engine();
    engine.session()?.execute_local(&commit_record_delete(gid))?;
    Ok(())
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
            if committed {
                let _ = delete_commit_record(cluster, origin, &gid);
            }
        }
    }
    if stats != RecoveryStats::default() {
        span.set("committed", stats.committed);
        span.set("rolled_back", stats.rolled_back);
        span.set("skipped_in_flight", stats.skipped_in_flight);
        span.set("unreachable_nodes", stats.unreachable_nodes);
        cluster.tracer.record_daemon(span);
    }
    Ok(stats)
}
