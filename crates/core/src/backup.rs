//! Consistent cluster backups via restore points (§3.9).
//!
//! A restore point is a named WAL record written on *every* node while 2PC
//! commit-record writes are blocked. Restoring all nodes to the same point
//! therefore leaves every multi-node transaction either fully decided or
//! recoverable through 2PC recovery — never half-committed.

use crate::cluster::{Cluster, ClusterConfig};
use crate::metadata::NodeId;
use pgmini::engine::Engine;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::wal::{self, WalRecord};
use std::sync::Arc;

/// Write a restore point on every node. Blocks commit-record writes for the
/// duration, which excludes in-flight 2PC commits (§3.9).
pub fn create_restore_point(cluster: &Arc<Cluster>, name: &str) -> PgResult<()> {
    let _guard = cluster.commit_record_lock.lock();
    let nodes = cluster.nodes();
    // all-or-nothing: refuse before appending anywhere, or a down node
    // mid-loop would leave a partial (named but unusable) restore point on
    // the nodes already visited
    for node in &nodes {
        if !node.is_active() {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                format!("cannot create restore point: node {} is down", node.name),
            ));
        }
    }
    for node in &nodes {
        node.engine().wal.append(WalRecord::RestorePoint { name: name.to_string() });
    }
    Ok(())
}

/// The archived state of one node: its full WAL (what continuous archiving
/// would have shipped to remote storage).
pub struct ClusterBackup {
    pub config: ClusterConfig,
    pub metadata: crate::metadata::Metadata,
    pub node_wals: Vec<Vec<WalRecord>>,
}

/// Capture the current archives of every node.
pub fn archive(cluster: &Arc<Cluster>) -> ClusterBackup {
    ClusterBackup {
        config: cluster.config.clone(),
        metadata: cluster.metadata.read_recursive().clone(),
        node_wals: cluster.nodes().iter().map(|n| n.engine().wal.all()).collect(),
    }
}

/// Restore a whole cluster from archived WALs to `restore_point`, then run
/// 2PC recovery so in-flight multi-node transactions settle consistently.
pub fn restore_cluster(backup: &ClusterBackup, restore_point: &str) -> PgResult<Arc<Cluster>> {
    let cluster = Cluster::new(backup.config.clone());
    while cluster.node_ids().len() < backup.node_wals.len() {
        // build the topology first; engines are replaced below
        cluster.add_worker()?;
    }
    *cluster.metadata.write() = backup.metadata.clone();
    for (i, records) in backup.node_wals.iter().enumerate() {
        let node = cluster.node(NodeId(i as u32))?;
        let upto = wal::restore_point_in(records, restore_point).ok_or_else(|| {
            PgError::new(
                ErrorCode::InvalidParameter,
                format!("restore point \"{restore_point}\" not found on node {i}"),
            )
        })?;
        let engine = Engine::restore_from_wal(records, Some(upto))?;
        crate::extension::CitrusExtension::install_restored(&cluster, &engine, NodeId(i as u32));
        node.replace_engine(engine);
    }
    // settle prepared transactions using the restored commit records, and
    // abort/roll-forward any shard move the restored journal says was in
    // flight at the restore point
    crate::recovery::recover_once(&cluster)?;
    crate::rebalancer::recover_moves(&cluster)?;
    Ok(cluster)
}
