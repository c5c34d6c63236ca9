//! Step-lock two-session interleaving driver for anomaly tests.
//!
//! Distributed anomalies live in *windows* of the commit protocol; to test
//! one deterministically you must hold a multi-node commit open at a precise
//! step and run a second session inside the window. This module packages the
//! canonical window — a 2PC paused between its `COMMIT PREPARED` steps — as
//! a reusable utility so anomaly tests don't hand-roll fault plans.
//!
//! [`freeze_commit_prepared`] arms the fabric so every `COMMIT PREPARED`
//! addressed to one victim node is swallowed. Drive a multi-node write
//! transaction to COMMIT while armed, and the protocol runs *through* its
//! decision point: every participant prepares, the durable commit records are
//! written (and, under snapshot isolation, the decided commit timestamp is
//! published), and every participant except the victim applies its half. The
//! client's COMMIT still returns success — per §3.7.2 the decision is
//! durable and recovery owns the rest — leaving the cluster exactly in the
//! cross-node read-skew window: the transaction's effects are visible on
//! every node but one.
//!
//! A second session now reads whatever the anomaly test wants to observe.
//! [`Frozen::release`] disarms the fault and runs one recovery pass,
//! which finishes the frozen `COMMIT PREPARED` and restores atomicity.
//!
//! The freeze is deterministic (an `always()` rule addressed by statement
//! tag and node), so tests built on it replay identically at any executor
//! thread count.

use crate::cluster::Cluster;
use crate::metadata::NodeId;
use crate::recovery::{recover_once, RecoveryStats};
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::error::PgResult;
use std::sync::Arc;

/// A protocol step swallowed on one victim node: a distributed commit held
/// open between its `COMMIT PREPARED` steps ([`freeze_commit_prepared`]) or
/// a DDL propagation stopped mid-fan-out ([`freeze_ddl`]). Dropped or
/// [`released`] explicitly.
///
/// [`released`]: Frozen::release
pub struct Frozen {
    cluster: Arc<Cluster>,
    /// Node whose steps are being swallowed.
    pub victim: NodeId,
}

/// Arm the fabric so every statement tagged `tag` sent to `victim` fails.
/// Replaces any fault plan currently installed on the cluster.
fn freeze(cluster: &Arc<Cluster>, victim: NodeId, tag: &str, label: &str) -> Frozen {
    let plan = FaultPlan::new().with(
        FaultRule::new(FaultOp::Statement, FaultKind::Error)
            .on_node(victim.0)
            .with_tag(tag)
            .always()
            .labeled(label),
    );
    cluster.install_faults(plan, 0);
    Frozen { cluster: cluster.clone(), victim }
}

/// Arm the fabric so every `COMMIT PREPARED` sent to `victim` fails, then
/// return the handle that releases the freeze. Any multi-node commit whose
/// participants include `victim` will stop half-applied: decided and durable,
/// applied everywhere except `victim`.
///
/// Replaces any fault plan currently installed on the cluster.
pub fn freeze_commit_prepared(cluster: &Arc<Cluster>, victim: NodeId) -> Frozen {
    freeze(cluster, victim, "commit_prepared", "interleave.freeze_commit_prepared")
}

/// Arm the fabric so every statement with `tag` (`"create_index"`,
/// `"truncate"`, `"drop_table"`) sent to `victim` fails, freezing any DDL
/// propagation at that node's step: generation bumped, pre-fence run, some
/// placements applied — the window the MX escalation drills interleave open
/// transactions into. The coordinator-side metadata effects (generation
/// bump, plan-cache invalidation, pre-fencing) have already happened by the
/// time the freeze bites, so fenced MX sessions observe the bump while the
/// DDL itself is still incomplete — the precise window the generation fence
/// exists for. The caller re-issues the DDL after the release.
///
/// Replaces any fault plan currently installed on the cluster.
pub fn freeze_ddl(cluster: &Arc<Cluster>, victim: NodeId, tag: &str) -> Frozen {
    freeze(cluster, victim, tag, "interleave.freeze_ddl")
}

impl Frozen {
    /// Gids still prepared on the victim node — the halves a commit freeze
    /// is holding open (empty until a commit actually hits the freeze).
    pub fn frozen_gids(&self) -> Vec<String> {
        self.cluster
            .node(self.victim)
            .map(|n| n.engine().txns.prepared_gids())
            .unwrap_or_default()
    }

    /// Disarm the freeze and run one 2PC recovery pass, finishing frozen
    /// `COMMIT PREPARED` steps (and settling any 2PC halves an aborted DDL
    /// propagation left in doubt). Returns the pass's stats so tests can
    /// assert exactly what was recovered.
    pub fn release(self) -> PgResult<RecoveryStats> {
        self.cluster.clear_faults();
        recover_once(&self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn freeze_holds_one_participant_prepared_then_release_recovers() {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 8;
        let c = Cluster::new(cfg);
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        for k in 0..16 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, 0)")).unwrap();
        }

        let split = freeze_commit_prepared(&c, NodeId(2));
        assert!(split.frozen_gids().is_empty(), "no commit has hit the freeze yet");
        // a multi-node write commit: client sees success, victim stays prepared
        s.execute("UPDATE t SET v = v + 1").unwrap();
        let gids = split.frozen_gids();
        assert_eq!(gids.len(), 1, "exactly one frozen half on the victim: {gids:?}");
        let stats = split.release().unwrap();
        assert_eq!(stats.committed, 1);
        assert!(c.node(NodeId(2)).unwrap().engine().txns.prepared_gids().is_empty());
    }

    #[test]
    fn freeze_ddl_bumps_generation_before_fanout_and_release_unblocks() {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 8;
        let c = Cluster::new(cfg);
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        let gen_before = c.metadata.read().generation();
        let frozen = freeze_ddl(&c, NodeId(2), "create_index");
        assert!(
            s.execute("CREATE INDEX i_frozen ON t (v)").is_err(),
            "propagation must stop at the frozen node"
        );
        // the metadata effects precede the fan-out: concurrent MX sessions
        // fence on the bump even though the DDL itself is incomplete
        let meta = c.metadata.read();
        assert!(meta.generation() > gen_before);
        assert!(meta.changed_since("t", gen_before));
        drop(meta);
        frozen.release().unwrap();
        s.execute("CREATE INDEX i_retry ON t (v)").unwrap();
    }
}
