//! The maintenance daemon (§3.1 "background workers").
//!
//! Runs distributed deadlock detection, 2PC recovery, and shard-move
//! recovery on their configured intervals, through the pgmini
//! background-worker API. Tests usually call
//! [`crate::deadlock::detect_once`] / [`crate::recovery::recover_once`] /
//! [`crate::rebalancer::recover_moves`] directly for determinism; benchmarks
//! and examples run the daemon.

use crate::cluster::Cluster;
use pgmini::bgworker::BackgroundWorker;
use std::sync::{Arc, Weak};

/// Handle to the running maintenance workers; stops them on drop.
pub struct MaintenanceDaemon {
    workers: Vec<BackgroundWorker>,
}

impl MaintenanceDaemon {
    /// Number of completed deadlock-detection passes.
    pub fn detection_passes(&self) -> u64 {
        self.workers.first().map(|w| w.tick_count()).unwrap_or(0)
    }

    pub fn stop(&mut self) {
        for w in &mut self.workers {
            w.stop();
        }
    }
}

/// Start the maintenance daemon for a cluster.
pub fn start(cluster: &Arc<Cluster>) -> MaintenanceDaemon {
    let weak: Weak<Cluster> = Arc::downgrade(cluster);
    let weak2 = weak.clone();
    let deadlock_worker = BackgroundWorker::spawn(
        "citrus-deadlock-detector",
        cluster.config.deadlock_detection_interval,
        move || {
            if let Some(c) = weak.upgrade() {
                let _ = crate::deadlock::detect_once(&c);
            }
        },
    );
    let weak3 = weak2.clone();
    // 2PC recovery (the only deleter of commit records), then crashed shard
    // moves (abort before `switched`, roll forward after), on one cadence
    let recovery_worker = BackgroundWorker::spawn(
        "citrus-recovery",
        cluster.config.recovery_interval,
        move || {
            if let Some(c) = weak2.upgrade() {
                let _ = crate::recovery::recover_once(&c);
                let _ = crate::rebalancer::recover_moves(&c);
            }
        },
    );
    // drain changefeeds into registered rollups (no-op while none exist)
    let rollup_worker = BackgroundWorker::spawn(
        "citrus-rollup-maintenance",
        cluster.config.recovery_interval,
        move || {
            if let Some(c) = weak3.upgrade() {
                let _ = crate::rollup::refresh_all(&c);
            }
        },
    );
    MaintenanceDaemon {
        workers: vec![deadlock_worker, recovery_worker, rollup_worker],
    }
}
