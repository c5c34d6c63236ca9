//! Metrics registry: counters and virtual-time histograms the extension
//! surfaces as the `citus_stat_statements` / `citus_stat_activity` relations.
//!
//! Counters are plain atomics (always on — they are cheap and feed the stat
//! relations even when span tracing is off). The statement histogram buckets
//! *virtual* elapsed milliseconds, so its percentiles are deterministic for a
//! fixed workload and seed, at any `executor_threads` count.

use crate::planner::PlannerKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Upper bucket bounds (virtual ms) of [`Histogram`].
const BOUNDS: [f64; 14] =
    [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

/// Fixed-bound histogram over virtual-time durations.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BOUNDS.len() + 1],
    /// Total observed virtual time, in integer microseconds (atomically
    /// addable; floats are reconstructed on read).
    sum_micros: AtomicU64,
    /// Largest observation, in integer microseconds.
    max_micros: AtomicU64,
}

impl Histogram {
    pub fn observe(&self, ms: f64) {
        let idx = BOUNDS.iter().position(|b| ms <= *b).unwrap_or(BOUNDS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let us = (ms * 1000.0) as u64;
        self.sum_micros.fetch_add(us, Ordering::Relaxed);
        self.max_micros.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn sum_ms(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Percentile estimate in virtual ms: the upper bound of the bucket that
    /// contains the rank (the overflow bucket reports the observed max).
    /// Bucketed, hence deterministic and merge-friendly.
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < BOUNDS.len() {
                    BOUNDS[i]
                } else {
                    self.max_micros.load(Ordering::Relaxed) as f64 / 1000.0
                };
            }
        }
        self.max_micros.load(Ordering::Relaxed) as f64 / 1000.0
    }
}

/// One `citus_stat_statements` row: per statement *shape* (the plan-cache
/// shape hash), aggregated over executions.
#[derive(Debug, Clone, PartialEq)]
pub struct StatEntry {
    /// First-seen deparsed text of the shape.
    pub query: String,
    /// Planner tier the shape executes through.
    pub tier: PlannerKind,
    pub calls: u64,
    /// Total virtual elapsed ms across calls.
    pub total_ms: f64,
    /// Calls served from the distributed plan cache.
    pub cache_hits: u64,
    /// Read-task retries performed on behalf of this shape.
    pub retries: u64,
}

/// Cluster-wide metrics registry.
#[derive(Default)]
pub struct Metrics {
    /// Distributed executions per planner tier — cache hits included (the
    /// hit path re-records its tier; see the plan-cache bookkeeping fix).
    tier_executions: [AtomicU64; 4],
    /// Executions whose plan came from the plan cache.
    pub cache_hit_executions: AtomicU64,
    /// Virtual elapsed per distributed statement.
    pub statement_elapsed: Histogram,
    /// Wire exchanges opened by pipelined batching (one per worker per
    /// statement batch).
    pub pipeline_exchanges: AtomicU64,
    /// Tasks/statements that rode an already-open exchange instead of
    /// paying their own round trip (the batching savings).
    pub pipeline_coalesced: AtomicU64,
    /// Wire round trips paid (see [`netsim::pipeline::WireRound`]): counted
    /// where the fabric decides to pay, whether or not `real_rtt_us` makes
    /// the payment a real sleep.
    pub wire_rounds: AtomicU64,
    /// Tasks executed in the client's own backend via local execution (the
    /// worker half of MX mode).
    pub local_exec_tasks: AtomicU64,
    /// Commits that used the full two-phase protocol.
    pub twopc_commits: AtomicU64,
    /// Commits delegated to a single worker (§3.7.1).
    pub delegated_commits: AtomicU64,
    /// Victims cancelled by the distributed deadlock detector.
    pub deadlock_victims: AtomicU64,
    /// Prepared transactions finished by the recovery daemon.
    pub recovery_commits: AtomicU64,
    pub recovery_rollbacks: AtomicU64,
    /// Commit records deleted by recovery's sweep, their only deleter.
    pub commit_records_swept: AtomicU64,
    /// Shard-group moves journaled by the rebalancer (§3.4).
    pub moves_started: AtomicU64,
    /// Moves that ran their whole five-phase protocol to `done`.
    pub moves_completed: AtomicU64,
    /// Journaled moves aborted by the move-recovery pass (crashed before the
    /// metadata switch; orphan targets dropped).
    pub moves_aborted: AtomicU64,
    /// Journaled moves rolled forward by the move-recovery pass (crashed at
    /// or after the switch; source drop finished).
    pub moves_rolled_forward: AtomicU64,
    /// MX transactions aborted by the generation fence (a concurrent DDL or
    /// shard move touched a table the pinned transaction planned against, or
    /// a local holder was force-aborted to unblock a metadata change). The
    /// abort is surfaced as SQLSTATE 40001 and is retryable.
    pub mx_generation_aborts: AtomicU64,
    /// MX transactions that saw a *non-conflicting* metadata bump mid-flight
    /// and escalated to the coordinator path for the rest of the transaction.
    pub mx_midtxn_escalations: AtomicU64,
    /// Rollup refresh transactions committed (changefeed consumption).
    pub rollup_refreshes: AtomicU64,
    /// Group-row deltas applied by rollup refreshes.
    pub rollup_deltas_applied: AtomicU64,
    /// Min/max retraction fallbacks that re-aggregated a group from source.
    pub rollup_recounts: AtomicU64,
    /// Changefeed cursors handed from a move source to its destination at
    /// the `switched` journal phase.
    pub cursor_handoffs: AtomicU64,
    statements: Mutex<BTreeMap<u64, StatEntry>>,
}

fn tier_index(kind: PlannerKind) -> usize {
    match kind {
        PlannerKind::FastPath => 0,
        PlannerKind::Router => 1,
        PlannerKind::Pushdown => 2,
        PlannerKind::JoinOrder => 3,
    }
}

impl Metrics {
    /// Record one successful distributed execution. `query` is rendered only
    /// for a shape's first call.
    pub fn record_statement(
        &self,
        shape: u64,
        query: impl FnOnce() -> String,
        tier: PlannerKind,
        cache_hit: bool,
        elapsed_ms: f64,
        retries: u64,
    ) {
        self.tier_executions[tier_index(tier)].fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hit_executions.fetch_add(1, Ordering::Relaxed);
        }
        self.statement_elapsed.observe(elapsed_ms);
        let mut map = self.statements.lock().unwrap_or_else(|e| e.into_inner());
        let e = map.entry(shape).or_insert_with(|| StatEntry {
            query: query(),
            tier,
            calls: 0,
            total_ms: 0.0,
            cache_hits: 0,
            retries: 0,
        });
        e.tier = tier;
        e.calls += 1;
        e.total_ms += elapsed_ms;
        e.cache_hits += cache_hit as u64;
        e.retries += retries;
    }

    /// Distributed executions recorded for a tier (cache hits included).
    pub fn tier_count(&self, kind: PlannerKind) -> u64 {
        self.tier_executions[tier_index(kind)].load(Ordering::Relaxed)
    }

    /// Stat-statements entries, sorted by shape hash (deterministic order).
    pub fn statement_entries(&self) -> Vec<(u64, StatEntry)> {
        self.statements
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    pub fn reset_statements(&self) {
        self.statements.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_bucket_bounds() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(0.3); // bucket ≤ 0.5
        }
        for _ in 0..10 {
            h.observe(42.0); // bucket ≤ 50
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 0.5);
        assert_eq!(h.percentile(0.95), 50.0);
        assert_eq!(h.percentile(0.99), 50.0);
    }

    #[test]
    fn overflow_bucket_reports_max() {
        let h = Histogram::default();
        h.observe(5000.0);
        assert_eq!(h.percentile(0.99), 5000.0);
    }

    #[test]
    fn record_statement_aggregates_by_shape() {
        let m = Metrics::default();
        m.record_statement(7, || "SELECT 1".into(), PlannerKind::FastPath, false, 1.0, 0);
        m.record_statement(7, || unreachable!(), PlannerKind::FastPath, true, 0.5, 2);
        let entries = m.statement_entries();
        assert_eq!(entries.len(), 1);
        let (_, e) = &entries[0];
        assert_eq!(e.calls, 2);
        assert_eq!(e.cache_hits, 1);
        assert_eq!(e.retries, 2);
        assert_eq!(m.tier_count(PlannerKind::FastPath), 2);
    }
}
