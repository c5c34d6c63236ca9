//! Lock manager: blocking table and row locks with a queryable wait-for
//! graph.
//!
//! Local (single-engine) deadlocks are detected here, like PostgreSQL's
//! deadlock checker: a waiter that has been blocked longer than
//! `deadlock_timeout` searches the local wait-for graph for a cycle through
//! itself. *Distributed* deadlocks produce no local cycle — each engine sees
//! only a path — so this module also exports [`LockManager::wait_edges`],
//! which the distributed layer's detection daemon polls and merges by
//! distributed transaction id (§3.7.3 of the paper).

use crate::catalog::TableId;
use crate::error::{ErrorCode, PgError, PgResult};
use crate::txn::Xid;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lock modes. `Shared` conflicts only with `Exclusive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

impl LockMode {
    fn conflicts(self, other: LockMode) -> bool {
        matches!(
            (self, other),
            (LockMode::Exclusive, _) | (_, LockMode::Exclusive)
        )
    }
}

/// What is being locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKey {
    Table(TableId),
    /// A logical row, identified by its stable row id (shared by all MVCC
    /// versions of the row).
    Row(TableId, u64),
}

/// Distributed transaction identity, assigned by a coordinator and attached
/// to worker transactions so lock-graph nodes can be merged across engines.
/// Mirrors Citus's `(origin node, transaction number, timestamp)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DistTxnId {
    pub origin_node: u32,
    pub number: u64,
    /// Logical start time; "youngest transaction in the cycle" compares this.
    pub timestamp: u64,
}

/// Why a backend was cancelled (stored in the shared cancel flag).
pub const CANCEL_NONE: u8 = 0;
pub const CANCEL_QUERY: u8 = 1;
pub const CANCEL_DEADLOCK: u8 = 2;
/// The transaction was force-aborted by a metadata fence (its locks are
/// already released); the session surfaces a retryable serialization failure.
pub const CANCEL_FENCE: u8 = 3;

/// Shared per-session cancellation flag.
pub type CancelFlag = Arc<AtomicU8>;

/// One edge of the wait-for graph: `waiter` is blocked on `holder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub waiter: Xid,
    pub holder: Xid,
    pub waiter_dist: Option<DistTxnId>,
    pub holder_dist: Option<DistTxnId>,
    /// How long the waiter has been blocked (the distributed detector's
    /// bounded-wait tier compares this against `deadlock_timeout`).
    pub waited: Duration,
}

/// One held lock, as surfaced by [`LockManager::lock_report`]: the
/// per-worker report the distributed layer merges into the coordinator's
/// wait graph so it can see purely-local (MX fast path) lock holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockHolder {
    pub key: LockKey,
    pub xid: Xid,
    pub mode: LockMode,
    /// `None` means the holder is invisible to distributed-id graph merging.
    pub dist: Option<DistTxnId>,
}

#[derive(Debug, Default)]
struct LockEntry {
    holders: Vec<(Xid, LockMode)>,
    /// Waiting (xid, mode) pairs, in arrival order.
    waiters: Vec<(Xid, LockMode)>,
}

#[derive(Default)]
struct LockState {
    locks: HashMap<LockKey, LockEntry>,
    held: HashMap<Xid, Vec<LockKey>>,
    /// xid → the key it is currently blocked on.
    waiting_on: HashMap<Xid, LockKey>,
    /// xid → when it started blocking (drives `WaitEdge::waited`).
    waiting_since: HashMap<Xid, std::time::Instant>,
    cancel: HashMap<Xid, CancelFlag>,
    dist: HashMap<Xid, DistTxnId>,
}

impl LockEntry {
    /// Can `xid` acquire `mode` on the entry right now?
    fn grantable(&self, xid: Xid, mode: LockMode) -> bool {
        self.holders.iter().all(|&(h, hmode)| h == xid || !mode.conflicts(hmode))
    }
}

impl LockState {
    /// Holders of `key` that conflict with `xid` wanting `mode`.
    fn conflicting_holders(&self, key: &LockKey, xid: Xid, mode: LockMode) -> Vec<Xid> {
        self.locks
            .get(key)
            .map(|e| {
                e.holders
                    .iter()
                    .filter(|&&(h, hmode)| h != xid && mode.conflicts(hmode))
                    .map(|&(h, _)| h)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Local wait-for edges (waiter → each conflicting holder).
    fn edges(&self) -> Vec<WaitEdge> {
        let mut out = Vec::new();
        for (&waiter, key) in &self.waiting_on {
            let mode = self
                .locks
                .get(key)
                .and_then(|e| e.waiters.iter().find(|&&(x, _)| x == waiter).map(|&(_, m)| m))
                .unwrap_or(LockMode::Exclusive);
            let waited = self
                .waiting_since
                .get(&waiter)
                .map(|t| t.elapsed())
                .unwrap_or(Duration::ZERO);
            for holder in self.conflicting_holders(key, waiter, mode) {
                out.push(WaitEdge {
                    waiter,
                    holder,
                    waiter_dist: self.dist.get(&waiter).copied(),
                    holder_dist: self.dist.get(&holder).copied(),
                    waited,
                });
            }
        }
        out
    }

    /// Does the local wait-for graph contain a cycle through `start`?
    fn local_cycle_through(&self, start: Xid) -> bool {
        // DFS over waiter→holder edges
        let edges = self.edges();
        let mut adj: HashMap<Xid, Vec<Xid>> = HashMap::new();
        for e in &edges {
            adj.entry(e.waiter).or_default().push(e.holder);
        }
        let mut stack = vec![start];
        let mut seen = std::collections::HashSet::new();
        while let Some(x) = stack.pop() {
            for &next in adj.get(&x).map(Vec::as_slice).unwrap_or(&[]) {
                if next == start {
                    return true;
                }
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    }
}

/// Engine-wide lock manager.
pub struct LockManager {
    state: Mutex<LockState>,
    cond: Condvar,
    /// How long a waiter blocks before running local deadlock detection.
    pub deadlock_timeout: Duration,
    /// Optional hard cap on lock waits (None = wait forever).
    pub lock_timeout: Option<Duration>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager {
            state: Mutex::new(LockState::default()),
            cond: Condvar::new(),
            deadlock_timeout: Duration::from_millis(50),
            lock_timeout: None,
        }
    }
}

impl LockManager {
    /// Register a transaction's cancel flag (and optional distributed id) so
    /// it can be cancelled while blocked.
    pub fn register_txn(&self, xid: Xid, cancel: CancelFlag, dist: Option<DistTxnId>) {
        let mut s = self.state.lock();
        s.cancel.insert(xid, cancel);
        if let Some(d) = dist {
            s.dist.insert(xid, d);
        }
    }

    /// Attach a distributed transaction id after the fact (the
    /// `assign_distributed_transaction_id` UDF path).
    pub fn assign_dist_id(&self, xid: Xid, dist: DistTxnId) {
        self.state.lock().dist.insert(xid, dist);
    }

    /// Acquire `mode` on `key` for `xid`, blocking until granted.
    ///
    /// Errors with `DeadlockDetected` if a local cycle forms, or if the
    /// transaction's cancel flag is raised while waiting (the distributed
    /// deadlock detector's kill path).
    pub fn acquire(&self, xid: Xid, key: LockKey, mode: LockMode) -> PgResult<()> {
        let mut s = self.state.lock();
        let entry = s.locks.entry(key).or_default();
        // fast path incl. reentrant acquisition
        if let Some(&(_, held)) = entry.holders.iter().find(|&&(h, _)| h == xid) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return Ok(());
            }
            // shared → exclusive upgrade handled below
        }
        if entry.grantable(xid, mode) {
            upgrade_or_add(entry, xid, mode);
            s.held.entry(xid).or_default().push(key);
            return Ok(());
        }
        // slow path: enqueue and wait
        entry.waiters.push((xid, mode));
        s.waiting_on.insert(xid, key);
        s.waiting_since.insert(xid, std::time::Instant::now());
        let cancel = s.cancel.get(&xid).cloned();
        let started = std::time::Instant::now();
        let mut deadlock_checked = false;
        loop {
            self.cond.wait_for(&mut s, Duration::from_millis(5));
            // cancellation (distributed deadlock detector or user)
            if let Some(flag) = &cancel {
                match flag.load(Ordering::SeqCst) {
                    CANCEL_NONE => {}
                    reason => {
                        self.remove_waiter(&mut s, xid, key);
                        flag.store(CANCEL_NONE, Ordering::SeqCst);
                        return Err(match reason {
                            CANCEL_DEADLOCK => PgError::new(
                                ErrorCode::DeadlockDetected,
                                "canceling the transaction since it was involved in a \
                                 distributed deadlock",
                            ),
                            CANCEL_FENCE => PgError::new(
                                ErrorCode::SerializationFailure,
                                "canceling statement due to a conflicting metadata change",
                            ),
                            _ => PgError::new(
                                ErrorCode::QueryCanceled,
                                "canceling statement due to user request",
                            ),
                        });
                    }
                }
            }
            // grant?
            let grantable = s.locks.get(&key).is_none_or(|e| e.grantable(xid, mode));
            if grantable {
                let entry = s.locks.entry(key).or_default();
                entry.waiters.retain(|&(x, _)| x != xid);
                upgrade_or_add(entry, xid, mode);
                s.waiting_on.remove(&xid);
                s.waiting_since.remove(&xid);
                s.held.entry(xid).or_default().push(key);
                return Ok(());
            }
            // local deadlock detection after deadlock_timeout
            if !deadlock_checked && started.elapsed() >= self.deadlock_timeout {
                deadlock_checked = true;
                if s.local_cycle_through(xid) {
                    self.remove_waiter(&mut s, xid, key);
                    return Err(PgError::new(ErrorCode::DeadlockDetected, "deadlock detected"));
                }
            }
            if let Some(cap) = self.lock_timeout {
                if started.elapsed() >= cap {
                    self.remove_waiter(&mut s, xid, key);
                    return Err(PgError::new(
                        ErrorCode::QueryCanceled,
                        "canceling statement due to lock timeout",
                    ));
                }
            }
        }
    }

    fn remove_waiter(&self, s: &mut LockState, xid: Xid, key: LockKey) {
        if let Some(e) = s.locks.get_mut(&key) {
            e.waiters.retain(|&(x, _)| x != xid);
        }
        s.waiting_on.remove(&xid);
        s.waiting_since.remove(&xid);
    }

    /// Release everything `xid` holds (commit, abort, or COMMIT PREPARED).
    pub fn release_all(&self, xid: Xid) {
        let mut s = self.state.lock();
        if let Some(keys) = s.held.remove(&xid) {
            for key in keys {
                if let Some(e) = s.locks.get_mut(&key) {
                    e.holders.retain(|&(h, _)| h != xid);
                    if e.holders.is_empty() && e.waiters.is_empty() {
                        s.locks.remove(&key);
                    }
                }
            }
        }
        s.waiting_on.remove(&xid);
        s.waiting_since.remove(&xid);
        s.cancel.remove(&xid);
        s.dist.remove(&xid);
        self.cond.notify_all();
    }

    /// Transfer lock ownership bookkeeping when a transaction becomes
    /// prepared: locks stay held by the xid; only the cancel flag detaches
    /// (the session moves on).
    pub fn detach_session(&self, xid: Xid) {
        let mut s = self.state.lock();
        s.cancel.remove(&xid);
    }

    /// Snapshot of the wait-for graph (the distributed detector's poll).
    pub fn wait_edges(&self) -> Vec<WaitEdge> {
        self.state.lock().edges()
    }

    /// Cancel the backend running distributed transaction `dist`, marking it
    /// a deadlock victim. Returns true if a matching local txn was found.
    pub fn cancel_dist_txn(&self, dist: DistTxnId) -> bool {
        let s = self.state.lock();
        let mut hit = false;
        for (xid, d) in &s.dist {
            if *d == dist {
                if let Some(flag) = s.cancel.get(xid) {
                    flag.store(CANCEL_DEADLOCK, Ordering::SeqCst);
                    hit = true;
                }
            }
        }
        drop(s);
        self.cond.notify_all();
        hit
    }

    /// Mark a specific local transaction as a metadata-fence victim: its
    /// next cancel-flag check (blocked acquire or statement boundary) raises
    /// a retryable serialization failure. Returns true when the flag of a
    /// registered transaction was raised.
    pub fn fence_xid(&self, xid: Xid) -> bool {
        let s = self.state.lock();
        let hit = s.cancel.get(&xid).map(|f| {
            f.store(CANCEL_FENCE, Ordering::SeqCst);
        });
        drop(s);
        self.cond.notify_all();
        hit.is_some()
    }

    /// Per-worker lock report: every held lock with its holder's identity.
    /// The distributed layer's fence tier uses this to find purely-local
    /// holders (`dist == None`) that block distributed operations.
    pub fn lock_report(&self) -> Vec<LockHolder> {
        let s = self.state.lock();
        let mut out = Vec::new();
        for (key, entry) in &s.locks {
            for &(xid, mode) in &entry.holders {
                out.push(LockHolder { key: *key, xid, mode, dist: s.dist.get(&xid).copied() });
            }
        }
        out.sort_by_key(|h| h.xid);
        out
    }

    /// Holders of `key` (the targeted flavour of [`Self::lock_report`]).
    pub fn holders_of(&self, key: LockKey) -> Vec<(Xid, Option<DistTxnId>)> {
        let s = self.state.lock();
        s.locks
            .get(&key)
            .map(|e| {
                e.holders
                    .iter()
                    .map(|&(xid, _)| (xid, s.dist.get(&xid).copied()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of transactions currently blocked.
    pub fn waiting_count(&self) -> usize {
        self.state.lock().waiting_on.len()
    }
}

fn upgrade_or_add(entry: &mut LockEntry, xid: Xid, mode: LockMode) {
    if let Some(slot) = entry.holders.iter_mut().find(|(h, _)| *h == xid) {
        if mode == LockMode::Exclusive {
            slot.1 = LockMode::Exclusive;
        }
    } else {
        entry.holders.push((xid, mode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::thread;

    fn flag() -> CancelFlag {
        Arc::new(AtomicU8::new(CANCEL_NONE))
    }

    const T: TableId = TableId(1);

    #[test]
    fn shared_locks_coexist_exclusive_blocks() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.register_txn(2, flag(), None);
        lm.acquire(1, LockKey::Table(T), LockMode::Shared).unwrap();
        lm.acquire(2, LockKey::Table(T), LockMode::Shared).unwrap();
        // exclusive must wait for both
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.register_txn(3, flag(), None);
            lm2.acquire(3, LockKey::Table(T), LockMode::Exclusive).unwrap();
            lm2.release_all(3);
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(lm.waiting_count(), 1);
        lm.release_all(1);
        lm.release_all(2);
        h.join().unwrap();
        assert_eq!(lm.waiting_count(), 0);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::default();
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Row(T, 5), LockMode::Shared).unwrap();
        lm.acquire(1, LockKey::Row(T, 5), LockMode::Shared).unwrap();
        // sole shared holder upgrades immediately
        lm.acquire(1, LockKey::Row(T, 5), LockMode::Exclusive).unwrap();
        // exclusive holder re-acquires freely
        lm.acquire(1, LockKey::Row(T, 5), LockMode::Shared).unwrap();
        lm.release_all(1);
    }

    #[test]
    fn local_deadlock_detected() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.register_txn(2, flag(), None);
        lm.acquire(1, LockKey::Row(T, 1), LockMode::Exclusive).unwrap();
        lm.acquire(2, LockKey::Row(T, 2), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            // txn 2 waits for row 1; on deadlock the "abort" releases locks
            let r = lm2.acquire(2, LockKey::Row(T, 1), LockMode::Exclusive);
            lm2.release_all(2);
            r
        });
        thread::sleep(Duration::from_millis(20));
        // txn 1 waits for row 2 → cycle; one of the two must get an error
        let r1 = lm.acquire(1, LockKey::Row(T, 2), LockMode::Exclusive);
        lm.release_all(1);
        let r2 = h.join().unwrap();
        let errs =
            [&r1, &r2].iter().filter(|r| r.is_err()).count();
        assert!(errs >= 1, "deadlock must break: {r1:?} {r2:?}");
        for (i, r) in [r1, r2].into_iter().enumerate() {
            if let Err(e) = r {
                assert_eq!(e.code, ErrorCode::DeadlockDetected, "txn {}", i + 1);
            }
        }
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn wait_edges_expose_graph_with_dist_ids() {
        let lm = Arc::new(LockManager::default());
        let d1 = DistTxnId { origin_node: 1, number: 10, timestamp: 100 };
        lm.register_txn(1, flag(), Some(d1));
        lm.acquire(1, LockKey::Row(T, 9), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let d2 = DistTxnId { origin_node: 2, number: 11, timestamp: 200 };
            lm2.register_txn(2, flag(), Some(d2));
            let _ = lm2.acquire(2, LockKey::Row(T, 9), LockMode::Exclusive);
            lm2.release_all(2);
        });
        thread::sleep(Duration::from_millis(20));
        let edges = lm.wait_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].waiter, 2);
        assert_eq!(edges[0].holder, 1);
        assert_eq!(edges[0].holder_dist, Some(d1));
        assert!(edges[0].waiter_dist.is_some());
        lm.release_all(1);
        h.join().unwrap();
    }

    #[test]
    fn cancel_dist_txn_wakes_waiter_with_deadlock_error() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Row(T, 3), LockMode::Exclusive).unwrap();
        let victim = DistTxnId { origin_node: 7, number: 42, timestamp: 999 };
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.register_txn(2, flag(), Some(victim));
            lm2.acquire(2, LockKey::Row(T, 3), LockMode::Exclusive)
        });
        thread::sleep(Duration::from_millis(20));
        assert!(lm.cancel_dist_txn(victim));
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlockDetected);
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn lock_timeout_fires() {
        let mut lm = LockManager::default();
        lm.lock_timeout = Some(Duration::from_millis(30));
        let lm = Arc::new(lm);
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Row(T, 1), LockMode::Exclusive).unwrap();
        lm.register_txn(2, flag(), None);
        let err = lm.acquire(2, LockKey::Row(T, 1), LockMode::Exclusive).unwrap_err();
        assert_eq!(err.code, ErrorCode::QueryCanceled);
        lm.release_all(1);
    }

    #[test]
    fn fence_xid_wakes_waiter_with_serialization_failure() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Row(T, 3), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.register_txn(2, flag(), None);
            lm2.acquire(2, LockKey::Row(T, 3), LockMode::Exclusive)
        });
        thread::sleep(Duration::from_millis(20));
        assert!(lm.fence_xid(2));
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err.code, ErrorCode::SerializationFailure);
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn lock_report_distinguishes_local_and_distributed_holders() {
        let lm = LockManager::default();
        let d = DistTxnId { origin_node: 1, number: 7, timestamp: 70 };
        lm.register_txn(1, flag(), None);
        lm.register_txn(2, flag(), Some(d));
        lm.acquire(1, LockKey::Table(T), LockMode::Shared).unwrap();
        lm.acquire(2, LockKey::Table(T), LockMode::Shared).unwrap();
        let report = lm.lock_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].xid, 1);
        assert_eq!(report[0].dist, None);
        assert_eq!(report[1].xid, 2);
        assert_eq!(report[1].dist, Some(d));
        let holders = lm.holders_of(LockKey::Table(T));
        assert_eq!(holders, vec![(1, None), (2, Some(d))]);
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn wait_edges_carry_wait_age() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Row(T, 9), LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.register_txn(2, flag(), None);
            let _ = lm2.acquire(2, LockKey::Row(T, 9), LockMode::Exclusive);
            lm2.release_all(2);
        });
        thread::sleep(Duration::from_millis(30));
        let edges = lm.wait_edges();
        assert_eq!(edges.len(), 1);
        assert!(edges[0].waited >= Duration::from_millis(10));
        lm.release_all(1);
        h.join().unwrap();
    }

    #[test]
    fn release_unblocks_fifo() {
        let lm = Arc::new(LockManager::default());
        lm.register_txn(1, flag(), None);
        lm.acquire(1, LockKey::Table(T), LockMode::Exclusive).unwrap();
        let mut handles = Vec::new();
        for xid in 2..6 {
            let lm2 = lm.clone();
            handles.push(thread::spawn(move || {
                lm2.register_txn(xid, flag(), None);
                lm2.acquire(xid, LockKey::Table(T), LockMode::Shared).unwrap();
                lm2.release_all(xid);
            }));
        }
        thread::sleep(Duration::from_millis(30));
        lm.release_all(1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.waiting_count(), 0);
    }
}
