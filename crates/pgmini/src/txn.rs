//! Transaction manager: xid allocation, commit/abort status, MVCC snapshots,
//! and prepared transactions (`PREPARE TRANSACTION` / `COMMIT PREPARED`) —
//! the primitives the distributed layer's two-phase commit is built on.

use crate::error::{ErrorCode, PgError, PgResult};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transaction id. 0 is "invalid" (no transaction), like PostgreSQL.
pub type Xid = u64;

pub const INVALID_XID: Xid = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    InProgress,
    Committed,
    Aborted,
    /// First phase of 2PC done: effects durable, locks held, outcome pending.
    Prepared,
}

/// Cluster-wide commit ordering: a shared logical clock that stamps every
/// commit with a monotonically increasing timestamp, plus a registry of
/// decided-but-not-yet-applied prepared transactions (gid → commit ts).
///
/// The distributed layer installs one `CommitClock` across all node engines;
/// a coordinator-issued snapshot *token* is simply a clock reading. A commit
/// stamped `C` is visible to a token `T` iff `C <= T` — evaluated the same
/// way on every node — so a multi-node 2PC commit becomes visible atomically
/// the moment the coordinator publishes its decided timestamp for all
/// participant gids.
#[derive(Debug, Default)]
pub struct CommitClock {
    counter: AtomicU64,
    decided: Mutex<HashMap<String, u64>>,
}

impl CommitClock {
    /// Current reading (a snapshot token): every commit stamped `<= now()`
    /// is visible to it.
    pub fn now(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Draw the next commit timestamp (strictly greater than every token
    /// issued so far).
    pub fn next(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Record the decided commit timestamp for a set of prepared gids in one
    /// step (the 2PC coordinator publishes all participants atomically,
    /// before any `COMMIT PREPARED` is sent).
    pub fn publish_all<'a>(&self, gids: impl IntoIterator<Item = &'a str>, ts: u64) {
        let mut d = self.decided.lock();
        for g in gids {
            d.insert(g.to_string(), ts);
        }
    }

    /// Decided timestamp for a still-prepared gid, if any.
    pub fn decided(&self, gid: &str) -> Option<u64> {
        self.decided.lock().get(gid).copied()
    }

    /// Consume the decided timestamp when the prepared transaction finishes.
    fn take(&self, gid: &str) -> Option<u64> {
        self.decided.lock().remove(gid)
    }
}

/// An MVCC snapshot: which transactions' effects are visible.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Every xid < xmin is finished.
    pub xmin: Xid,
    /// Every xid >= xmax had not started.
    pub xmax: Xid,
    /// In-progress xids in `[xmin, xmax)` at snapshot time (sorted).
    pub active: Vec<Xid>,
    /// The observing transaction's own xid (0 when read-only/implicit).
    pub my_xid: Xid,
    /// Distributed snapshot token: when set, visibility ignores the local
    /// active set and evaluates against the shared commit clock instead.
    pub as_of: Option<u64>,
}

impl Snapshot {
    /// Would a change made by `xid` be visible, given it ultimately committed?
    /// Own-transaction changes are always visible.
    pub fn considers_running(&self, xid: Xid) -> bool {
        if xid >= self.xmax {
            return true;
        }
        if xid < self.xmin {
            return false;
        }
        self.active.binary_search(&xid).is_ok()
    }
}

#[derive(Debug, Default)]
struct TxnTable {
    status: HashMap<Xid, TxStatus>,
    active: BTreeSet<Xid>,
    /// gid → xid for prepared transactions.
    prepared: HashMap<String, Xid>,
    /// xid → commit-clock timestamp, recorded at commit.
    commit_ts: HashMap<Xid, u64>,
    /// Pre-assigned commit timestamps (the 2PC coordinator stamps its own
    /// local transaction half with the distributed decision's timestamp).
    staged: HashMap<Xid, u64>,
}

/// Engine-wide transaction state.
#[derive(Debug)]
pub struct TxnManager {
    next_xid: AtomicU64,
    inner: Mutex<TxnTable>,
    /// Commit clock; engine-local by default, swapped for one shared
    /// cluster-wide instance by the distributed layer.
    clock: Mutex<Arc<CommitClock>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager {
            next_xid: AtomicU64::new(1),
            inner: Mutex::new(TxnTable::default()),
            clock: Mutex::new(Arc::new(CommitClock::default())),
        }
    }
}

impl TxnManager {
    /// Start a transaction: allocate an xid and mark it in progress.
    pub fn begin(&self) -> Xid {
        let xid = self.next_xid.fetch_add(1, Ordering::Relaxed);
        let mut t = self.inner.lock();
        t.status.insert(xid, TxStatus::InProgress);
        t.active.insert(xid);
        xid
    }

    /// Take an MVCC snapshot for `my_xid` (pass [`INVALID_XID`] when outside a
    /// transaction).
    pub fn snapshot(&self, my_xid: Xid) -> Snapshot {
        let t = self.inner.lock();
        let xmax = self.next_xid.load(Ordering::Relaxed);
        let active: Vec<Xid> = t.active.iter().copied().filter(|&x| x != my_xid).collect();
        let xmin = active.first().copied().unwrap_or(xmax).min(if my_xid != INVALID_XID {
            my_xid
        } else {
            xmax
        });
        Snapshot { xmin, xmax, active, my_xid, as_of: None }
    }

    /// Take a snapshot pinned to a distributed snapshot token: visibility is
    /// evaluated against the shared commit clock instead of the local active
    /// set (see [`CommitClock`]).
    pub fn snapshot_at(&self, my_xid: Xid, token: u64) -> Snapshot {
        let mut snap = self.snapshot(my_xid);
        snap.as_of = Some(token);
        snap
    }

    /// Share a cluster-wide commit clock across engines (replaces the
    /// engine-local default).
    pub fn set_commit_clock(&self, clock: Arc<CommitClock>) {
        *self.clock.lock() = clock;
    }

    pub fn commit_clock(&self) -> Arc<CommitClock> {
        self.clock.lock().clone()
    }

    pub fn status(&self, xid: Xid) -> TxStatus {
        if xid == INVALID_XID {
            return TxStatus::Aborted;
        }
        self.inner
            .lock()
            .status
            .get(&xid)
            .copied()
            // unknown old xids were truncated away after commit
            .unwrap_or(TxStatus::Committed)
    }

    pub fn commit(&self, xid: Xid) {
        let clock = self.commit_clock();
        let mut t = self.inner.lock();
        // a force-aborted xid stays aborted (its effects were already undone)
        if t.status.get(&xid) == Some(&TxStatus::Aborted) {
            t.active.remove(&xid);
            t.staged.remove(&xid);
            return;
        }
        // Draw the timestamp while holding the table lock: a token reader
        // (who must take this lock to check status) can then never observe a
        // drawn-but-unrecorded commit, so any token issued before this
        // commit's timestamp stays strictly smaller than it.
        let ts = t.staged.remove(&xid).unwrap_or_else(|| clock.next());
        t.status.insert(xid, TxStatus::Committed);
        t.commit_ts.insert(xid, ts);
        t.active.remove(&xid);
    }

    pub fn abort(&self, xid: Xid) {
        let mut t = self.inner.lock();
        t.status.insert(xid, TxStatus::Aborted);
        t.active.remove(&xid);
        t.staged.remove(&xid);
    }

    /// Pre-assign the commit timestamp for a running transaction: the 2PC
    /// coordinator stamps its own local half with the distributed decision's
    /// timestamp so every node's half commits at the same clock instant.
    pub fn stage_commit_ts(&self, xid: Xid, ts: u64) {
        self.inner.lock().staged.insert(xid, ts);
    }

    /// Phase one of 2PC: transition `xid` to prepared under `gid`. The xid
    /// stays in the active set so concurrent snapshots keep treating it as
    /// running (its outcome is undecided).
    pub fn prepare(&self, xid: Xid, gid: &str) -> PgResult<()> {
        let mut t = self.inner.lock();
        if t.prepared.contains_key(gid) {
            return Err(PgError::new(
                ErrorCode::InvalidTransactionState,
                format!("transaction identifier \"{gid}\" is already in use"),
            ));
        }
        t.status.insert(xid, TxStatus::Prepared);
        t.prepared.insert(gid.to_string(), xid);
        Ok(())
    }

    /// Finish a prepared transaction. Returns its xid so the caller can
    /// release its locks.
    pub fn finish_prepared(&self, gid: &str, commit: bool) -> PgResult<Xid> {
        let clock = self.commit_clock();
        // Consume any coordinator-decided timestamp before taking the table
        // lock (lock order is table → registry, never the reverse).
        let decided = clock.take(gid);
        let mut t = self.inner.lock();
        let Some(xid) = t.prepared.remove(gid) else {
            drop(t);
            if let Some(ts) = decided {
                clock.publish_all([gid], ts);
            }
            return Err(PgError::new(
                ErrorCode::InvalidTransactionState,
                format!("prepared transaction with identifier \"{gid}\" does not exist"),
            ));
        };
        if commit {
            let ts = decided.unwrap_or_else(|| clock.next());
            t.status.insert(xid, TxStatus::Committed);
            t.commit_ts.insert(xid, ts);
        } else {
            t.status.insert(xid, TxStatus::Aborted);
        }
        t.active.remove(&xid);
        Ok(xid)
    }

    /// Token visibility: had `xid` committed with a timestamp `<= token`?
    ///
    /// Unknown xids (truncated after commit, or WAL-restored without their
    /// timestamps) count as infinitely old commits. A still-prepared xid is
    /// visible iff the 2PC coordinator already published its decided
    /// timestamp at or before the token — that is what makes a multi-node
    /// commit atomic under tokens: the registry entry and the applied
    /// `commit_ts` carry the same timestamp.
    pub fn committed_at(&self, xid: Xid, token: u64) -> bool {
        if xid == INVALID_XID {
            return false;
        }
        let clock = self.commit_clock();
        let t = self.inner.lock();
        match t.status.get(&xid).copied() {
            // truncated/restored commit: infinitely old
            None => true,
            Some(TxStatus::Committed) => t.commit_ts.get(&xid).copied().unwrap_or(0) <= token,
            Some(TxStatus::Prepared) => {
                // reverse lookup; the prepared map only holds in-flight 2PCs
                t.prepared
                    .iter()
                    .find(|(_, &x)| x == xid)
                    .and_then(|(gid, _)| clock.decided(gid))
                    .is_some_and(|c| c <= token)
            }
            Some(TxStatus::InProgress) | Some(TxStatus::Aborted) => false,
        }
    }

    /// Gids of all currently prepared transactions (the recovery daemon's
    /// `pg_prepared_xacts` view).
    pub fn prepared_gids(&self) -> Vec<String> {
        let t = self.inner.lock();
        let mut v: Vec<String> = t.prepared.keys().cloned().collect();
        v.sort();
        v
    }

    /// Oldest xid any active snapshot could still need (vacuum horizon).
    pub fn oldest_active_xid(&self) -> Xid {
        let t = self.inner.lock();
        t.active.iter().next().copied().unwrap_or_else(|| self.next_xid.load(Ordering::Relaxed))
    }

    /// Number of in-progress (incl. prepared) transactions.
    pub fn active_count(&self) -> usize {
        self.inner.lock().active.len()
    }
}

/// MVCC visibility: is a tuple with the given `xmin`/`xmax` visible to `snap`?
pub fn tuple_visible(txns: &TxnManager, snap: &Snapshot, xmin: Xid, xmax: Xid) -> bool {
    // Distributed snapshot token: ignore the local active set entirely and
    // ask "had this commit happened at the token's instant?" — the same
    // question on every node, so a multi-node commit is either visible
    // everywhere or nowhere.
    if let Some(token) = snap.as_of {
        let inserted_visible =
            (xmin == snap.my_xid && xmin != INVALID_XID) || txns.committed_at(xmin, token);
        if !inserted_visible {
            return false;
        }
        if xmax == INVALID_XID {
            return true;
        }
        if xmax == snap.my_xid {
            return false;
        }
        return !txns.committed_at(xmax, token);
    }
    // Inserted by me? visible unless I also deleted it.
    let inserted_visible = if xmin == snap.my_xid && xmin != INVALID_XID {
        true
    } else if snap.considers_running(xmin) {
        false
    } else {
        txns.status(xmin) == TxStatus::Committed
    };
    if !inserted_visible {
        return false;
    }
    if xmax == INVALID_XID {
        return true;
    }
    // Deleted by me? gone.
    if xmax == snap.my_xid && xmax != INVALID_XID {
        return false;
    }
    // Deleter still running (or prepared) at snapshot time → still visible.
    if snap.considers_running(xmax) {
        return true;
    }
    match txns.status(xmax) {
        TxStatus::Committed => false,
        // prepared deleter: outcome unknown, row stays visible
        TxStatus::Prepared | TxStatus::InProgress => true,
        TxStatus::Aborted => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_isolation_basics() {
        let tm = TxnManager::default();
        let t1 = tm.begin();
        let snap_before = tm.snapshot(INVALID_XID);
        assert!(snap_before.considers_running(t1));
        tm.commit(t1);
        // old snapshot still treats t1 as running (repeatable within stmt)
        assert!(snap_before.considers_running(t1));
        let snap_after = tm.snapshot(INVALID_XID);
        assert!(!snap_after.considers_running(t1));
        assert_eq!(tm.status(t1), TxStatus::Committed);
    }

    #[test]
    fn visibility_rules() {
        let tm = TxnManager::default();
        let writer = tm.begin();
        let reader_snap = tm.snapshot(INVALID_XID);
        // uncommitted insert invisible to others
        assert!(!tuple_visible(&tm, &reader_snap, writer, INVALID_XID));
        // ...but visible to itself
        let own_snap = tm.snapshot(writer);
        assert!(tuple_visible(&tm, &own_snap, writer, INVALID_XID));
        tm.commit(writer);
        let fresh = tm.snapshot(INVALID_XID);
        assert!(tuple_visible(&tm, &fresh, writer, INVALID_XID));
    }

    #[test]
    fn delete_visibility() {
        let tm = TxnManager::default();
        let inserter = tm.begin();
        tm.commit(inserter);
        let deleter = tm.begin();
        let concurrent = tm.snapshot(INVALID_XID);
        // deleter in progress: row still visible to others
        assert!(tuple_visible(&tm, &concurrent, inserter, deleter));
        // deleter sees its own delete
        let own = tm.snapshot(deleter);
        assert!(!tuple_visible(&tm, &own, inserter, deleter));
        tm.commit(deleter);
        let after = tm.snapshot(INVALID_XID);
        assert!(!tuple_visible(&tm, &after, inserter, deleter));
        // old snapshot taken during delete still sees the row
        assert!(tuple_visible(&tm, &concurrent, inserter, deleter));
    }

    #[test]
    fn aborted_delete_leaves_row_visible() {
        let tm = TxnManager::default();
        let inserter = tm.begin();
        tm.commit(inserter);
        let deleter = tm.begin();
        tm.abort(deleter);
        let snap = tm.snapshot(INVALID_XID);
        assert!(tuple_visible(&tm, &snap, inserter, deleter));
    }

    #[test]
    fn prepared_transactions_lifecycle() {
        let tm = TxnManager::default();
        let xid = tm.begin();
        tm.prepare(xid, "gid_1").unwrap();
        assert_eq!(tm.status(xid), TxStatus::Prepared);
        assert_eq!(tm.prepared_gids(), vec!["gid_1".to_string()]);
        // prepared writer's rows are not yet visible
        let snap = tm.snapshot(INVALID_XID);
        assert!(!tuple_visible(&tm, &snap, xid, INVALID_XID));
        // duplicate gid rejected
        let other = tm.begin();
        assert!(tm.prepare(other, "gid_1").is_err());
        assert_eq!(tm.finish_prepared("gid_1", true).unwrap(), xid);
        assert_eq!(tm.status(xid), TxStatus::Committed);
        assert!(tm.finish_prepared("gid_1", true).is_err());
        let fresh = tm.snapshot(INVALID_XID);
        assert!(tuple_visible(&tm, &fresh, xid, INVALID_XID));
    }

    #[test]
    fn prepared_deleter_keeps_row_visible() {
        let tm = TxnManager::default();
        let ins = tm.begin();
        tm.commit(ins);
        let del = tm.begin();
        tm.prepare(del, "g").unwrap();
        let snap = tm.snapshot(INVALID_XID);
        assert!(tuple_visible(&tm, &snap, ins, del));
        tm.finish_prepared("g", true).unwrap();
        let snap2 = tm.snapshot(INVALID_XID);
        assert!(!tuple_visible(&tm, &snap2, ins, del));
    }

    #[test]
    fn token_visibility_orders_commits() {
        let tm = TxnManager::default();
        let clock = tm.commit_clock();
        let a = tm.begin();
        let before = clock.now();
        tm.commit(a);
        let after = clock.now();
        // a token drawn before the commit never sees it; drawn after, always
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, before), a, INVALID_XID));
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, after), a, INVALID_XID));
        // delete ordering follows the same rule
        let del = tm.begin();
        let mid = clock.now();
        tm.commit(del);
        let end = clock.now();
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, mid), a, del));
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, end), a, del));
    }

    #[test]
    fn token_sees_decided_prepared_commits() {
        let tm = TxnManager::default();
        let clock = tm.commit_clock();
        let xid = tm.begin();
        tm.prepare(xid, "g1").unwrap();
        let t0 = clock.now();
        // undecided prepared txn: invisible at any token
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, t0), xid, INVALID_XID));
        // coordinator decides and publishes; locally still prepared, yet a
        // token at/after the decision already sees the rows
        let c = clock.next();
        clock.publish_all(["g1"], c);
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, c), xid, INVALID_XID));
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, t0), xid, INVALID_XID));
        // applying the prepared commit keeps the same timestamp
        tm.finish_prepared("g1", true).unwrap();
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, c), xid, INVALID_XID));
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, t0), xid, INVALID_XID));
    }

    #[test]
    fn token_treats_unknown_xids_as_ancient() {
        // truncated/WAL-restored commits carry no timestamp: visible to all
        let tm = TxnManager::default();
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, 0), 12345, INVALID_XID));
    }

    #[test]
    fn shared_clock_orders_across_managers() {
        let clock = Arc::new(CommitClock::default());
        let a = TxnManager::default();
        let b = TxnManager::default();
        a.set_commit_clock(clock.clone());
        b.set_commit_clock(clock.clone());
        let xa = a.begin();
        let xb = b.begin();
        a.commit(xa);
        let mid = clock.now();
        b.commit(xb);
        // one token, evaluated on two engines, cuts the commit order cleanly
        assert!(tuple_visible(&a, &a.snapshot_at(INVALID_XID, mid), xa, INVALID_XID));
        assert!(!tuple_visible(&b, &b.snapshot_at(INVALID_XID, mid), xb, INVALID_XID));
    }

    #[test]
    fn staged_timestamp_stamps_local_half() {
        let tm = TxnManager::default();
        let clock = tm.commit_clock();
        let xid = tm.begin();
        let c = clock.next();
        tm.stage_commit_ts(xid, c);
        // the clock moves on before the local half commits
        let _ = clock.next();
        tm.commit(xid);
        assert!(tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, c), xid, INVALID_XID));
        assert!(!tuple_visible(&tm, &tm.snapshot_at(INVALID_XID, c - 1), xid, INVALID_XID));
    }

    #[test]
    fn vacuum_horizon() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        assert_eq!(tm.oldest_active_xid(), a);
        tm.commit(a);
        assert_eq!(tm.oldest_active_xid(), b);
        tm.commit(b);
        assert!(tm.oldest_active_xid() > b);
    }
}
