//! Table storage: the MVCC heap (PostgreSQL's default layout) and an
//! append-only columnar store (the "columnar storage" capability Table 2
//! requires for data-warehousing workloads).

use crate::error::{ErrorCode, PgError, PgResult};
use crate::stripe::Stripe;
use crate::txn::{tuple_visible, Snapshot, TxStatus, TxnManager, Xid, INVALID_XID};
use crate::types::Row;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// One heap tuple version. `data` is immutable while the version is live;
/// updates append a new version sharing the same `row_id`.
#[derive(Debug)]
pub struct HeapTuple {
    /// Stable logical row identity, shared across MVCC versions.
    pub row_id: u64,
    pub xmin: Xid,
    xmax: AtomicU64,
    /// [`DEAD`] and [`XMIN_COMMITTED`], one byte where a `bool` was.
    flags: AtomicU8,
    pub data: Row,
}

/// Tombstone set by vacuum. The slot itself stays, so slot numbers (the
/// version chains' indexes) and `slot_count()` page math do not shift; the
/// row image is freed: a dead slot's `data` is the empty row.
const DEAD: u8 = 1;

/// PostgreSQL's `HEAP_XMIN_COMMITTED` hint: a visibility check found `xmin`
/// committed, so later checks need not ask the transaction manager. A commit
/// is final, so the hint never goes stale. It is set only by a check that
/// read the committed status itself, never for the reader's own xid (which
/// may still abort), and it answers only whether `xmin` committed: a
/// snapshot that was taken while `xmin` ran still treats it as running.
const XMIN_COMMITTED: u8 = 2;

impl HeapTuple {
    pub fn xmax(&self) -> Xid {
        self.xmax.load(Ordering::Acquire)
    }

    pub fn is_dead(&self) -> bool {
        self.flags.load(Ordering::Acquire) & DEAD != 0
    }

    /// [`tuple_visible`] for this version, and not dead. A version with no
    /// deleter whose xmin is hinted committed answers from `snap` alone: it
    /// is visible unless `snap` treats `xmin` as running. Every other check
    /// is `tuple_visible`'s, and one that proves `xmin` committed sets the
    /// hint. A token snapshot (`as_of`) asks the commit clock and never reads
    /// or sets the hint.
    fn visible(&self, txns: &TxnManager, snap: &Snapshot) -> bool {
        let flags = self.flags.load(Ordering::Acquire);
        if flags & DEAD != 0 {
            return false;
        }
        let xmax = self.xmax();
        if xmax != INVALID_XID || snap.as_of.is_some() {
            return tuple_visible(txns, snap, self.xmin, xmax);
        }
        if flags & XMIN_COMMITTED != 0 {
            return !snap.considers_running(self.xmin);
        }
        let visible = tuple_visible(txns, snap, self.xmin, INVALID_XID);
        // visible with no deleter, and not the reader's own insert: the
        // check found xmin committed
        if visible && self.xmin != snap.my_xid {
            self.flags.fetch_or(XMIN_COMMITTED, Ordering::Release);
        }
        visible
    }
}

/// Result of attempting to expire (delete/update) a tuple version.
#[derive(Debug, PartialEq, Eq)]
pub enum ExpireOutcome {
    /// xmax set; the caller's transaction now owns the deletion.
    Expired,
    /// Another in-progress/prepared transaction already set xmax. With row
    /// locks held this indicates a logic error upstream.
    BusyBy(Xid),
    /// A committed transaction already deleted it (the version is stale).
    AlreadyDeleted(Xid),
}

#[derive(Default)]
struct HeapInner {
    tuples: Vec<HeapTuple>,
    /// row_id → slot indexes of its versions (old → new).
    versions: HashMap<u64, Vec<u32>>,
}

/// MVCC heap for one table.
pub struct HeapStore {
    inner: RwLock<HeapInner>,
    next_row_id: AtomicU64,
    live_estimate: AtomicI64,
    dead_estimate: AtomicI64,
}

impl Default for HeapStore {
    fn default() -> Self {
        HeapStore {
            inner: RwLock::new(HeapInner::default()),
            next_row_id: AtomicU64::new(1),
            live_estimate: AtomicI64::new(0),
            dead_estimate: AtomicI64::new(0),
        }
    }
}

impl HeapStore {
    /// The stable id of a new logical row.
    pub(crate) fn new_row_id(&self) -> u64 {
        self.next_row_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert a new logical row; returns its row id.
    #[cfg(test)]
    pub fn insert(&self, xid: Xid, data: Row) -> u64 {
        let row_id = self.new_row_id();
        self.insert_version(row_id, xid, data);
        self.adjust_live(1);
        row_id
    }

    /// Insert a specific version (update chains, WAL replay, shard moves).
    pub fn insert_version(&self, row_id: u64, xid: Xid, data: Row) {
        let mut inner = self.inner.write();
        let slot = inner.tuples.len() as u32;
        inner.tuples.push(HeapTuple {
            row_id,
            xmin: xid,
            xmax: AtomicU64::new(INVALID_XID),
            flags: AtomicU8::new(0),
            data,
        });
        inner.versions.entry(row_id).or_default().push(slot);
        // keep next_row_id ahead of replayed ids
        let next = self.next_row_id.load(Ordering::Relaxed);
        if row_id >= next {
            self.next_row_id.store(row_id + 1, Ordering::Relaxed);
        }
    }

    /// Does `row_id` have any version here, live or not?
    pub fn contains(&self, row_id: u64) -> bool {
        self.inner.read().versions.contains_key(&row_id)
    }

    /// Run `f` over every visible tuple under `snap`.
    pub fn scan_visible<F: FnMut(&HeapTuple)>(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        mut f: F,
    ) {
        // recursive: a self-join scans the heap again inside this scan
        let inner = self.inner.read_recursive();
        for t in &inner.tuples {
            if t.visible(txns, snap) {
                f(t);
            }
        }
    }

    /// Lend the visible version of `row_id` under `snap`, if any, to `f`
    /// (which runs under the heap's read lock).
    pub fn with_visible_version<R>(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        row_id: u64,
        f: impl FnOnce(&Row) -> R,
    ) -> Option<R> {
        // recursive: `f` may run a pipeline that reads this heap again
        let inner = self.inner.read_recursive();
        let slots = inner.versions.get(&row_id)?;
        // newest first: at most one version is visible to a snapshot
        for &slot in slots.iter().rev() {
            let t = &inner.tuples[slot as usize];
            if t.visible(txns, snap) {
                return Some(f(&t.data));
            }
        }
        None
    }

    /// The visible version of `row_id` under `snap`, if any: a new row spine
    /// whose text and JSON payloads are the heap's own.
    pub fn visible_version(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        row_id: u64,
    ) -> Option<Row> {
        self.with_visible_version(txns, snap, row_id, Row::clone)
    }

    /// Expire the currently-visible version of `row_id` (the delete half of
    /// DELETE/UPDATE). Caller must hold the row lock.
    pub fn expire(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        row_id: u64,
        xid: Xid,
    ) -> PgResult<ExpireOutcome> {
        let inner = self.inner.read();
        let slots = inner
            .versions
            .get(&row_id)
            .ok_or_else(|| PgError::internal("expire: unknown row id"))?;
        for &slot in slots.iter().rev() {
            let t = &inner.tuples[slot as usize];
            if !t.visible(txns, snap) {
                continue;
            }
            // try to claim the version
            let old = t.xmax.load(Ordering::Acquire);
            if old != INVALID_XID && old != xid {
                match txns.status(old) {
                    TxStatus::Committed => return Ok(ExpireOutcome::AlreadyDeleted(old)),
                    TxStatus::InProgress | TxStatus::Prepared => {
                        return Ok(ExpireOutcome::BusyBy(old))
                    }
                    TxStatus::Aborted => {}
                }
            }
            t.xmax.store(xid, Ordering::Release);
            return Ok(ExpireOutcome::Expired);
        }
        Ok(ExpireOutcome::AlreadyDeleted(INVALID_XID))
    }

    /// Versions that could still be (or become) live to transaction `xid`:
    /// insertion not aborted, and not deleted by a committed transaction or
    /// by `xid` itself. Used by unique-constraint checks, which must also
    /// conflict with concurrent uncommitted inserts.
    pub fn live_or_pending_versions(
        &self,
        txns: &TxnManager,
        row_id: u64,
        xid: Xid,
    ) -> Vec<Row> {
        let inner = self.inner.read();
        let Some(slots) = inner.versions.get(&row_id) else { return Vec::new() };
        let mut out = Vec::new();
        for &slot in slots {
            let t = &inner.tuples[slot as usize];
            if t.is_dead() || txns.status(t.xmin) == TxStatus::Aborted {
                continue;
            }
            let xmax = t.xmax();
            if xmax != INVALID_XID && (xmax == xid || txns.status(xmax) == TxStatus::Committed) {
                continue;
            }
            out.push(t.data.clone());
        }
        out
    }

    /// Approximate live row count (planner statistics).
    pub fn live_estimate(&self) -> u64 {
        self.live_estimate.load(Ordering::Relaxed).max(0) as u64
    }

    pub fn dead_estimate(&self) -> u64 {
        self.dead_estimate.load(Ordering::Relaxed).max(0) as u64
    }

    pub fn adjust_live(&self, delta: i64) {
        self.live_estimate.fetch_add(delta, Ordering::Relaxed);
        if delta < 0 {
            self.dead_estimate.fetch_add(-delta, Ordering::Relaxed);
        }
    }

    /// Total slots including dead versions (page math uses this: dead
    /// versions occupy space until vacuumed — the bloat the paper notes
    /// auto-vacuum must keep up with).
    pub fn slot_count(&self) -> u64 {
        self.inner.read().tuples.len() as u64
    }

    /// Vacuum: tombstone versions no snapshot can still see and take their
    /// row images out of the heap. Returns the reclaimed `(row_id, data)`
    /// pairs so the caller can clean indexes; dropping them frees the images.
    pub fn vacuum(&self, txns: &TxnManager, horizon: Xid) -> Vec<(u64, Row)> {
        let mut inner = self.inner.write();
        let mut reclaimed = Vec::new();
        let HeapInner { tuples, versions } = &mut *inner;
        for t in tuples.iter_mut() {
            if t.is_dead() {
                continue;
            }
            let xmax = t.xmax();
            let dead = if txns.status(t.xmin) == TxStatus::Aborted {
                true
            } else {
                xmax != INVALID_XID
                    && xmax < horizon
                    && txns.status(xmax) == TxStatus::Committed
            };
            if dead {
                t.flags.fetch_or(DEAD, Ordering::Release);
                reclaimed.push((t.row_id, std::mem::take(&mut t.data)));
            }
        }
        // drop dead slots from version chains
        for slots in versions.values_mut() {
            slots.retain(|&s| !tuples[s as usize].is_dead());
        }
        versions.retain(|_, v| !v.is_empty());
        self.dead_estimate
            .fetch_sub(reclaimed.len() as i64, Ordering::Relaxed);
        reclaimed
    }

    /// Non-transactional clear (TRUNCATE under an exclusive table lock).
    pub fn truncate(&self) {
        let mut inner = self.inner.write();
        inner.tuples.clear();
        inner.versions.clear();
        self.live_estimate.store(0, Ordering::Relaxed);
        self.dead_estimate.store(0, Ordering::Relaxed);
    }
}

/// Append-only column store. Updates and deletes are unsupported, matching
/// the paper's note that the columnar path is for analytical append-mostly
/// data. Each write appends one immutable [`Stripe`], shared with the WAL
/// record that logged it.
pub struct ColumnarStore {
    stripes: RwLock<Vec<StoredStripe>>,
    live_estimate: AtomicI64,
    next_seq: AtomicU64,
}

struct StoredStripe {
    /// Stable stripe sequence number (per table). WAL records carry it so
    /// replay and shard-move catch-up can deduplicate stripes.
    seq: u64,
    xmin: Xid,
    stripe: Arc<Stripe>,
}

impl Default for ColumnarStore {
    fn default() -> Self {
        ColumnarStore {
            stripes: RwLock::new(Vec::new()),
            live_estimate: AtomicI64::new(0),
            next_seq: AtomicU64::new(1),
        }
    }
}

fn stripe_visible(txns: &TxnManager, snap: &Snapshot, xmin: Xid) -> bool {
    if xmin == snap.my_xid && xmin != INVALID_XID {
        true
    } else if snap.considers_running(xmin) {
        false
    } else {
        txns.status(xmin) == TxStatus::Committed
    }
}

impl ColumnarStore {
    /// The sequence number of a new stripe.
    pub(crate) fn new_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Append `stripe` as stripe `seq`: a new one, or the source's under WAL
    /// replay and shard-move copy, which keep stripe identity.
    pub fn append_with_seq(
        &self,
        xid: Xid,
        seq: u64,
        stripe: Arc<Stripe>,
        column_count: usize,
    ) -> PgResult<()> {
        if stripe.columns().len() != column_count {
            return Err(PgError::internal("columnar append: row arity mismatch"));
        }
        let n = stripe.rows();
        self.stripes.write().push(StoredStripe { seq, xmin: xid, stripe });
        self.live_estimate.fetch_add(n as i64, Ordering::Relaxed);
        // keep locally-generated seqs ahead of replayed ones
        let next = self.next_seq.load(Ordering::Relaxed);
        if seq >= next {
            self.next_seq.store(seq + 1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Is a stripe with sequence number `seq` stored here?
    pub fn has_seq(&self, seq: u64) -> bool {
        // `next_seq` is past every stored seq, so redo in log order, whose
        // seqs only grow, answers without scanning
        seq < self.next_seq.load(Ordering::Relaxed)
            && self.stripes.read().iter().any(|s| s.seq == seq)
    }

    /// Walk visible stripes without materialising rows: `f(seq, stripe)`.
    /// This is the store's one read primitive: the executor's stripe walk
    /// slices each stripe into `ColumnBatch`es that borrow only the columns
    /// it was asked for, and the copies below are built on it.
    pub fn for_each_visible_stripe(
        &self,
        txns: &TxnManager,
        snap: &Snapshot,
        mut f: impl FnMut(u64, &Arc<Stripe>),
    ) {
        // recursive: a self-join scans the stripes again inside this walk
        let stripes = self.stripes.read_recursive();
        for s in stripes.iter() {
            if stripe_visible(txns, snap, s.xmin) {
                f(s.seq, &s.stripe);
            }
        }
    }

    pub fn live_estimate(&self) -> u64 {
        self.live_estimate.load(Ordering::Relaxed).max(0) as u64
    }

    pub fn truncate(&self) {
        self.stripes.write().clear();
        self.live_estimate.store(0, Ordering::Relaxed);
    }
}

/// The storage for one table: heap or columnar.
pub enum TableStore {
    Heap(HeapStore),
    Columnar(ColumnarStore),
}

impl TableStore {
    pub fn heap(&self) -> PgResult<&HeapStore> {
        match self {
            TableStore::Heap(h) => Ok(h),
            TableStore::Columnar(_) => Err(PgError::new(
                ErrorCode::FeatureNotSupported,
                "operation requires heap storage (columnar tables are append-only)",
            )),
        }
    }

    pub fn columnar(&self) -> PgResult<&ColumnarStore> {
        match self {
            TableStore::Columnar(c) => Ok(c),
            TableStore::Heap(_) => {
                Err(PgError::internal("operation requires columnar storage"))
            }
        }
    }

    /// Visible rows regardless of storage layout (full materialisation).
    /// Shard moves and create_distributed_table row migration use this so
    /// columnar shell tables relocate like heap ones.
    pub fn scan_visible_rows(&self, txns: &TxnManager, snap: &Snapshot) -> Vec<Row> {
        match self {
            TableStore::Heap(h) => {
                let mut out = Vec::new();
                h.scan_visible(txns, snap, |t| out.push(t.data.clone()));
                out
            }
            TableStore::Columnar(c) => {
                let mut out = Vec::new();
                c.for_each_visible_stripe(txns, snap, |_, stripe| out.extend(stripe.to_rows()));
                out
            }
        }
    }

    pub fn live_estimate(&self) -> u64 {
        match self {
            TableStore::Heap(h) => h.live_estimate(),
            TableStore::Columnar(c) => c.live_estimate(),
        }
    }

    pub fn truncate(&self) {
        match self {
            TableStore::Heap(h) => h.truncate(),
            TableStore::Columnar(c) => c.truncate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Datum;

    fn row(v: i64) -> Row {
        vec![Datum::Int(v)]
    }

    #[test]
    fn insert_scan_visibility() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        heap.insert(x1, row(1));
        // invisible to a concurrent snapshot
        let snap = tm.snapshot(INVALID_XID);
        let mut seen = 0;
        heap.scan_visible(&tm, &snap, |_| seen += 1);
        assert_eq!(seen, 0);
        tm.commit(x1);
        let snap = tm.snapshot(INVALID_XID);
        let mut seen = 0;
        heap.scan_visible(&tm, &snap, |_| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn update_creates_version_chain() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        let rid = heap.insert(x1, row(1));
        tm.commit(x1);

        let x2 = tm.begin();
        let snap2 = tm.snapshot(x2);
        assert_eq!(heap.expire(&tm, &snap2, rid, x2).unwrap(), ExpireOutcome::Expired);
        heap.insert_version(rid, x2, row(2));
        // old snapshot still sees v1
        let old_snap = tm.snapshot(INVALID_XID);
        assert_eq!(heap.visible_version(&tm, &old_snap, rid), Some(row(1)));
        // updater sees v2
        assert_eq!(heap.visible_version(&tm, &tm.snapshot(x2), rid), Some(row(2)));
        tm.commit(x2);
        assert_eq!(heap.visible_version(&tm, &tm.snapshot(INVALID_XID), rid), Some(row(2)));
    }

    #[test]
    fn expire_conflicts_reported() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        let rid = heap.insert(x1, row(1));
        tm.commit(x1);

        let x2 = tm.begin();
        heap.expire(&tm, &tm.snapshot(x2), rid, x2).unwrap();
        // concurrent deleter sees Busy
        let x3 = tm.begin();
        assert_eq!(
            heap.expire(&tm, &tm.snapshot(x3), rid, x3).unwrap(),
            ExpireOutcome::BusyBy(x2)
        );
        tm.commit(x2);
        // after commit, a fresh snapshot finds nothing to expire
        let snap3 = tm.snapshot(x3);
        assert_eq!(
            heap.expire(&tm, &snap3, rid, x3).unwrap(),
            ExpireOutcome::AlreadyDeleted(INVALID_XID)
        );
        tm.abort(x3);
    }

    #[test]
    fn aborted_expire_is_retaken() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        let rid = heap.insert(x1, row(1));
        tm.commit(x1);
        let x2 = tm.begin();
        heap.expire(&tm, &tm.snapshot(x2), rid, x2).unwrap();
        tm.abort(x2);
        // row is still visible; a new txn can expire it
        let x3 = tm.begin();
        let snap = tm.snapshot(x3);
        assert_eq!(heap.visible_version(&tm, &snap, rid), Some(row(1)));
        assert_eq!(heap.expire(&tm, &snap, rid, x3).unwrap(), ExpireOutcome::Expired);
    }

    #[test]
    fn vacuum_reclaims_dead_versions() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        let rid = heap.insert(x1, row(1));
        tm.commit(x1);
        let x2 = tm.begin();
        heap.expire(&tm, &tm.snapshot(x2), rid, x2).unwrap();
        heap.insert_version(rid, x2, row(2));
        tm.commit(x2);
        assert_eq!(heap.slot_count(), 2);
        let reclaimed = heap.vacuum(&tm, tm.oldest_active_xid());
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].1, row(1));
        // the tombstone keeps its slot, the image is gone
        assert_eq!(heap.slot_count(), 2);
        {
            let inner = heap.inner.read();
            assert!(inner.tuples[0].is_dead() && inner.tuples[0].data.is_empty());
            assert!(!inner.tuples[1].is_dead() && inner.tuples[1].data == row(2));
        }
        // live version survives
        assert_eq!(heap.visible_version(&tm, &tm.snapshot(INVALID_XID), rid), Some(row(2)));
        // re-vacuum finds nothing
        assert!(heap.vacuum(&tm, tm.oldest_active_xid()).is_empty());
    }

    #[test]
    fn vacuum_respects_horizon() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        let rid = heap.insert(x1, row(1));
        tm.commit(x1);
        let old_reader = tm.begin(); // holds the horizon back
        let x2 = tm.begin();
        heap.expire(&tm, &tm.snapshot(x2), rid, x2).unwrap();
        tm.commit(x2);
        assert!(heap.vacuum(&tm, tm.oldest_active_xid()).is_empty());
        tm.commit(old_reader);
        assert_eq!(heap.vacuum(&tm, tm.oldest_active_xid()).len(), 1);
    }

    #[test]
    fn vacuum_reclaims_aborted_inserts() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        heap.insert(x1, row(1));
        tm.abort(x1);
        assert_eq!(heap.vacuum(&tm, tm.oldest_active_xid()).len(), 1);
    }

    /// Whether each version of the heap's tuples carries the committed-xmin
    /// hint, in slot order.
    fn hints(heap: &HeapStore) -> Vec<bool> {
        let inner = heap.inner.read();
        inner.tuples.iter().map(|t| t.flags.load(Ordering::Acquire) & XMIN_COMMITTED != 0).collect()
    }

    /// How many of the heap's versions `snap` sees.
    fn seen(heap: &HeapStore, tm: &TxnManager, snap: &Snapshot) -> usize {
        let mut n = 0;
        heap.scan_visible(tm, snap, |_| n += 1);
        n
    }

    #[test]
    fn a_snapshot_from_before_the_commit_ignores_the_hint() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        heap.insert(x1, row(1));
        let before = tm.snapshot(INVALID_XID);
        tm.commit(x1);
        assert_eq!(hints(&heap), [false]);
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 1);
        assert_eq!(hints(&heap), [true]);
        // x1 ran when `before` was taken: still invisible to it
        assert_eq!(seen(&heap, &tm, &before), 0);
        assert_eq!(heap.visible_version(&tm, &before, 1), None);
        assert_eq!(heap.visible_version(&tm, &tm.snapshot(INVALID_XID), 1), Some(row(1)));
        // a deleter takes the slow path again, hint or not
        let x2 = tm.begin();
        assert_eq!(heap.expire(&tm, &tm.snapshot(x2), 1, x2).unwrap(), ExpireOutcome::Expired);
        tm.commit(x2);
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 0);
    }

    #[test]
    fn own_prepared_and_aborted_xmins_are_never_hinted() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        // the reader's own insert: visible to it, and it may still abort
        let own = tm.begin();
        heap.insert(own, row(1));
        assert_eq!(seen(&heap, &tm, &tm.snapshot(own)), 1);
        assert_eq!(hints(&heap), [false]);
        tm.abort(own);
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 0);
        // a prepared xmin: invisible, unhinted, until COMMIT PREPARED
        let prepared = tm.begin();
        heap.insert(prepared, row(2));
        tm.prepare(prepared, "g").unwrap();
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 0);
        // an aborted xmin, read by a snapshot taken after the abort
        let aborted = tm.begin();
        heap.insert(aborted, row(3));
        tm.abort(aborted);
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 0);
        assert_eq!(hints(&heap), [false, false, false]);
        tm.finish_prepared("g", true).unwrap();
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 1);
        assert_eq!(hints(&heap), [false, true, false]);
    }

    #[test]
    fn token_snapshots_ignore_the_hint() {
        let tm = TxnManager::default();
        let heap = HeapStore::default();
        let x1 = tm.begin();
        heap.insert(x1, row(1));
        let token = tm.commit_clock().now();
        tm.commit(x1);
        assert_eq!(seen(&heap, &tm, &tm.snapshot(INVALID_XID)), 1);
        assert_eq!(hints(&heap), [true]);
        // the token predates the commit: the commit clock says no
        assert_eq!(seen(&heap, &tm, &tm.snapshot_at(INVALID_XID, token)), 0);
        let after = tm.commit_clock().now();
        assert_eq!(seen(&heap, &tm, &tm.snapshot_at(INVALID_XID, after)), 1);
    }

    /// The tombstone and the hint share one byte: a tuple is no bigger than
    /// its fields.
    #[test]
    fn the_hint_does_not_grow_a_tuple() {
        assert_eq!(std::mem::size_of::<HeapTuple>(), 56);
    }

    fn stripe(rows: Vec<Row>, types: &[sqlparse::ast::TypeName]) -> Arc<Stripe> {
        Arc::new(Stripe::from_rows(rows, types).unwrap())
    }

    /// The visible stripes as `(seq, rows)` pairs.
    fn stripe_rows(col: &ColumnarStore, tm: &TxnManager, snap: &Snapshot) -> Vec<(u64, Vec<Row>)> {
        let mut out = Vec::new();
        col.for_each_visible_stripe(tm, snap, |seq, stripe| out.push((seq, stripe.to_rows())));
        out
    }

    #[test]
    fn columnar_append_and_projection() {
        use sqlparse::ast::TypeName;
        let tm = TxnManager::default();
        let col = ColumnarStore::default();
        let x1 = tm.begin();
        let rows = vec![vec![Datum::Int(1), Datum::from_text("a")]];
        col.append_with_seq(x1, 1, stripe(rows, &[TypeName::Int, TypeName::Text]), 2).unwrap();
        tm.commit(x1);
        let snap = tm.snapshot(INVALID_XID);
        let mut rows = Vec::new();
        col.for_each_visible_stripe(&tm, &snap, |_, stripe| {
            let batch = crate::batch::ColumnBatch::from_stripe(stripe, 0, stripe.rows(), &[0]);
            let mut row = Vec::new();
            batch.gather(0, &mut row);
            rows.push(row);
        });
        assert_eq!(rows, vec![vec![Datum::Int(1), Datum::Null]]);
        let full = stripe_rows(&col, &tm, &snap);
        assert_eq!(full[0].1[0][1], Datum::from_text("a"));
    }

    #[test]
    fn columnar_uncommitted_invisible() {
        let tm = TxnManager::default();
        let col = ColumnarStore::default();
        let x1 = tm.begin();
        let int = [sqlparse::ast::TypeName::Int];
        col.append_with_seq(x1, 1, stripe(vec![row(1)], &int), 1).unwrap();
        assert!(stripe_rows(&col, &tm, &tm.snapshot(INVALID_XID)).is_empty());
        // own snapshot sees it
        assert_eq!(stripe_rows(&col, &tm, &tm.snapshot(x1)), vec![(1, vec![row(1)])]);
        // a stripe of another width is refused
        assert!(col.append_with_seq(x1, 2, stripe(vec![row(1)], &int), 2).is_err());
    }

    #[test]
    fn table_store_dispatch() {
        let heap = TableStore::Heap(HeapStore::default());
        assert!(heap.heap().is_ok());
        let col = TableStore::Columnar(ColumnarStore::default());
        assert!(col.heap().is_err());
        assert_eq!(col.live_estimate(), 0);
    }
}
