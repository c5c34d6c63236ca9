//! Simulated buffer pool.
//!
//! Tracks which simulated pages are memory-resident per relation and charges
//! disk time for misses. This is the mechanism that makes the paper's central
//! benchmark setup — "a single server cannot keep all the data in memory, but
//! Citus 4+1 can" — an emergent property of the model rather than a fudge
//! factor: each node's pool has finite capacity, so the same tables spill on
//! one node and fit on five.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Key for a cached relation (tables and indexes cache independently).
///
/// Columnar tables cache per column: `scan` assumes its page count is the
/// relation's full size (residency clamps to it), so projections that touch
/// different column subsets must not share one key — each column's pages are
/// a separate "relation" that warms and evicts on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufferKey {
    Table(u32),
    Index(u32),
    /// One column of a columnar table: `(table id, column ordinal)`.
    TableColumn(u32, u32),
}

#[derive(Debug, Default, Clone)]
struct Resident {
    pages: u64,
    /// LRU clock: larger = more recent.
    last_use: u64,
    /// Fractional misses accumulated by probabilistic point reads.
    miss_carry: f64,
}

#[derive(Debug, Default)]
struct PoolState {
    resident: HashMap<BufferKey, Resident>,
    /// Sum of `resident[*].pages`, maintained per access.
    total: u64,
    clock: u64,
}

impl PoolState {
    /// Advance the LRU clock and run one access against `key`'s entry:
    /// `touch` returns the entry's new resident page count (and whatever the
    /// access reports). Keeps `total` in step and evicts down to `cap`.
    fn access<T>(
        &mut self,
        key: BufferKey,
        cap: u64,
        touch: impl FnOnce(&mut Resident) -> (u64, T),
    ) -> T {
        self.clock += 1;
        let entry = self.resident.entry(key).or_default();
        entry.last_use = self.clock;
        let before = entry.pages;
        let (pages, out) = touch(entry);
        entry.pages = pages;
        self.total = self.total - before + pages;
        BufferPool::evict_to(self, cap);
        out
    }
}

/// Per-engine simulated buffer pool.
#[derive(Debug)]
pub struct BufferPool {
    /// Read on every access, written only by `set_capacity`; no other data
    /// is published through it.
    capacity: AtomicU64,
    state: Mutex<PoolState>,
}

impl BufferPool {
    /// A pool holding `capacity_pages` 8 KiB pages.
    pub fn new(capacity_pages: u64) -> Self {
        BufferPool {
            capacity: AtomicU64::new(capacity_pages),
            state: Mutex::new(PoolState::default()),
        }
    }

    pub fn capacity_pages(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resize the pool (benchmarks use this to model node memory).
    pub fn set_capacity(&self, pages: u64) {
        self.capacity.store(pages, Ordering::Relaxed);
        Self::evict_to(&mut self.state.lock(), pages);
    }

    /// Full scan of a relation of `rel_pages` pages. Returns the number of
    /// pages that missed (had to come from disk).
    pub fn scan(&self, key: BufferKey, rel_pages: u64) -> u64 {
        if rel_pages == 0 {
            return 0;
        }
        let cap = self.capacity_pages();
        self.state.lock().access(key, cap, |entry| {
            let hits = entry.pages.min(rel_pages);
            // the scan leaves as much of the relation resident as fits
            (rel_pages.min(cap), rel_pages - hits)
        })
    }

    /// Point access touching `touched` pages of a relation with `rel_pages`
    /// total pages (e.g. a B-tree descent). Misses are probabilistic in the
    /// resident fraction, accumulated deterministically.
    pub fn point_read(&self, key: BufferKey, rel_pages: u64, touched: u64) -> u64 {
        if rel_pages == 0 || touched == 0 {
            return 0;
        }
        let cap = self.capacity_pages();
        self.state.lock().access(key, cap, |entry| {
            let resident_frac = (entry.pages as f64 / rel_pages as f64).min(1.0);
            let expected_misses = touched as f64 * (1.0 - resident_frac);
            entry.miss_carry += expected_misses;
            let misses = entry.miss_carry.floor() as u64;
            entry.miss_carry -= misses as f64;
            // missed pages become resident
            ((entry.pages + misses).min(rel_pages).min(cap), misses)
        })
    }

    /// Writes dirty `pages` of the relation (grows residency; write-back I/O
    /// is charged to the background, as PostgreSQL's bgwriter does).
    pub fn write(&self, key: BufferKey, rel_pages: u64, pages: u64) {
        let cap = self.capacity_pages();
        self.state.lock().access(key, cap, |entry| {
            ((entry.pages + pages).min(rel_pages.max(pages)).min(cap), ())
        })
    }

    /// Drop cached pages of a relation (table dropped/truncated).
    pub fn forget(&self, key: BufferKey) {
        let mut s = self.state.lock();
        if let Some(r) = s.resident.remove(&key) {
            s.total -= r.pages;
        }
    }

    /// Pages currently resident for `key`.
    pub fn resident_pages(&self, key: BufferKey) -> u64 {
        self.state.lock().resident.get(&key).map(|r| r.pages).unwrap_or(0)
    }

    pub fn total_resident(&self) -> u64 {
        self.state.lock().total
    }

    /// Evict pages proportionally across relations until under capacity.
    ///
    /// Proportional (rather than whole-relation LRU) eviction makes the model
    /// insensitive to how a dataset is cut into tables: one 100-page table
    /// and twenty 5-page shards keep the same resident fraction under the
    /// same pressure, so sharding alone neither helps nor hurts cache hit
    /// rates — matching a real shared buffer pool's behaviour.
    fn evict_to(s: &mut PoolState, cap: u64) {
        if s.total <= cap {
            return;
        }
        let factor = cap as f64 / s.total as f64;
        let mut total = 0u64;
        for r in s.resident.values_mut() {
            r.pages = (r.pages as f64 * factor).round() as u64;
            total += r.pages;
        }
        // rounding can overshoot by a few pages; trim from the largest, ties
        // broken by key so the choice does not follow the map's random order
        while total > cap {
            if let Some((_, r)) = s.resident.iter_mut().max_by_key(|(k, r)| (r.pages, **k)) {
                let take = (total - cap).min(r.pages);
                r.pages -= take;
                total -= take;
            } else {
                break;
            }
        }
        s.resident.retain(|_, r| r.pages > 0);
        s.total = total;
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        // 64 GB of 8 KiB pages, the paper's VM memory
        BufferPool::new(64 * 1024 * 1024 * 1024 / 8192)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: BufferKey = BufferKey::Table(1);
    const T2: BufferKey = BufferKey::Table(2);

    #[test]
    fn first_scan_misses_second_hits() {
        let pool = BufferPool::new(1000);
        assert_eq!(pool.scan(T1, 500), 500);
        assert_eq!(pool.scan(T1, 500), 0);
        assert_eq!(pool.resident_pages(T1), 500);
    }

    #[test]
    fn table_larger_than_memory_always_misses() {
        let pool = BufferPool::new(100);
        assert_eq!(pool.scan(T1, 500), 500);
        // only 100 pages stay resident, so the next scan misses 400
        let misses = pool.scan(T1, 500);
        assert_eq!(misses, 400);
        assert!(pool.total_resident() <= 100);
    }

    #[test]
    fn eviction_is_proportional_across_tables() {
        let pool = BufferPool::new(100);
        pool.scan(T1, 60);
        pool.scan(T2, 60); // 120 resident → both shrink proportionally
        let (r1, r2) = (pool.resident_pages(T1), pool.resident_pages(T2));
        assert!(pool.total_resident() <= 100);
        assert!(r1 > 0 && r2 > 0, "both keep a share: {r1}/{r2}");
        assert!((r1 as i64 - r2 as i64).abs() <= 1, "equal shares: {r1}/{r2}");
    }

    #[test]
    fn sharding_does_not_change_hit_rate() {
        // one 320-page table vs 32 shards of 10 pages under the same
        // capacity must miss at the same rate
        let big = BufferPool::new(200);
        big.scan(BufferKey::Table(0), 320);
        let miss_big = big.scan(BufferKey::Table(0), 320);
        let sharded = BufferPool::new(200);
        for i in 0..32 {
            sharded.scan(BufferKey::Table(i), 10);
        }
        let mut miss_sharded = 0;
        for i in 0..32 {
            miss_sharded += sharded.scan(BufferKey::Table(i), 10);
        }
        let ratio = miss_sharded.max(1) as f64 / miss_big.max(1) as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "comparable miss rates: {miss_big} vs {miss_sharded}"
        );
    }

    #[test]
    fn point_reads_warm_up() {
        let pool = BufferPool::new(10_000);
        // cold: every touched page misses
        let m1 = pool.point_read(T1, 1000, 3);
        assert_eq!(m1, 3);
        // after a full scan, everything resident: no misses
        pool.scan(T1, 1000);
        for _ in 0..100 {
            assert_eq!(pool.point_read(T1, 1000, 3), 0);
        }
    }

    #[test]
    fn point_read_fractional_misses_accumulate() {
        let pool = BufferPool::new(10_000);
        pool.scan(T1, 1000);
        // shrink capacity so only half stays resident
        pool.set_capacity(500);
        assert_eq!(pool.resident_pages(T1), 500);
        let mut total = 0;
        for _ in 0..1000 {
            total += pool.point_read(T1, 1000, 1);
        }
        // ~half the reads must miss (residency also grows as misses load pages,
        // but capacity caps it at 500, so the fraction stays ~0.5)
        assert!((300..700).contains(&total), "misses: {total}");
    }

    #[test]
    fn column_keys_cache_independently() {
        // mixed projections over one columnar table: each column warms once,
        // then every projection hits — a narrow scan must not evict the
        // columns it does not touch (regression: a single Table key clamped
        // residency to the last scan's width, so alternating narrow/wide
        // projections missed forever)
        let pool = BufferPool::new(10_000);
        let wide: [(BufferKey, u64); 3] = [
            (BufferKey::TableColumn(7, 0), 40),
            (BufferKey::TableColumn(7, 1), 40),
            (BufferKey::TableColumn(7, 2), 160),
        ];
        let cold: u64 = wide.iter().map(|&(k, p)| pool.scan(k, p)).sum();
        assert_eq!(cold, 240);
        // narrow projection: column 0 only
        assert_eq!(pool.scan(BufferKey::TableColumn(7, 0), 40), 0);
        // the wide projection still hits fully afterwards
        let warm: u64 = wide.iter().map(|&(k, p)| pool.scan(k, p)).sum();
        assert_eq!(warm, 0, "narrow scan must not shrink other columns' residency");
    }

    #[test]
    fn total_tracks_every_kind_of_access() {
        let pool = BufferPool::new(100);
        let sum = |pool: &BufferPool| {
            [T1, T2, BufferKey::Index(1)].iter().map(|k| pool.resident_pages(*k)).sum::<u64>()
        };
        pool.scan(T1, 40);
        pool.write(T2, 50, 10);
        pool.point_read(BufferKey::Index(1), 30, 3);
        assert_eq!(pool.total_resident(), sum(&pool));
        pool.scan(T2, 90); // over capacity: proportional eviction resets the total
        assert!(pool.total_resident() <= 100);
        assert_eq!(pool.total_resident(), sum(&pool));
        pool.forget(T1);
        pool.scan(T1, 5);
        assert_eq!(pool.total_resident(), sum(&pool));
    }

    #[test]
    fn eviction_does_not_depend_on_map_order() {
        // sixteen equal relations pushed just past capacity: the rounding
        // overshoot must come off the same relation in every pool, though
        // each pool's map iterates in its own random order
        let run = || {
            let pool = BufferPool::new(155);
            for _ in 0..3 {
                for i in 0..16 {
                    pool.scan(BufferKey::Table(i), 10);
                }
            }
            (0..16).map(|i| pool.resident_pages(BufferKey::Table(i))).collect::<Vec<_>>()
        };
        for _ in 0..8 {
            let (a, b) = (run(), run());
            assert_eq!(a, b, "two pools given one access sequence diverged");
        }
    }

    #[test]
    fn forget_releases() {
        let pool = BufferPool::new(1000);
        pool.scan(T1, 300);
        pool.forget(T1);
        assert_eq!(pool.resident_pages(T1), 0);
        assert_eq!(pool.total_resident(), 0);
    }

    #[test]
    fn writes_grow_residency() {
        let pool = BufferPool::new(1000);
        pool.write(T1, 100, 10);
        assert_eq!(pool.resident_pages(T1), 10);
    }
}
