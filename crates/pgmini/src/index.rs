//! Index storage: B-tree (equality/range) and trigram GIN (substring search,
//! the pg_trgm stand-in). Index entries point at stable row ids; scans
//! re-check visibility and key match against the heap, so stale entries are
//! harmless until vacuum removes them.

use crate::error::{PgError, PgResult};
use crate::types::{text_ops, Datum, SortKey};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

/// B-tree over (possibly multi-column) keys.
#[derive(Default)]
pub struct BTreeIndex {
    map: RwLock<BTreeMap<SortKey, Vec<u64>>>,
    entries: std::sync::atomic::AtomicU64,
}

impl BTreeIndex {
    pub fn insert(&self, key: Vec<Datum>, row_id: u64) {
        let mut m = self.map.write();
        m.entry(SortKey(key)).or_default().push(row_id);
        self.entries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn remove(&self, key: &[Datum], row_id: u64) {
        let mut m = self.map.write();
        let k = SortKey(key.to_vec());
        if let Some(ids) = m.get_mut(&k) {
            if let Some(pos) = ids.iter().position(|&id| id == row_id) {
                ids.swap_remove(pos);
                self.entries.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
            }
            if ids.is_empty() {
                m.remove(&k);
            }
        }
    }

    /// Row ids with exactly this key.
    pub fn get_eq(&self, key: &[Datum]) -> Vec<u64> {
        self.map.read().get(&SortKey(key.to_vec())).cloned().unwrap_or_default()
    }

    /// Row ids whose *first key column* falls in the given bounds; used for
    /// single-column range predicates.
    pub fn range_first_col(
        &self,
        low: Option<(&Datum, bool)>,
        high: Option<(&Datum, bool)>,
    ) -> Vec<u64> {
        let m = self.map.read();
        let lo: Bound<SortKey> = match low {
            None => Bound::Unbounded,
            Some((d, incl)) => {
                let k = SortKey(vec![d.clone()]);
                if incl {
                    Bound::Included(k)
                } else {
                    // exclusive low on a prefix: still Included on the prefix,
                    // filtered below for multi-column keys
                    Bound::Included(k)
                }
            }
        };
        let mut out = Vec::new();
        for (k, ids) in m.range((lo, Bound::Unbounded)) {
            let first = &k.0[0];
            if let Some((d, incl)) = low {
                match first.total_cmp(d) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal if !incl => continue,
                    _ => {}
                }
            }
            if let Some((d, incl)) = high {
                match first.total_cmp(d) {
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Equal if !incl => break,
                    _ => {}
                }
            }
            if first.is_null() {
                break; // NULLs sort last; a range never matches them
            }
            out.extend_from_slice(ids);
        }
        out
    }

    /// Row ids matching a key prefix (leading columns equal).
    pub fn get_prefix(&self, prefix: &[Datum]) -> Vec<u64> {
        let m = self.map.read();
        let lo = SortKey(prefix.to_vec());
        let mut out = Vec::new();
        for (k, ids) in m.range(lo..) {
            if k.0.len() < prefix.len()
                || k.0[..prefix.len()]
                    .iter()
                    .zip(prefix)
                    .any(|(a, b)| a.total_cmp(b) != std::cmp::Ordering::Equal)
            {
                break;
            }
            out.extend_from_slice(ids);
        }
        out
    }

    /// All row ids in key order (index-ordered scans).
    pub fn scan_ordered(&self) -> Vec<u64> {
        let m = self.map.read();
        m.values().flatten().copied().collect()
    }

    pub fn len(&self) -> u64 {
        self.entries.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated depth of the equivalent on-disk B-tree (page-touch math).
    pub fn sim_depth(&self) -> u64 {
        // ~256 entries per page
        let n = self.len().max(1);
        (n as f64).log(256.0).ceil().max(1.0) as u64
    }
}

/// Trigram GIN index over one text expression.
#[derive(Default)]
pub struct GinIndex {
    postings: RwLock<HashMap<[char; 3], HashSet<u64>>>,
    entries: std::sync::atomic::AtomicU64,
}

impl GinIndex {
    /// Post `row_id` under each trigram of its text.
    pub fn insert(&self, grams: &[[char; 3]], row_id: u64) {
        let mut p = self.postings.write();
        for g in grams {
            p.entry(*g).or_default().insert(row_id);
        }
        self.entries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn remove(&self, grams: &[[char; 3]], row_id: u64) {
        let mut p = self.postings.write();
        for g in grams {
            if let Some(set) = p.get_mut(g) {
                set.remove(&row_id);
                if set.is_empty() {
                    p.remove(g);
                }
            }
        }
        self.entries.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Candidate row ids for a LIKE/ILIKE pattern: the intersection of the
    /// posting lists of the pattern's required trigrams. `None` means the
    /// pattern is too short to prune with — caller falls back to a seq scan.
    /// Candidates must still be re-checked against the actual pattern.
    pub fn candidates_for_like(&self, pattern: &str) -> Option<Vec<u64>> {
        let required = text_ops::required_trigrams_for_like(pattern)?;
        let p = self.postings.read();
        let mut iter = required.iter();
        let first = iter.next()?;
        let mut acc: HashSet<u64> = p.get(first).cloned().unwrap_or_default();
        for g in iter {
            match p.get(g) {
                None => return Some(Vec::new()),
                Some(set) => acc.retain(|id| set.contains(id)),
            }
            if acc.is_empty() {
                return Some(Vec::new());
            }
        }
        let mut v: Vec<u64> = acc.into_iter().collect();
        v.sort_unstable();
        Some(v)
    }

    pub fn len(&self) -> u64 {
        self.entries.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The storage half of one index.
pub enum IndexStore {
    BTree(BTreeIndex),
    Gin(GinIndex),
}

/// One row's key in an index: a b-tree's key columns, or the trigrams of a
/// GIN index's text.
pub(crate) enum IndexKey {
    BTree(Vec<Datum>),
    Gin(Vec<[char; 3]>),
}

impl IndexStore {
    pub(crate) fn insert(&self, key: IndexKey, row_id: u64) -> PgResult<()> {
        match (self, key) {
            (IndexStore::BTree(b), IndexKey::BTree(key)) => b.insert(key, row_id),
            (IndexStore::Gin(g), IndexKey::Gin(grams)) => g.insert(&grams, row_id),
            _ => return Err(PgError::internal("an index's keys follow its method")),
        }
        Ok(())
    }

    pub(crate) fn remove(&self, key: &IndexKey, row_id: u64) -> PgResult<()> {
        match (self, key) {
            (IndexStore::BTree(b), IndexKey::BTree(key)) => b.remove(key, row_id),
            (IndexStore::Gin(g), IndexKey::Gin(grams)) => g.remove(grams, row_id),
            _ => return Err(PgError::internal("an index's keys follow its method")),
        }
        Ok(())
    }

    pub fn len(&self) -> u64 {
        match self {
            IndexStore::BTree(b) => b.len(),
            IndexStore::Gin(g) => g.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btree_eq_and_remove() {
        let idx = BTreeIndex::default();
        idx.insert(vec![Datum::Int(5)], 100);
        idx.insert(vec![Datum::Int(5)], 101);
        idx.insert(vec![Datum::Int(7)], 102);
        let mut ids = idx.get_eq(&[Datum::Int(5)]);
        ids.sort();
        assert_eq!(ids, vec![100, 101]);
        idx.remove(&[Datum::Int(5)], 100);
        assert_eq!(idx.get_eq(&[Datum::Int(5)]), vec![101]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn btree_range_bounds() {
        let idx = BTreeIndex::default();
        for i in 0..10 {
            idx.insert(vec![Datum::Int(i)], i as u64);
        }
        let lo = Datum::Int(3);
        let hi = Datum::Int(6);
        let ids = idx.range_first_col(Some((&lo, true)), Some((&hi, true)));
        assert_eq!(ids, vec![3, 4, 5, 6]);
        let ids = idx.range_first_col(Some((&lo, false)), Some((&hi, false)));
        assert_eq!(ids, vec![4, 5]);
        let ids = idx.range_first_col(None, Some((&lo, true)));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let ids = idx.range_first_col(Some((&hi, true)), None);
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn btree_range_skips_nulls() {
        let idx = BTreeIndex::default();
        idx.insert(vec![Datum::Int(1)], 1);
        idx.insert(vec![Datum::Null], 2);
        let lo = Datum::Int(0);
        assert_eq!(idx.range_first_col(Some((&lo, true)), None), vec![1]);
    }

    #[test]
    fn btree_composite_prefix() {
        let idx = BTreeIndex::default();
        idx.insert(vec![Datum::Int(1), Datum::Int(10)], 1);
        idx.insert(vec![Datum::Int(1), Datum::Int(20)], 2);
        idx.insert(vec![Datum::Int(2), Datum::Int(10)], 3);
        assert_eq!(idx.get_prefix(&[Datum::Int(1)]), vec![1, 2]);
        assert_eq!(idx.get_eq(&[Datum::Int(1), Datum::Int(20)]), vec![2]);
        assert!(idx.get_prefix(&[Datum::Int(3)]).is_empty());
    }

    #[test]
    fn btree_ordered_scan() {
        let idx = BTreeIndex::default();
        idx.insert(vec![Datum::Int(3)], 30);
        idx.insert(vec![Datum::Int(1)], 10);
        idx.insert(vec![Datum::Int(2)], 20);
        assert_eq!(idx.scan_ordered(), vec![10, 20, 30]);
    }

    #[test]
    fn gin_like_candidates() {
        let idx = GinIndex::default();
        idx.insert(&text_ops::trigrams("fix postgres planner bug"), 1);
        idx.insert(&text_ops::trigrams("update docs"), 2);
        idx.insert(&text_ops::trigrams("postgresql is great"), 3);
        let c = idx.candidates_for_like("%postgres%").unwrap();
        assert_eq!(c, vec![1, 3]);
        // short patterns cannot prune
        assert!(idx.candidates_for_like("%pg%").is_none());
        // no matches
        assert_eq!(idx.candidates_for_like("%zzzyyy%").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn gin_remove() {
        let idx = GinIndex::default();
        idx.insert(&text_ops::trigrams("hello world"), 1);
        idx.insert(&text_ops::trigrams("hello there"), 2);
        idx.remove(&text_ops::trigrams("hello world"), 1);
        assert_eq!(idx.candidates_for_like("%hello%").unwrap(), vec![2]);
        assert_eq!(idx.candidates_for_like("%world%").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn sim_depth_grows_slowly() {
        let idx = BTreeIndex::default();
        assert_eq!(idx.sim_depth(), 1);
        for i in 0..1000 {
            idx.insert(vec![Datum::Int(i)], i as u64);
        }
        assert!(idx.sim_depth() >= 2);
        assert!(idx.sim_depth() <= 3);
    }
}
