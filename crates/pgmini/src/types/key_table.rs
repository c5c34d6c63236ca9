//! A hashed table of row keys: the one structure behind hash joins,
//! grouping, `count(DISTINCT)`, `SELECT DISTINCT`, folded `IN` lists and the
//! coordinator's merge.
//!
//! Distinct keys get dense slot ids in first-seen order, so callers keep
//! per-key state in plain vectors indexed by slot. Lookups borrow the key and
//! allocate nothing; a key is cloned once, when its slot is created. Two keys
//! are the same key when every column is equal under [`Datum::total_cmp`],
//! the order `ORDER BY` and the B-tree index use, and the key hash agrees
//! with it: an Int hashes as the Float of equal value, every NaN and
//! both zeros hash alike, and a Text that parses as a timestamp hashes as
//! that timestamp (`ts = '2020-01-01'` is a match). Slot order is insertion
//! order; [`KeyTable::sorted_slots`] gives key order where output needs it.

use super::datum::{cmp_rows, hash_bytes, splitmix64, Datum};
use super::time;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Distinct keys of one width, each numbered by its slot.
#[derive(Debug, Clone)]
pub struct KeyTable {
    width: usize,
    /// `width` datums per slot, slot after slot.
    keys: Vec<Datum>,
    /// Each slot's key hash.
    hashes: Vec<u64>,
    /// Open addressing with linear probing: slot + 1, 0 for an empty bucket.
    /// Empty until the first insert, then a power of two at most half full.
    buckets: Vec<u32>,
}

impl KeyTable {
    /// An empty table of `width`-column keys; allocates nothing until the
    /// first insert.
    pub fn new(width: usize) -> KeyTable {
        KeyTable { width, keys: Vec::new(), hashes: Vec::new(), buckets: Vec::new() }
    }

    /// Columns per key.
    pub fn key_width(&self) -> usize {
        self.width
    }

    /// Number of distinct keys (slots).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The key of `slot`.
    pub fn key(&self, slot: usize) -> &[Datum] {
        &self.keys[slot * self.width..(slot + 1) * self.width]
    }

    /// The slot of `key`, if present.
    pub fn find(&self, key: &[Datum]) -> Option<usize> {
        self.find_hashed(key, key_hash(key))
    }

    pub fn contains(&self, key: &[Datum]) -> bool {
        self.find(key).is_some()
    }

    /// The slot of `key` and whether this call created it (cloning the key).
    pub fn insert(&mut self, key: &[Datum]) -> (usize, bool) {
        assert_eq!(key.len(), self.width, "a key has the table's width");
        let hash = key_hash(key);
        if let Some(slot) = self.find_hashed(key, hash) {
            return (slot, false);
        }
        let slot = self.hashes.len();
        if (slot + 1) * 2 > self.buckets.len() {
            self.grow();
        }
        self.keys.extend_from_slice(key);
        self.hashes.push(hash);
        self.place(hash, slot);
        (slot, true)
    }

    /// Every slot in key order: `cmp_rows`, the order of an ascending
    /// `ORDER BY` over the key columns (NULLs last).
    pub fn sorted_slots(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| cmp_rows(self.key(a), self.key(b)));
        order
    }

    fn find_hashed(&self, key: &[Datum], hash: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.buckets[at].checked_sub(1)? as usize;
            if self.hashes[slot] == hash && self.key(slot).iter().zip(key).all(same) {
                return Some(slot);
            }
            at = (at + 1) & mask;
        }
    }

    // A bucket holds a slot as a `u32`: a table of 2^32 keys does not fit
    // in memory before it overflows one.
    #[allow(clippy::expect_used)]
    fn place(&mut self, hash: u64, slot: usize) {
        let mask = self.buckets.len() - 1;
        let mut at = hash as usize & mask;
        while self.buckets[at] != 0 {
            at = (at + 1) & mask;
        }
        self.buckets[at] = u32::try_from(slot + 1).expect("fewer than 2^32 keys");
    }

    fn grow(&mut self) {
        let size = (self.buckets.len() * 2).max(16);
        self.buckets = vec![0; size];
        for slot in 0..self.hashes.len() {
            self.place(self.hashes[slot], slot);
        }
    }
}

/// Equal contents in slot order (what two identically built `IN` sets share).
impl PartialEq for KeyTable {
    fn eq(&self, other: &KeyTable) -> bool {
        self.width == other.width && self.keys == other.keys
    }
}

/// Key-column equality: [`Datum::total_cmp`], with the common integer case
/// first.
fn same((a, b): (&Datum, &Datum)) -> bool {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x == y,
        _ => a.total_cmp(b) == Ordering::Equal,
    }
}

fn key_hash(key: &[Datum]) -> u64 {
    key.iter().fold(seed(), |h, d| splitmix64(h ^ datum_hash(d)))
}

/// A per-process secret that starts every key hash, so that keys in a
/// statement cannot be chosen to pile into one bucket chain (the protection
/// `HashMap`'s default hasher gives). No result depends on it: slots are
/// numbered in insertion order, and keys `total_cmp` calls equal hash alike
/// under any seed.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0xA076_1D64_78BD_642F_u64))
}

/// A hash under which values `total_cmp` calls equal collide. It is not
/// [`Datum::hash64`], which places rows on shards and must not change.
fn datum_hash(d: &Datum) -> u64 {
    match d {
        Datum::Int(v) => float_hash(*v as f64),
        Datum::Float(v) => float_hash(*v),
        Datum::Text(s) => match text_timestamp(s) {
            Some(t) => Datum::Timestamp(t).hash64(),
            None => hash_bytes(s.as_bytes()),
        },
        other => other.hash64(),
    }
}

/// An Int equals a Float when it converts to it, so both hash the float.
fn float_hash(v: f64) -> u64 {
    let bits = if v == 0.0 {
        0 // -0.0 == 0.0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    };
    splitmix64(bits)
}

/// The timestamp a text compares equal to, as [`Datum::sql_cmp`] parses it.
/// A timestamp's text starts with its year, a number: skip the parse for
/// any other text.
fn text_timestamp(s: &str) -> Option<i64> {
    let first = *s.trim_start().as_bytes().first()?;
    if !(first.is_ascii_digit() || first == b'-' || first == b'+') {
        return None;
    }
    time::parse_timestamp(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(d: Datum) -> [Datum; 1] {
        [d]
    }

    #[test]
    fn slots_are_dense_in_first_seen_order() {
        let mut t = KeyTable::new(2);
        let k = |a: i64, b: &str| [Datum::Int(a), Datum::from_text(b)];
        assert_eq!(t.insert(&k(5, "x")), (0, true));
        assert_eq!(t.insert(&k(1, "y")), (1, true));
        assert_eq!(t.insert(&k(5, "x")), (0, false));
        assert_eq!(t.find(&k(1, "y")), Some(1));
        assert_eq!(t.find(&k(1, "z")), None);
        assert_eq!(t.key(1), &k(1, "y"));
        assert_eq!(t.sorted_slots(), [1, 0]);
    }

    #[test]
    fn equal_values_of_different_types_share_a_slot() {
        let mut t = KeyTable::new(1);
        t.insert(&one(Datum::Int(2)));
        assert!(t.contains(&one(Datum::Float(2.0))));
        assert!(!t.contains(&one(Datum::Float(2.5))));
        t.insert(&one(Datum::Float(-0.0)));
        assert!(t.contains(&one(Datum::Int(0))) && t.contains(&one(Datum::Float(0.0))));
        t.insert(&one(Datum::Float(f64::NAN)));
        assert!(t.contains(&one(Datum::Float(-f64::NAN))));
        let ts = Datum::Timestamp(time::parse_timestamp("2020-01-01").unwrap());
        t.insert(&one(ts.clone()));
        assert!(t.contains(&one(Datum::from_text("2020-01-01"))));
        assert!(t.contains(&one(Datum::from_text(" 2020-01-01 00:00:00"))));
        let mut texts = KeyTable::new(1);
        texts.insert(&one(Datum::from_text("2020-01-01")));
        assert!(texts.contains(&one(ts)));
        assert!(!texts.contains(&one(Datum::from_text("2020-01-01 00:00:00"))));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn null_is_one_key_and_sorts_last() {
        let mut t = KeyTable::new(1);
        let nan = Datum::Float(f64::NAN);
        for d in [Datum::Null, Datum::Int(3), Datum::Null, nan, Datum::Int(-1)] {
            t.insert(&one(d));
        }
        let sorted: Vec<String> =
            t.sorted_slots().iter().map(|&s| t.key(s)[0].to_text()).collect();
        assert_eq!(sorted, ["-1", "3", "NaN", ""]);
    }

    #[test]
    fn survives_growth() {
        let mut t = KeyTable::new(1);
        for i in 0..10_000 {
            assert_eq!(t.insert(&one(Datum::Int(i % 3_000))), ((i % 3_000) as usize, i < 3_000));
        }
        assert_eq!(t.len(), 3_000);
        assert!((0..3_000).all(|i| t.find(&one(Datum::Int(i))) == Some(i as usize)));
    }

    #[test]
    fn a_width_zero_table_holds_the_one_empty_key() {
        let mut t = KeyTable::new(0);
        assert_eq!(t.insert(&[]), (0, true));
        assert_eq!(t.insert(&[]), (0, false));
        assert_eq!(t.key(0), &[] as &[Datum]);
    }
}
