//! A memory budget for the write path, checked by counting.
//!
//! This binary's allocator counts live bytes (allocated − freed) and bytes
//! requested, so the file holds exactly one `#[test]`: nothing else may share
//! the counters. What an update retains after VACUUM is its WAL records, the
//! new heap version's row spine and the one string it wrote; every other
//! column is shared with the version before it.

use pgmini::engine::Engine;
use pgmini::types::Datum;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller passed, as `alloc` requires
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: u64 = 1_000;
const UPDATES: u64 = 10_000;
const FIELDS: u64 = 10;
/// Retained bytes per update the write path may cost (the parent commit,
/// which deep-copied rows and never freed dead versions, retained ≈ 4.7 KB).
const BUDGET_PER_UPDATE: f64 = 1.2 * 1024.0;

fn key(id: u64) -> String {
    format!("user{id:012}")
}

/// A deterministic `len`-byte lowercase string, different for each `n`.
fn field(n: u64, len: usize) -> String {
    let mut x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (b'a' + (x % 26) as u8) as char
        })
        .collect()
}

fn ycsb_row(id: u64, field_len: usize) -> Vec<Datum> {
    let mut row = vec![Datum::from_text(&key(id))];
    row.extend((0..FIELDS).map(|f| Datum::from_text(&field(id * FIELDS + f, field_len))));
    row
}

#[test]
fn updates_retain_pointers_and_a_point_read_copies_no_text() {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    let fields: Vec<String> = (0..FIELDS).map(|i| format!("field{i} text")).collect();
    s.execute(&format!("CREATE TABLE usertable (ycsb_key text PRIMARY KEY, {})", fields.join(", ")))
        .unwrap();
    s.copy_rows("usertable", &[], (0..ROWS).map(|id| ycsb_row(id, 100)).collect()).unwrap();

    let update = |s: &mut pgmini::session::Session, n: u64| {
        let sql = format!(
            "UPDATE usertable SET field{} = '{}' WHERE ycsb_key = '{}'",
            n % FIELDS,
            field(1_000_000 + n, 100),
            key(n * 7 % ROWS)
        );
        assert_eq!(s.execute(&sql).unwrap().affected(), 1);
    };
    // warm the plan cache and every lazily built structure before measuring
    for n in 0..FIELDS {
        update(&mut s, n);
    }
    s.execute("VACUUM usertable").unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    for n in 0..UPDATES {
        update(&mut s, FIELDS + n);
        if (n + 1) % 1_000 == 0 {
            s.execute("VACUUM usertable").unwrap();
        }
    }
    let retained = (LIVE.load(Ordering::Relaxed) - before) as f64 / UPDATES as f64;
    assert!(
        retained <= BUDGET_PER_UPDATE,
        "an update retains {retained:.0} bytes, over the budget of {BUDGET_PER_UPDATE:.0}"
    );
    // and it does retain its WAL records and one new string: a number near
    // zero would mean the counter is not counting
    assert!(retained > 300.0, "an update retains only {retained:.0} bytes: miscounted?");

    // A warm point read of a row with 100 × larger fields requests the same
    // bytes: whatever it allocates, none of it is a copy of the row's text.
    let big = ROWS;
    s.copy_rows("usertable", &[], vec![ycsb_row(big, 10_000)]).unwrap();
    let mut read_bytes = |id: u64| {
        let sql = format!("SELECT * FROM usertable WHERE ycsb_key = '{}'", key(id));
        s.execute(&sql).unwrap(); // warm
        let before = REQUESTED.load(Ordering::Relaxed);
        let result = s.execute(&sql).unwrap();
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        let text: usize = result.rows()[0].iter().map(|d| d.as_str().unwrap().len()).sum();
        (requested, text)
    };
    let (small_req, small_text) = read_bytes(1);
    let (big_req, big_text) = read_bytes(big);
    assert!(small_text > 1_000 && big_text > 100_000);
    assert_eq!(
        small_req, big_req,
        "reading {big_text} text bytes requested {big_req} bytes, {small_text} text bytes \
         requested {small_req}"
    );
    println!("retained {retained:.0} B/update; a point read requests {small_req} B");
}
