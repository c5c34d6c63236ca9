//! A memory budget for the query and write paths, checked by counting.
//!
//! This binary's allocator counts, per thread, live bytes (allocated −
//! freed), bytes requested and allocation calls, so each test reads only what
//! its own statements allocate while the others run beside it. What an update
//! retains after VACUUM is its WAL records, the new heap version's row spine
//! and the one string it wrote; every other column is shared with the version
//! before it. A hash join allocates the rows it emits, and a grouping the
//! groups it finds: neither allocates per candidate pair or per input row.
//! A scan lends its rows, so a row that only feeds a join probe or an
//! aggregate is never copied, and a row that leaves a SELECT is projected as
//! it is lent: an output row, and an `IN` subquery's value, is one
//! allocation. A grouped `count(DISTINCT)` keeps one table for all groups.

use pgmini::engine::Engine;
use pgmini::types::Datum;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only, and their
// thread-locals are const-initialised without a destructor, so reaching them
// allocates nothing (`try_with` covers a thread that is being torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|c| c.set(c.get() + layout.size() as isize));
        let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size()));
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller passed, as `alloc` requires
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
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

    let before = live();
    for n in 0..UPDATES {
        update(&mut s, FIELDS + n);
        if (n + 1) % 1_000 == 0 {
            s.execute("VACUUM usertable").unwrap();
        }
    }
    let retained = (live() - before) as f64 / UPDATES as f64;
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
        let before = requested();
        let result = s.execute(&sql).unwrap();
        let requested = requested() - before;
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

/// Allocation calls per row of `sql`'s input, measured on a warm second run.
fn allocs_per_row(s: &mut pgmini::session::Session, sql: &str, rows: usize) -> f64 {
    s.execute(sql).unwrap();
    let before = allocs();
    s.execute(sql).unwrap();
    (allocs() - before) as f64 / rows as f64
}

/// Every one of the 2 000 × 20 pairs matches the hash key and the residual
/// `ON` rejects them all. A probe row costs its own scan copy and nothing per
/// candidate pair (the parent commit copied each pair before testing it:
/// 20 allocations per probe row and more).
#[test]
fn a_join_allocates_only_the_rows_it_emits() {
    const PROBE: usize = 2_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE probe (k bigint, v bigint)").unwrap();
    s.execute("CREATE TABLE build (k bigint, w bigint)").unwrap();
    let rows = |n: usize, sign: i64| {
        (0..n).map(|i| vec![Datum::Int(1), Datum::Int(sign * i as i64)]).collect()
    };
    s.copy_rows("probe", &[], rows(PROBE, 1)).unwrap();
    s.copy_rows("build", &[], rows(20, -1)).unwrap();
    let sql = "SELECT probe.v, build.w FROM probe JOIN build \
               ON probe.k = build.k AND probe.v < build.w";
    assert!(s.query(sql).unwrap().is_empty());
    let per_row = allocs_per_row(&mut s, sql, PROBE);
    assert!(per_row < 3.0, "the join made {per_row:.2} allocations per probe row");
    println!("a rejecting join makes {per_row:.2} allocations per probe row");
}

/// 10 000 rows into 4 groups: a row costs its scan copy, not a key.
#[test]
fn a_group_by_allocates_per_group_not_per_row() {
    const ROWS: usize = 10_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (g bigint, v bigint)").unwrap();
    let rows = (0..ROWS as i64).map(|i| vec![Datum::Int(i % 4), Datum::Int(i)]).collect();
    s.copy_rows("t", &[], rows).unwrap();
    let sql = "SELECT g, count(*), sum(v) FROM t GROUP BY g";
    assert_eq!(s.query(sql).unwrap().len(), 4);
    let per_row = allocs_per_row(&mut s, sql, ROWS);
    assert!(per_row < 1.2, "GROUP BY made {per_row:.2} allocations per input row");
    println!("GROUP BY makes {per_row:.2} allocations per input row");
}

/// `n` rows `(k, v, s)` with `k = i % keys`, `v = i` and a text `s`, as a
/// workload's rows carry text.
fn text_rows(n: usize, keys: i64) -> Vec<Vec<Datum>> {
    (0..n as i64)
        .map(|i| vec![Datum::Int(i % keys), Datum::Int(i), Datum::from_text(&key(i as u64))])
        .collect()
}

/// Each of 10 000 outer rows meets one of 100 inner rows and the pairs are
/// summed: the outer rows and the pairs pass through without a copy, and only
/// the 100-row build side is kept.
#[test]
fn a_summed_join_copies_no_outer_row() {
    const OUTER: usize = 10_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE probe (k bigint, v bigint, s text)").unwrap();
    s.execute("CREATE TABLE build (k bigint, v bigint, s text)").unwrap();
    s.copy_rows("probe", &[], text_rows(OUTER, 100)).unwrap();
    s.copy_rows("build", &[], text_rows(100, 100)).unwrap();
    let sql = "SELECT sum(build.v) FROM probe JOIN build ON probe.k = build.k";
    assert_eq!(s.query(sql).unwrap(), vec![vec![Datum::Int(OUTER as i64 / 100 * 4950)]]);
    let per_row = allocs_per_row(&mut s, sql, OUTER);
    assert!(per_row < 0.2, "the summed join made {per_row:.2} allocations per outer row");
    println!("a summed join makes {per_row:.3} allocations per outer row");
}

/// 10 000 rows of a columnar outer probe a 100-row build side and every key
/// misses: the batch probe reads each key from the typed column and copies
/// no row, so it allocates per batch, never per probe row. Beside it, a heap
/// join whose build rows carry a text column the statement never reads: a
/// build row costs its own spine, and its text stays in the heap.
#[test]
fn a_columnar_probe_that_misses_copies_no_row() {
    const OUTER: usize = 10_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE probe (k bigint, v bigint, s text) USING columnar").unwrap();
    s.execute("CREATE TABLE build (k bigint, v bigint, s text)").unwrap();
    let missing: Vec<Vec<Datum>> = text_rows(OUTER, 100)
        .into_iter()
        .map(|mut r| {
            r[0] = Datum::Int(1_000 + r[1].as_i64().unwrap() % 100);
            r
        })
        .collect();
    s.copy_rows("probe", &[], missing).unwrap();
    s.copy_rows("build", &[], text_rows(100, 100)).unwrap();
    let sql = "SELECT count(*), sum(build.v) FROM probe JOIN build ON probe.k = build.k";
    let plan: Vec<String> =
        s.query(&format!("EXPLAIN {sql}")).unwrap().iter().map(|r| r[0].to_text()).collect();
    let join = plan.iter().position(|l| l.ends_with(" Join")).unwrap();
    assert!(plan[join + 1].trim().starts_with("Seq Scan on probe"), "{plan:#?}");
    assert_eq!(s.query(sql).unwrap(), vec![vec![Datum::Int(0), Datum::Null]]);
    let per_row = allocs_per_row(&mut s, sql, OUTER);
    assert!(per_row < 0.05, "the missing probe made {per_row:.3} allocations per probe row");
    println!("a columnar probe that misses makes {per_row:.4} allocations per probe row");

    s.execute("CREATE TABLE heap_probe (k bigint, v bigint, s text)").unwrap();
    s.copy_rows("heap_probe", &[], text_rows(OUTER, 100)).unwrap();
    let sql = "SELECT count(*) FROM heap_probe p JOIN build ON p.k = build.k";
    assert_eq!(s.query(sql).unwrap(), vec![vec![Datum::Int(OUTER as i64)]]);
    let per_build_row = allocs_per_row(&mut s, sql, 100);
    println!(
        "a heap join whose build rows carry an unread text makes {per_build_row:.2} \
         allocations per build row"
    );
}

/// A filtered count over 10 000 rows copies none of them.
#[test]
fn a_filtered_count_copies_no_row() {
    const ROWS: usize = 10_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v bigint, s text)").unwrap();
    s.copy_rows("t", &[], text_rows(ROWS, 7)).unwrap();
    let sql = "SELECT count(*) FROM t WHERE v >= 0";
    assert_eq!(s.query(sql).unwrap(), vec![vec![Datum::Int(ROWS as i64)]]);
    let per_row = allocs_per_row(&mut s, sql, ROWS);
    assert!(per_row < 0.2, "the filtered count made {per_row:.2} allocations per row");
    println!("a filtered count makes {per_row:.3} allocations per row");
}

/// Retained bytes per row a columnar COPY may cost: its stripe and its WAL
/// record together. A `lineitem` row stores 11 eight-byte numbers and
/// timestamps and 4 four-byte text codes, 104 bytes; the parent commit kept
/// every cell as a 24-byte `Datum` twice, in the stripe and in the record,
/// plus one text allocation per row: about 0.9 KB.
const BUDGET_PER_COLUMNAR_ROW: f64 = 200.0;

/// `n` rows shaped like TPC-H `lineitem` as the generator writes them: each
/// text and date is a new allocation, and the text columns repeat a few
/// values.
fn lineitem_rows(n: usize) -> Vec<Vec<Datum>> {
    const MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
    let date = |d: usize| Datum::from_text(&format!("199{}-0{}-1{}", 2 + d % 7, 1 + d % 9, d % 10));
    (0..n)
        .map(|i| {
            vec![
                Datum::Int(i as i64 / 4),
                Datum::Int((i * 7) as i64 % 1000),
                Datum::Int((i * 13) as i64 % 50),
                Datum::Int(i as i64 % 4 + 1),
                Datum::Float((i % 50) as f64 + 1.0),
                Datum::Float(i as f64 * 1.25),
                Datum::Float((i % 11) as f64 / 100.0),
                Datum::Float((i % 9) as f64 / 100.0),
                Datum::from_text(["A", "N", "R"][i % 3]),
                Datum::from_text(["O", "F"][i % 2]),
                date(i),
                date(i + 30),
                date(i + 31),
                Datum::from_text(["DELIVER IN PERSON", "NONE", "COLLECT COD"][i % 3]),
                Datum::from_text(MODES[i % 7]),
            ]
        })
        .collect()
}

/// A COPY into a columnar `lineitem` retains one typed stripe, shared by the
/// table and the WAL record: the rows it was given, their text included,
/// are freed.
#[test]
fn a_columnar_copy_retains_one_typed_stripe() {
    const ROWS: usize = 20_000;
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute(
        "CREATE TABLE lineitem (l_orderkey bigint, l_partkey bigint, l_suppkey bigint, \
         l_linenumber bigint, l_quantity float, l_extendedprice float, l_discount float, \
         l_tax float, l_returnflag text, l_linestatus text, l_shipdate timestamp, \
         l_commitdate timestamp, l_receiptdate timestamp, l_shipinstruct text, \
         l_shipmode text) USING columnar",
    )
    .unwrap();
    // warm every lazily built structure before measuring
    s.copy_rows("lineitem", &[], lineitem_rows(10)).unwrap();

    let before = live();
    s.copy_rows("lineitem", &[], lineitem_rows(ROWS)).unwrap();
    let retained = (live() - before) as f64 / ROWS as f64;
    assert!(
        retained <= BUDGET_PER_COLUMNAR_ROW,
        "a columnar row retains {retained:.0} bytes, over the budget of \
         {BUDGET_PER_COLUMNAR_ROW:.0}"
    );
    // eleven eight-byte columns alone take 88 bytes: less means miscounting
    assert!(retained > 88.0, "a columnar row retains only {retained:.0} bytes: miscounted?");
    let sql = "SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem GROUP BY 1 ORDER BY 1";
    assert_eq!(s.query(sql).unwrap().len(), 3);
    println!("a COPY'd columnar lineitem row retains {retained:.0} B, stripe and WAL record");
}

/// 10 000 rows `(k, v, s)` of a heap table `t` whose rows carry text, with
/// 2 500 keys `k`, and a two-row table `probe`.
fn subquery_tables() -> pgmini::session::Session {
    let e = Engine::new_default();
    let mut s = e.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v bigint, s text)")
        .unwrap();
    s.copy_rows("t", &[], text_rows(10_000, 2_500)).unwrap();
    s.execute("CREATE TABLE probe (k bigint, v bigint)")
        .unwrap();
    s.execute("INSERT INTO probe VALUES (1, 1), (2, 2)")
        .unwrap();
    s
}

/// A row-returning SELECT projects each row as the scan lends it: an output
/// row is one allocation (the parent commit cloned the row first, 2.01).
#[test]
fn a_row_returning_select_allocates_each_row_once() {
    let mut s = subquery_tables();
    let sql = "SELECT v, k FROM t WHERE v >= 0";
    assert_eq!(s.query(sql).unwrap().len(), 10_000);
    let per_row = allocs_per_row(&mut s, sql, 10_000);
    println!("a row-returning SELECT makes {per_row:.3} allocations per output row");
    assert!(
        per_row <= 1.1,
        "a row-returning SELECT made {per_row:.3} allocations per row"
    );
}

/// An `IN` subquery's 10 000 values cost their result rows and nothing more
/// on the way into the outer plan's set (the parent commit, which cloned
/// each row and made each value an expression, made 2.02).
#[test]
fn an_in_subquery_allocates_its_result_rows_only() {
    let mut s = subquery_tables();
    let sql = "SELECT count(*) FROM probe WHERE k IN (SELECT v FROM t)";
    assert_eq!(s.query(sql).unwrap(), vec![vec![Datum::Int(2)]]);
    let per_value = allocs_per_row(&mut s, sql, 10_000);
    println!("an IN subquery makes {per_value:.3} allocations per value");
    assert!(
        per_value <= 1.1,
        "an IN subquery made {per_value:.3} allocations per value"
    );
}

/// A grouped `count(DISTINCT)` keeps one table for all its 2 500 groups: a
/// group costs its output rows (the parent commit, with a table per group,
/// made 5.04; a plain `count` makes 2.04).
#[test]
fn a_grouped_count_distinct_keeps_one_table() {
    let mut s = subquery_tables();
    let sql = "SELECT k, count(DISTINCT v) FROM t GROUP BY k";
    assert_eq!(s.query(sql).unwrap().len(), 2_500);
    let per_group = allocs_per_row(&mut s, sql, 2_500);
    println!("a grouped count(DISTINCT) makes {per_group:.3} allocations per group");
    assert!(
        per_group <= 2.2,
        "count(DISTINCT) made {per_group:.3} allocations per group"
    );
}
