//! Brute-force referee for every operator that matches rows by key: hash
//! equi-joins (inner, left, right and full, with and without a residual
//! `ON`), `GROUP BY`, `count(DISTINCT)`, `SELECT DISTINCT` and a constant
//! `IN` list long enough to be folded into a set.
//!
//! The keys are adversarial: duplicates, NULLs, an integer column joined to a
//! float column (`2 = 2.0`), `0.0` next to `-0.0`, NaN, and a timestamp column
//! joined to text dates. The referee is written here with nested loops and
//! linear scans, and the engine's output is compared row for row, order
//! included: a join emits in probe order with each probe row's matches in
//! build order, groups come out in key order, DISTINCT keeps first
//! occurrences. Every query runs on heap tables and on columnar ones.

use pgmini::engine::Engine;
use pgmini::types::Datum;
use proptest::prelude::*;
use std::cmp::Ordering;

/// Columns of both tables, after `id bigint` and before `v bigint`.
const KEY_COLS: [(&str, &str); 4] =
    [("i", "bigint"), ("f", "double precision"), ("ts", "timestamp"), ("tx", "text")];
const I: usize = 0;
const F: usize = 1;
const TS: usize = 2;
const TX: usize = 3;

/// Key column pairs a join may compare: same type, integer against float,
/// timestamp against text.
const JOIN_PAIRS: [(usize, usize); 6] = [(I, I), (I, F), (F, I), (F, F), (TS, TX), (TX, TS)];

/// 2020-01-01 00:00:00 in microseconds since the Unix epoch.
const JAN_1_2020: i64 = 1_577_836_800_000_000;
const DAY: i64 = 86_400_000_000;

/// One table row: `[i, f, ts, tx]` then `v`.
#[derive(Debug, Clone)]
struct Rec {
    keys: [Datum; 4],
    v: Option<i64>,
}

fn int_cell() -> impl Strategy<Value = Datum> {
    prop_oneof![1 => Just(Datum::Null), 4 => (0..4i64).prop_map(Datum::Int)]
}

fn float_cell() -> impl Strategy<Value = Datum> {
    let values = [0.0, -0.0, 1.0, 1.5, 2.0, 3.0, f64::NAN];
    prop_oneof![
        1 => Just(Datum::Null),
        6 => (0..values.len()).prop_map(move |i| Datum::Float(values[i])),
    ]
}

fn ts_cell() -> impl Strategy<Value = Datum> {
    prop_oneof![
        1 => Just(Datum::Null),
        4 => (0..4i64).prop_map(|d| Datum::Timestamp(JAN_1_2020 + d * DAY)),
    ]
}

/// Dates in one spelling only: two spellings of one day are two text keys
/// equal to the same timestamp, and no single-match probe can honour both.
fn tx_cell() -> impl Strategy<Value = Datum> {
    prop_oneof![
        1 => Just(Datum::Null),
        4 => (1..=4u32).prop_map(|d| Datum::from_text(&format!("2020-01-{d:02}"))),
        1 => prop_oneof![Just("x"), Just("y")].prop_map(Datum::from_text),
    ]
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    (int_cell(), float_cell(), ts_cell(), tx_cell(), prop::option::of(0..3i64))
        .prop_map(|(i, f, ts, tx, v)| Rec { keys: [i, f, ts, tx], v })
}

fn arb_table() -> impl Strategy<Value = Vec<Rec>> {
    prop::collection::vec(arb_rec(), 0..9)
}

/// The day a canonical text date names, if it is one.
fn text_day(s: &str) -> Option<i64> {
    let day: i64 = s.strip_prefix("2020-01-")?.parse().ok()?;
    Some(JAN_1_2020 + (day - 1) * DAY)
}

/// PostgreSQL's float order: NaN equals NaN and sorts above every number.
fn num_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        _ => a.partial_cmp(&b).unwrap(),
    }
}

/// SQL `=` (`None` is unknown).
fn sql_eq(a: &Datum, b: &Datum) -> Option<bool> {
    Some(match (a, b) {
        (Datum::Null, _) | (_, Datum::Null) => return None,
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Int(x), Datum::Float(y)) => num_cmp(*x as f64, *y) == Ordering::Equal,
        (Datum::Float(x), Datum::Int(y)) => num_cmp(*x, *y as f64) == Ordering::Equal,
        (Datum::Float(x), Datum::Float(y)) => num_cmp(*x, *y) == Ordering::Equal,
        (Datum::Timestamp(x), Datum::Timestamp(y)) => x == y,
        (Datum::Text(x), Datum::Text(y)) => x == y,
        (Datum::Timestamp(t), Datum::Text(s)) | (Datum::Text(s), Datum::Timestamp(t)) => {
            text_day(s) == Some(*t)
        }
        other => panic!("no comparison in this test: {other:?}"),
    })
}

/// Order of one key column's values: NULL last, as ascending ORDER BY.
fn key_cmp(a: &Datum, b: &Datum) -> Ordering {
    match (a, b) {
        (Datum::Null, Datum::Null) => Ordering::Equal,
        (Datum::Null, _) => Ordering::Greater,
        (_, Datum::Null) => Ordering::Less,
        (Datum::Int(x), Datum::Int(y)) => x.cmp(y),
        (Datum::Float(x), Datum::Float(y)) => num_cmp(*x, *y),
        (Datum::Timestamp(x), Datum::Timestamp(y)) => x.cmp(y),
        (Datum::Text(x), Datum::Text(y)) => x.cmp(y),
        other => panic!("mixed key column: {other:?}"),
    }
}

/// Grouping equality: NULL is one group.
fn same_key(a: &Datum, b: &Datum) -> bool {
    key_cmp(a, b) == Ordering::Equal
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn int_or_null(v: Option<i64>) -> Datum {
    v.map_or(Datum::Null, Datum::Int)
}

/// Rows compared by their debug form: `Datum`'s own `==` has NaN unequal
/// to itself, and a NaN the engine returns must equal the one it stored.
fn show(rows: &[Vec<Datum>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Inner,
    Left,
    Right,
    Full,
}

/// A residual `ON` conjunct next to the key equality.
#[derive(Debug, Clone, Copy)]
enum Residual {
    None,
    /// spans both sides: only the join can evaluate it
    Both,
    /// mentions the build side alone
    Build,
}

fn residual_sql(r: Residual) -> &'static str {
    match r {
        Residual::None => "",
        Residual::Both => " AND t.v <= u.v",
        Residual::Build => " AND u.v <> 1",
    }
}

fn residual_holds(r: Residual, t: &Rec, u: &Rec) -> Option<bool> {
    match r {
        Residual::None => Some(true),
        Residual::Both => Some(t.v? <= u.v?),
        Residual::Build => Some(u.v? != 1),
    }
}

/// `SELECT t.id, u.id, t.<a>, u.<b> FROM t <kind> JOIN u ON t.<a> = u.<b> ..`:
/// each probe (left) row's matches in build (right) order, a left row
/// without a match right after them, unmatched right rows at the end.
fn join_referee(
    t: &[Rec],
    u: &[Rec],
    (a, b): (usize, usize),
    kind: Kind,
    residual: Residual,
) -> Vec<Vec<Datum>> {
    let mut out = Vec::new();
    let mut right_matched = vec![false; u.len()];
    for (li, l) in t.iter().enumerate() {
        let mut matched = false;
        for (ri, r) in u.iter().enumerate() {
            if and3(sql_eq(&l.keys[a], &r.keys[b]), residual_holds(residual, l, r)) == Some(true) {
                out.push(vec![
                    Datum::Int(li as i64),
                    Datum::Int(ri as i64),
                    l.keys[a].clone(),
                    r.keys[b].clone(),
                ]);
                right_matched[ri] = true;
                matched = true;
            }
        }
        if !matched && matches!(kind, Kind::Left | Kind::Full) {
            out.push(vec![Datum::Int(li as i64), Datum::Null, l.keys[a].clone(), Datum::Null]);
        }
    }
    if matches!(kind, Kind::Right | Kind::Full) {
        for (ri, r) in u.iter().enumerate() {
            if !right_matched[ri] {
                out.push(vec![Datum::Null, Datum::Int(ri as i64), Datum::Null, r.keys[b].clone()]);
            }
        }
    }
    out
}

/// Partial state of `count(*), sum(v), sum(f), count(DISTINCT <d>)`.
struct Group {
    key: Datum,
    count: i64,
    sum_v: Option<i64>,
    sum_f: Option<f64>,
    distinct: Vec<Datum>,
}

impl Group {
    fn new(key: Datum) -> Group {
        Group { key, count: 0, sum_v: None, sum_f: None, distinct: vec![] }
    }
}

/// `SELECT <g>, count(*), sum(v), sum(f), count(DISTINCT <d>) FROM t GROUP
/// BY <g>`: groups in key order, each group's key as first seen, each sum
/// folded in scan order. With no `<g>`, one global row.
fn group_referee(t: &[Rec], g: Option<usize>, d: usize) -> Vec<Vec<Datum>> {
    let mut groups: Vec<Group> = Vec::new();
    for r in t {
        let key = g.map_or(Datum::Null, |g| r.keys[g].clone());
        let pos = match groups.iter().position(|gr| same_key(&gr.key, &key)) {
            Some(p) => p,
            None => {
                groups.push(Group::new(key));
                groups.len() - 1
            }
        };
        let gr = &mut groups[pos];
        gr.count += 1;
        if let Some(v) = r.v {
            gr.sum_v = Some(gr.sum_v.unwrap_or(0) + v);
        }
        if let Datum::Float(f) = r.keys[F] {
            gr.sum_f = Some(gr.sum_f.unwrap_or(0.0) + f);
        }
        let dv = &r.keys[d];
        if !dv.is_null() && !gr.distinct.iter().any(|x| same_key(x, dv)) {
            gr.distinct.push(dv.clone());
        }
    }
    if groups.is_empty() && g.is_none() {
        groups.push(Group::new(Datum::Null));
    }
    groups.sort_by(|a, b| key_cmp(&a.key, &b.key));
    groups
        .into_iter()
        .map(|gr| {
            let mut row = if g.is_some() { vec![gr.key] } else { vec![] };
            row.extend([
                Datum::Int(gr.count),
                int_or_null(gr.sum_v),
                gr.sum_f.map_or(Datum::Null, Datum::Float),
                Datum::Int(gr.distinct.len() as i64),
            ]);
            row
        })
        .collect()
}

/// `SELECT DISTINCT <a>, <b> FROM t`: first occurrences in scan order.
fn distinct_referee(t: &[Rec], a: usize, b: usize) -> Vec<Vec<Datum>> {
    let mut out: Vec<Vec<Datum>> = Vec::new();
    for r in t {
        let row = vec![r.keys[a].clone(), r.keys[b].clone()];
        if !out.iter().any(|o| same_key(&o[0], &row[0]) && same_key(&o[1], &row[1])) {
            out.push(row);
        }
    }
    out
}

/// The `p`-th constant an `IN` list over column `col` may hold: its SQL text
/// and its value.
fn in_constant(col: usize, p: usize) -> (String, Datum) {
    let numbers = [
        ("0", Datum::Int(0)),
        ("1.0", Datum::Float(1.0)),
        ("2", Datum::Int(2)),
        ("1.5", Datum::Float(1.5)),
        ("-0.0", Datum::Float(-0.0)),
        ("'NaN'::float", Datum::Float(f64::NAN)),
    ];
    if matches!(col, I | F) {
        let (sql, value) = numbers[p % numbers.len()].clone();
        (sql.to_string(), value)
    } else if p % 5 == 4 {
        ("'x'".to_string(), Datum::from_text("x"))
    } else {
        let date = format!("2020-01-{:02}", p % 5 + 1);
        (format!("'{date}'"), Datum::from_text(&date))
    }
}

/// The `n`-th value no row holds, to pad a list past the folding threshold.
fn in_padding(col: usize, n: usize) -> (String, Datum) {
    if matches!(col, I | F) {
        ((100 + n).to_string(), Datum::Int(100 + n as i64))
    } else {
        let date = format!("2021-02-{:02}", n % 28 + 1);
        (format!("'{date}'"), Datum::from_text(&date))
    }
}

/// An `IN` list of more than `FOLDED_IN_LIST` members: the picked
/// constants, padding, then NULL if asked.
fn in_list(col: usize, picks: &[usize], with_null: bool) -> (Vec<String>, Vec<Datum>) {
    let mut list: Vec<(String, Datum)> = picks.iter().map(|&p| in_constant(col, p)).collect();
    let short = (sqlparse::shape::FOLDED_IN_LIST + 1).saturating_sub(list.len());
    list.extend((0..short).map(|n| in_padding(col, n)));
    if with_null {
        list.push(("NULL".to_string(), Datum::Null));
    }
    list.into_iter().unzip()
}

/// `SELECT id FROM t WHERE <col> [NOT] IN (..)`, under three-valued logic.
fn in_referee(t: &[Rec], col: usize, list: &[Datum], negated: bool) -> Vec<Vec<Datum>> {
    let mut out = Vec::new();
    for (id, r) in t.iter().enumerate() {
        let x = &r.keys[col];
        let mut verdict = Some(false);
        for c in list {
            match sql_eq(x, c) {
                Some(true) => {
                    verdict = Some(true);
                    break;
                }
                None => verdict = None,
                Some(false) => {}
            }
        }
        if verdict.map(|v| v != negated) == Some(true) {
            out.push(vec![Datum::Int(id as i64)]);
        }
    }
    out
}

fn load(s: &mut pgmini::session::Session, name: &str, columnar: bool, rows: &[Rec]) {
    let cols: Vec<String> = KEY_COLS.iter().map(|(c, ty)| format!("{c} {ty}")).collect();
    let using = if columnar { " USING columnar" } else { "" };
    s.execute(&format!("CREATE TABLE {name} (id bigint, {}, v bigint){using}", cols.join(", ")))
        .unwrap();
    let data: Vec<Vec<Datum>> = rows
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let mut row = vec![Datum::Int(id as i64)];
            row.extend(r.keys.iter().cloned());
            row.push(int_or_null(r.v));
            row
        })
        .collect();
    if !data.is_empty() {
        s.copy_rows(name, &[], data).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn keyed_operators_match_the_brute_force_referee(
        t in arb_table(),
        u in arb_table(),
        columnar in any::<bool>(),
        pair in 0..JOIN_PAIRS.len(),
        kind in prop_oneof![
            Just(Kind::Inner), Just(Kind::Left), Just(Kind::Right), Just(Kind::Full)
        ],
        residual in prop_oneof![Just(Residual::None), Just(Residual::Both), Just(Residual::Build)],
        g in 0..KEY_COLS.len(),
        d in 0..KEY_COLS.len(),
        picks in prop::collection::vec(0..30usize, 0..12),
        with_null in any::<bool>(),
        negated in any::<bool>(),
    ) {
        let e = Engine::new_default();
        let mut s = e.session().unwrap();
        load(&mut s, "t", columnar, &t);
        load(&mut s, "u", columnar, &u);
        let name = |c: usize| KEY_COLS[c].0;
        let mut check = |sql: String, want: Vec<Vec<Datum>>| -> Result<(), TestCaseError> {
            let got = s.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            prop_assert_eq!(show(&got), show(&want), "{}", sql);
            Ok(())
        };

        let (a, b) = JOIN_PAIRS[pair];
        let join = match kind {
            Kind::Inner => "JOIN",
            Kind::Left => "LEFT JOIN",
            Kind::Right => "RIGHT JOIN",
            Kind::Full => "FULL JOIN",
        };
        check(
            format!(
                "SELECT t.id, u.id, t.{0}, u.{1} FROM t {join} u ON t.{0} = u.{1}{2}",
                name(a), name(b), residual_sql(residual)
            ),
            join_referee(&t, &u, (a, b), kind, residual),
        )?;

        check(
            format!(
                "SELECT {0}, count(*), sum(v), sum(f), count(DISTINCT {1}) FROM t GROUP BY {0}",
                name(g), name(d)
            ),
            group_referee(&t, Some(g), d),
        )?;
        check(
            format!("SELECT count(*), sum(v), sum(f), count(DISTINCT {}) FROM t", name(d)),
            group_referee(&t, None, d),
        )?;

        check(
            format!("SELECT DISTINCT {}, {} FROM t", name(g), name(d)),
            distinct_referee(&t, g, d),
        )?;

        let (sql, vals) = in_list(g, &picks, with_null);
        let not = if negated { "NOT " } else { "" };
        check(
            format!("SELECT id FROM t WHERE {} {not}IN ({})", name(g), sql.join(", ")),
            in_referee(&t, g, &vals, negated),
        )?;
    }
}
