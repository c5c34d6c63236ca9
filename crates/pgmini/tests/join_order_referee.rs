//! Brute-force referee for multi-table inner joins.
//!
//! Generates 3–5 tiny tables (NULLs included), a WHERE clause of equality,
//! range, IN-list, `IS [NOT] NULL` and `OR` conjuncts over them (an `OR`
//! branch may be a conjunction over several tables, as in TPC-H Q19), and a
//! random FROM order, then
//! compares the engine's result multiset with a product-and-filter evaluation
//! written here under SQL's three-valued logic. `SELECT *` also pins the
//! output column order to the written FROM order, whatever order the planner
//! joins in.

use pgmini::engine::Engine;
use pgmini::types::Datum;
use proptest::prelude::*;

const MAX_TABLES: usize = 5;
const COLS: [&str; 2] = ["a", "b"];

type Table = Vec<[Option<i64>; 2]>;

/// A column reference or a constant.
#[derive(Debug, Clone, Copy)]
enum Atom {
    Col(usize, usize),
    Const(i64),
}

#[derive(Debug, Clone)]
enum Cond {
    Cmp(Atom, &'static str, Atom),
    In(Atom, Vec<i64>),
    IsNull(Atom, bool),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
}

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn atom_sql(a: Atom) -> String {
    match a {
        Atom::Col(t, c) => format!("t{t}.{}", COLS[c]),
        Atom::Const(v) => v.to_string(),
    }
}

fn cond_sql(c: &Cond) -> String {
    match c {
        Cond::Cmp(l, op, r) => format!("{} {op} {}", atom_sql(*l), atom_sql(*r)),
        Cond::In(a, list) => {
            let list: Vec<String> = list.iter().map(i64::to_string).collect();
            format!("{} IN ({})", atom_sql(*a), list.join(", "))
        }
        Cond::IsNull(a, negated) => {
            format!("{} IS {}NULL", atom_sql(*a), if *negated { "NOT " } else { "" })
        }
        Cond::And(l, r) => format!("({} AND {})", cond_sql(l), cond_sql(r)),
        Cond::Or(l, r) => format!("({} OR {})", cond_sql(l), cond_sql(r)),
    }
}

/// SQL truth value of `c` on one combination of rows (`None` is unknown).
fn eval(c: &Cond, rows: &[[Option<i64>; 2]]) -> Option<bool> {
    let value = |a: Atom| match a {
        Atom::Col(t, col) => rows[t][col],
        Atom::Const(v) => Some(v),
    };
    match c {
        Cond::Cmp(l, op, r) => {
            let (l, r) = (value(*l)?, value(*r)?);
            Some(match *op {
                "=" => l == r,
                "<>" => l != r,
                "<" => l < r,
                "<=" => l <= r,
                ">" => l > r,
                _ => l >= r,
            })
        }
        Cond::In(a, list) => Some(list.contains(&value(*a)?)),
        Cond::IsNull(a, negated) => Some(value(*a).is_none() != *negated),
        Cond::And(l, r) => match (eval(l, rows), eval(r, rows)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Cond::Or(l, r) => match (eval(l, rows), eval(r, rows)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
    }
}

/// One comparison or IN-list, with table indices taken modulo `k` later.
fn arb_leaf() -> impl Strategy<Value = Cond> {
    let col = (0..MAX_TABLES, 0..2usize).prop_map(|(t, c)| Atom::Col(t, c));
    let konst = (0..4i64).prop_map(Atom::Const);
    let op = (0..OPS.len()).prop_map(|i| OPS[i]);
    prop_oneof![
        // join predicates: equality dominates, as in real schemas
        3 => (col.clone(), col.clone()).prop_map(|(l, r)| Cond::Cmp(l, "=", r)),
        1 => (col.clone(), op.clone(), col.clone()).prop_map(|(l, op, r)| Cond::Cmp(l, op, r)),
        2 => (col.clone(), op, konst).prop_map(|(l, op, r)| Cond::Cmp(l, op, r)),
        1 => (col.clone(), prop::collection::vec(0..4i64, 1..3)).prop_map(|(a, l)| Cond::In(a, l)),
        1 => (col, any::<bool>()).prop_map(|(a, negated)| Cond::IsNull(a, negated)),
    ]
}

/// `op` over two or more conditions, left-deep.
fn fold(op: fn(Box<Cond>, Box<Cond>) -> Cond, conds: Vec<Cond>) -> Cond {
    let mut it = conds.into_iter();
    let first = it.next().expect("at least one condition");
    it.fold(first, |acc, c| op(Box::new(acc), Box::new(c)))
}

/// An `OR` branch: one leaf, or a conjunction of leaves that may span tables
/// and may itself hold an `OR` of leaves.
fn arb_branch() -> impl Strategy<Value = Cond> {
    let or_leaves = (arb_leaf(), arb_leaf()).prop_map(|(l, r)| Cond::Or(Box::new(l), Box::new(r)));
    let part = prop_oneof![4 => arb_leaf(), 1 => or_leaves];
    prop_oneof![
        1 => arb_leaf(),
        2 => prop::collection::vec(part, 2..4).prop_map(|cs| fold(Cond::And, cs)),
    ]
}

/// A leaf on table `t` alone: a comparison with a constant, an IN list or
/// IS [NOT] NULL.
fn arb_leaf_on(t: usize) -> impl Strategy<Value = Cond> {
    let col = (0..2usize).prop_map(move |c| Atom::Col(t, c));
    let op = (0..OPS.len()).prop_map(|i| OPS[i]);
    prop_oneof![
        2 => (col.clone(), op, (0..4i64).prop_map(Atom::Const))
            .prop_map(|(l, op, r)| Cond::Cmp(l, op, r)),
        1 => (col.clone(), prop::collection::vec(0..4i64, 1..3)).prop_map(|(a, l)| Cond::In(a, l)),
        1 => (col, any::<bool>()).prop_map(|(a, negated)| Cond::IsNull(a, negated)),
    ]
}

/// Q19's shape: an OR whose every branch restricts the same two tables, each
/// by a leaf on it alone, and may add a leaf of any shape.
fn arb_restricting_or() -> impl Strategy<Value = Cond> {
    (0..MAX_TABLES, 0..MAX_TABLES).prop_flat_map(|(t, u)| {
        let branch = (arb_leaf_on(t), arb_leaf_on(u), prop::option::of(arb_leaf()))
            .prop_map(|(a, b, extra)| fold(Cond::And, [a, b].into_iter().chain(extra).collect()));
        prop::collection::vec(branch, 2..4).prop_map(|cs| fold(Cond::Or, cs))
    })
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        4 => arb_leaf(),
        1 => (arb_leaf(), arb_leaf()).prop_map(|(l, r)| Cond::Or(Box::new(l), Box::new(r))),
        2 => prop::collection::vec(arb_branch(), 2..4).prop_map(|cs| fold(Cond::Or, cs)),
        2 => arb_restricting_or(),
    ]
}

/// Map every table index of `c` into `0..k`.
fn clamp(c: Cond, k: usize) -> Cond {
    let atom = |a: Atom| match a {
        Atom::Col(t, col) => Atom::Col(t % k, col),
        konst => konst,
    };
    match c {
        Cond::Cmp(l, op, r) => Cond::Cmp(atom(l), op, atom(r)),
        Cond::In(a, list) => Cond::In(atom(a), list),
        Cond::IsNull(a, negated) => Cond::IsNull(atom(a), negated),
        Cond::And(l, r) => Cond::And(Box::new(clamp(*l, k)), Box::new(clamp(*r, k))),
        Cond::Or(l, r) => Cond::Or(Box::new(clamp(*l, k)), Box::new(clamp(*r, k))),
    }
}

fn arb_table() -> impl Strategy<Value = Table> {
    let cell = prop::option::of(0..4i64);
    prop::collection::vec((cell.clone(), cell).prop_map(|(a, b)| [a, b]), 0..7)
}

/// Every combination of one row per table, in `order`, kept when all
/// conjuncts are true; each result row lists the tables' columns in `order`.
fn referee(tables: &[Table], order: &[usize], conds: &[Cond]) -> Vec<Vec<Option<i64>>> {
    let mut out = Vec::new();
    let mut pick = vec![0usize; tables.len()];
    if tables.iter().any(Vec::is_empty) {
        return out;
    }
    loop {
        let rows: Vec<[Option<i64>; 2]> =
            pick.iter().enumerate().map(|(t, &i)| tables[t][i]).collect();
        if conds.iter().all(|c| eval(c, &rows) == Some(true)) {
            out.push(order.iter().flat_map(|&t| rows[t]).collect());
        }
        // odometer over the row indices
        let mut t = 0;
        loop {
            if t == tables.len() {
                return out;
            }
            pick[t] += 1;
            if pick[t] < tables[t].len() {
                break;
            }
            pick[t] = 0;
            t += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn inner_joins_match_the_brute_force_referee(
        k in 3..=MAX_TABLES,
        tables in prop::collection::vec(arb_table(), MAX_TABLES),
        conds in prop::collection::vec(arb_cond(), 1..7),
        shuffle in prop::collection::vec(any::<u32>(), MAX_TABLES),
    ) {
        let tables = &tables[..k];
        let conds: Vec<Cond> = conds.into_iter().map(|c| clamp(c, k)).collect();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&t| (shuffle[t], t));

        let e = Engine::new_default();
        let mut s = e.session().unwrap();
        for (t, rows) in tables.iter().enumerate() {
            s.execute(&format!("CREATE TABLE t{t} (a bigint, b bigint)")).unwrap();
            for r in rows {
                let v: Vec<String> =
                    r.iter().map(|c| c.map_or("NULL".to_string(), |v| v.to_string())).collect();
                s.execute(&format!("INSERT INTO t{t} VALUES ({})", v.join(", "))).unwrap();
            }
        }
        let from: Vec<String> = order.iter().map(|t| format!("t{t}")).collect();
        let wher: Vec<String> = conds.iter().map(cond_sql).collect();
        let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), wher.join(" AND "));

        let mut got: Vec<Vec<Option<i64>>> = s
            .query(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|d| match d {
                        Datum::Null => None,
                        Datum::Int(v) => Some(v),
                        other => panic!("{sql}: unexpected {other:?}"),
                    })
                    .collect()
            })
            .collect();
        let mut want = referee(tables, &order, &conds);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "{}", sql);
    }
}
