//! The join-order estimate: each FROM unit's rows after its own conjuncts
//! and the restrictions derived from cross-table ORs, each join conjunct's
//! selectivity, and the greedy left-deep order that `plan_select` builds a
//! multi-unit FROM list in.

use super::or_restrictions::Derived;
use super::{cross_join, node_qualifiers, referenced_qualifiers, PlanNode, PlannerCatalog};
use crate::error::{PgError, PgResult};
use crate::expr::RowScope;
use sqlparse::ast::{BinaryOp, Expr};
use std::sync::Arc;

/// Fixed selectivities of a conjunct on the one FROM unit it restricts, by
/// its top operator: the planner keeps no column statistics, so like
/// PostgreSQL without them it falls back to one default per shape.
const EQ_SEL: f64 = 0.05;
const RANGE_SEL: f64 = 1.0 / 3.0;
const LIKE_SEL: f64 = 0.1;
const IN_LIST_SEL: f64 = 0.2;
const OTHER_SEL: f64 = 0.5;

/// The selectivity of `c`: one default per shape; an `AND` multiplies its
/// sides and an `OR` adds them as independent events.
fn selectivity(c: &Expr) -> f64 {
    match c {
        Expr::Binary { left, op: BinaryOp::And, right } => selectivity(left) * selectivity(right),
        Expr::Binary { left, op: BinaryOp::Or, right } => {
            let (l, r) = (selectivity(left), selectivity(right));
            l + r - l * r
        }
        Expr::Binary { op: BinaryOp::Eq, .. } => EQ_SEL,
        Expr::Binary { op: BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge, .. }
        | Expr::Between { negated: false, .. } => RANGE_SEL,
        Expr::Like { negated: false, .. } => LIKE_SEL,
        Expr::InList { negated: false, .. } => IN_LIST_SEL,
        _ => OTHER_SEL,
    }
}

/// Rows a FROM unit holds before its own conjuncts: a table's live count, a
/// materialised result's actual rows, the largest input of a JOIN tree.
fn unit_rows(node: &PlanNode, cat: &dyn PlannerCatalog) -> f64 {
    match node {
        PlanNode::SeqScan { table, .. } | PlanNode::IndexScan { table, .. } => {
            cat.row_estimate(*table) as f64
        }
        PlanNode::Materialized { rows, .. } => rows.len() as f64,
        PlanNode::Join { left, right, .. } => unit_rows(left, cat).max(unit_rows(right, cat)),
        PlanNode::Filter { input, .. } => unit_rows(input, cat),
    }
}

/// A conjunct that spans several FROM units: the units it references and
/// its selectivity on their joined rows.
struct JoinEdge {
    units: Vec<usize>,
    sel: f64,
}

/// PostgreSQL's guess at the distinct values of a column it has no
/// statistics on (`DEFAULT_NUM_DISTINCT`), for a table with more rows.
const DEFAULT_DISTINCT: f64 = 200.0;

/// Whether `e` is a column that its unit's base table keeps unique: its
/// one-column primary key or the column of a unique index.
fn is_unique_column(e: &Expr, unit: &PlanNode, cat: &dyn PlannerCatalog) -> bool {
    let (Expr::Column { name, .. }, PlanNode::SeqScan { table, .. }) = (e, unit) else {
        return false;
    };
    let Ok(meta) = cat.table_meta_by_id(*table) else { return false };
    meta.indexes.iter().any(|ix| {
        cat.index_meta(*ix).is_ok_and(|ix| {
            ix.unique
                && ix.predicate.is_none()
                && matches!(&ix.exprs[..], [Expr::Column { name: col, .. }] if col == name)
        })
    })
}

/// Join the FROM units greedily by estimated size, left-deep: from a start
/// unit, repeatedly add the smallest unit that a conjunct connects to the
/// units already joined, and the smallest of the rest only when none
/// connects (the one Cartesian step a disconnected FROM list needs). Every
/// unit is tried as the start and the order with the fewest estimated
/// intermediate rows wins. At each join the smaller estimated side goes
/// right, where the executor builds its hash table. FROM position breaks
/// every tie, so the order is a function of the data alone. Returns the tree
/// and its scope, in join order.
pub(super) fn join_in_size_order(
    units: Vec<(PlanNode, RowScope)>,
    conjuncts: &[Expr],
    derived: &[Derived],
    written: &RowScope,
    cat: &dyn PlannerCatalog,
) -> PgResult<(PlanNode, RowScope)> {
    let quals: Vec<Vec<Arc<str>>> =
        units.iter().map(|(_, s)| node_qualifiers(s, 0, s.len())).collect();
    let units_of = |e: &Expr| -> PgResult<Vec<usize>> {
        let mut us: Vec<usize> = referenced_qualifiers(e, written)?
            .iter()
            .filter_map(|q| quals.iter().position(|qs| qs.contains(q)))
            .collect();
        us.sort_unstable();
        us.dedup();
        Ok(us)
    };
    let base: Vec<f64> = units.iter().map(|(n, _)| unit_rows(n, cat)).collect();
    let mut rows = base.clone();
    // a restriction derived from an OR already cuts its table's rows, so
    // the OR itself counts only the rest: its selectivity is divided by its
    // restrictions' (PostgreSQL's `consider_new_or_clause`), at most 1
    let mut counted = vec![1.0; conjuncts.len()];
    for d in derived {
        counted[d.of] *= selectivity(&d.expr);
    }
    let restrictions = derived.iter().map(|d| (&d.expr, 1.0));
    let mut edges: Vec<JoinEdge> = Vec::new();
    for (c, counted) in conjuncts.iter().zip(counted).chain(restrictions) {
        let own = || (selectivity(c) / counted).min(1.0);
        let us = units_of(c)?;
        match us[..] {
            [] => {}
            [u] => rows[u] *= own(),
            _ => {
                // `a.x = b.y` matches one in `distinct`: the rows of a table
                // whose unique column a side is (each row of the other side
                // finds at most one there), else the larger side's guessed
                // distinct values, as PostgreSQL estimates it
                let distinct = match c {
                    Expr::Binary { left, op: BinaryOp::Eq, right } => {
                        match (&units_of(left)?[..], &units_of(right)?[..]) {
                            ([a], [b]) if a != b => {
                                let key_rows = [(left, *a), (right, *b)]
                                    .into_iter()
                                    .filter(|(side, u)| is_unique_column(side, &units[*u].0, cat))
                                    .map(|(_, u)| base[u])
                                    .reduce(f64::max);
                                let guess = |u: usize| base[u].min(DEFAULT_DISTINCT);
                                Some(key_rows.unwrap_or_else(|| guess(*a).max(guess(*b))))
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                };
                let sel = distinct.map_or_else(own, |d| 1.0 / d.max(1.0));
                edges.push(JoinEdge { units: us, sel });
            }
        }
    }

    // every start's greedy chain; the fewest rows in intermediate join
    // results win, the earliest start on a tie
    let intermediate = |chain: &[(usize, f64)]| -> f64 {
        chain[1..chain.len() - 1].iter().map(|&(_, r)| r).sum()
    };
    let chain = (0..units.len())
        .map(|first| greedy_chain(first, &rows, &edges))
        .min_by(|a, b| intermediate(a).total_cmp(&intermediate(b)))
        .unwrap_or_default();
    let mut slots: Vec<Option<(PlanNode, RowScope)>> = units.into_iter().map(Some).collect();
    let mut acc: Option<((PlanNode, RowScope), f64)> = None;
    for (next, out_rows) in chain {
        let unit = slots[next].take().ok_or_else(|| PgError::internal("a FROM unit joins twice"))?;
        acc = Some(match acc {
            None => (unit, out_rows),
            Some((acc, acc_rows)) if acc_rows < rows[next] => (cross_join(unit, acc), out_rows),
            Some((acc, _)) => (cross_join(acc, unit), out_rows),
        });
    }
    acc.map(|(acc, _)| acc).ok_or_else(|| PgError::internal("a join of no FROM units"))
}

/// The greedy join order from unit `first`: each unit in the order it joins,
/// with the estimated rows of the result once it has joined (the first
/// unit's own rows for the first).
fn greedy_chain(first: usize, rows: &[f64], edges: &[JoinEdge]) -> Vec<(usize, f64)> {
    let smallest = |pool: &[usize]| -> Option<usize> {
        pool.iter().copied().min_by(|a, b| rows[*a].total_cmp(&rows[*b]).then(a.cmp(b)))
    };
    // the edges that become join conditions when `u` joins `joined`
    let closing = |u: usize, joined: &[usize]| -> Vec<&JoinEdge> {
        edges
            .iter()
            .filter(|e| {
                e.units.contains(&u) && e.units.iter().all(|x| *x == u || joined.contains(x))
            })
            .collect()
    };
    let mut remaining: Vec<usize> = (0..rows.len()).filter(|&u| u != first).collect();
    let mut joined = vec![first];
    let mut chain = vec![(first, rows[first])];
    let mut acc_rows = rows[first];
    loop {
        let connected: Vec<usize> =
            remaining.iter().copied().filter(|&u| !closing(u, &joined).is_empty()).collect();
        let Some(next) = smallest(if connected.is_empty() { &remaining } else { &connected })
        else {
            return chain;
        };
        let sel: f64 = closing(next, &joined).iter().map(|e| e.sel).product();
        acc_rows = (acc_rows * rows[next] * sel).max(1.0);
        chain.push((next, acc_rows));
        remaining.retain(|&u| u != next);
        joined.push(next);
    }
}
