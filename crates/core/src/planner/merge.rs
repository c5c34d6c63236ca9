//! Aggregate splitting and the coordinator merge step.
//!
//! When a multi-shard query's GROUP BY does not include the distribution
//! column, the pushdown planner rewrites the worker query to produce
//! *partial* aggregates per shard, and this module combines them on the
//! coordinator: `count → sum of counts`, `sum → sum`, `min/max → min/max`,
//! `avg → sum/count recomposed at the end` — the Figure 5 call flow.
//!
//! [`apply`] is the single entry point for the coordinator merge step: every
//! [`Merge`] policy — pass-through, DML counts, concatenate-and-re-sort,
//! partial-aggregate combine — turns a statement's task results into its
//! answer here, and reports the coordinator CPU the merge is charged.

use super::analysis::KeyColumns;
use super::{Merge, SortCol};
use pgmini::cost::CostModel;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::expr::{bind, eval, ColumnRef, EvalCtx, RowScope};
use pgmini::session::QueryResult;
use pgmini::types::{Datum, KeyTable, Row};
use sqlparse::ast::{
    BinaryOp, Expr, FuncCall, Literal, OrderByItem, Select, SelectItem, TypeName,
};
use sqlparse::deparse_expr;

/// How one partial-aggregate column combines across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    Sum,
    Min,
    Max,
}

/// Coordinator-side merge description.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Leading worker-row columns that are group keys.
    pub group_cols: usize,
    /// Combiners for the partial columns that follow the group keys.
    pub partials: Vec<Combine>,
    /// Final output expressions over the merged row. Scope: `__g.c{i}` for
    /// group key i, `__p.c{j}` for combined partial j.
    pub final_exprs: Vec<Expr>,
    pub having: Option<Expr>,
    /// Sort over the final output (index, desc).
    pub sort: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    /// Output names of the select list; hidden sort columns past its length
    /// are dropped.
    pub columns: Vec<String>,
}

/// Result of splitting a SELECT for pushdown-with-merge.
#[derive(Debug)]
pub struct SplitAggregation {
    /// The query each shard runs (group keys + partial aggregates).
    pub worker_query: Select,
    pub merge: MergePlan,
}

fn group_ref(i: usize) -> Expr {
    Expr::Column { table: Some("__g".into()), name: format!("c{i}") }
}

fn partial_ref(j: usize) -> Expr {
    Expr::Column { table: Some("__p".into()), name: format!("c{j}") }
}

/// Is this function call an aggregate?
fn agg_kind(f: &FuncCall) -> Option<&'static str> {
    match (f.name.as_str(), f.star) {
        ("count", _) => Some("count"),
        ("sum", false) => Some("sum"),
        ("avg", false) => Some("avg"),
        ("min", false) => Some("min"),
        ("max", false) => Some("max"),
        _ => None,
    }
}

/// Does the query aggregate — a GROUP BY, or an aggregate call in the select
/// list or HAVING? The one test every tier asks.
pub fn is_aggregate_query(sel: &Select) -> bool {
    let calls_aggregate = |e: &Expr| {
        let mut found = false;
        e.walk(&mut |x| found |= matches!(x, Expr::Func(f) if agg_kind(f).is_some()));
        found
    };
    !sel.group_by.is_empty()
        || sel.having.as_ref().is_some_and(calls_aggregate)
        || sel
            .projection
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if calls_aggregate(expr)))
}

/// The expression a GROUP BY item stands for: ordinals point into the select
/// list (`None` when they point outside it).
pub fn group_expr<'a>(sel: &'a Select, g: &'a Expr) -> Option<&'a Expr> {
    let Expr::Literal(Literal::Int(n)) = g else { return Some(g) };
    match (*n as usize).checked_sub(1).and_then(|i| sel.projection.get(i)) {
        Some(SelectItem::Expr { expr, .. }) => Some(expr),
        _ => None,
    }
}

/// Split a top-level SELECT into worker partial query + coordinator merge.
/// `key` names the columns holding the distribution key at this level (used
/// to validate `count(DISTINCT ..)`).
pub fn split_aggregation(sel: &Select, key: &KeyColumns) -> PgResult<SplitAggregation> {
    // resolve GROUP BY ordinals against the projection
    let mut group_exprs: Vec<Expr> = Vec::new();
    for g in &sel.group_by {
        match group_expr(sel, g) {
            Some(expr) => group_exprs.push(expr.clone()),
            None => {
                return Err(PgError::new(
                    ErrorCode::Syntax,
                    format!("GROUP BY position {} is not in the select list", deparse_expr(g)),
                ))
            }
        }
    }
    let group_keys: Vec<String> = group_exprs.iter().map(normal_key).collect();

    // rewrite projection: collect partial aggregate calls
    let mut partial_items: Vec<(Expr, Combine)> = Vec::new();
    let mut partial_keys: Vec<String> = Vec::new();
    let mut final_exprs: Vec<Expr> = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for item in &sel.projection {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(PgError::unsupported("wildcard in a merged aggregate query"));
        };
        final_exprs.push(rewrite_to_final(
            expr,
            &group_keys,
            &mut partial_items,
            &mut partial_keys,
            key,
        )?);
        names.push(alias.clone());
    }
    let visible = final_exprs.len();
    let having = sel
        .having
        .as_ref()
        .map(|h| rewrite_to_final(h, &group_keys, &mut partial_items, &mut partial_keys, key))
        .transpose()?;

    // ORDER BY → indexes into final projection (appending hidden columns)
    let mut sort: Vec<(usize, bool)> = Vec::new();
    for OrderByItem { expr, desc } in &sel.order_by {
        let idx = match expr {
            Expr::Literal(Literal::Int(n)) => {
                (*n as usize).checked_sub(1).filter(|i| *i < visible).ok_or_else(|| {
                    PgError::new(ErrorCode::Syntax, "ORDER BY position out of range")
                })?
            }
            Expr::Column { table: None, name }
                if names.iter().any(|a| a.as_deref() == Some(name)) =>
            {
                names.iter().position(|a| a.as_deref() == Some(name.as_str())).expect("checked")
            }
            other => {
                let rewritten = rewrite_to_final(
                    other,
                    &group_keys,
                    &mut partial_items,
                    &mut partial_keys,
                    key,
                )?;
                if let Some(i) = final_exprs.iter().position(|e| e == &rewritten) {
                    i
                } else {
                    final_exprs.push(rewritten);
                    names.push(None);
                    final_exprs.len() - 1
                }
            }
        };
        sort.push((idx, *desc));
    }

    // build the worker query: group keys then partial aggregates
    let mut worker = Select::empty();
    worker.from = sel.from.clone();
    worker.where_clause = sel.where_clause.clone();
    for (i, g) in group_exprs.iter().enumerate() {
        worker
            .projection
            .push(SelectItem::Expr { expr: g.clone(), alias: Some(format!("g{i}")) });
    }
    for (j, (p, _)) in partial_items.iter().enumerate() {
        worker
            .projection
            .push(SelectItem::Expr { expr: p.clone(), alias: Some(format!("p{j}")) });
    }
    worker.group_by = group_exprs;

    Ok(SplitAggregation {
        worker_query: worker,
        merge: MergePlan {
            group_cols: group_keys.len(),
            partials: partial_items.into_iter().map(|(_, c)| c).collect(),
            final_exprs,
            having,
            sort,
            limit: sel.limit.as_ref().and_then(expr_u64),
            offset: sel.offset.as_ref().and_then(expr_u64),
            columns: pgmini::plan::derive_output_names(sel),
        },
    })
}

/// A non-negative integer literal (LIMIT / OFFSET operands).
pub fn expr_u64(e: &Expr) -> Option<u64> {
    match e {
        Expr::Literal(Literal::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn normal_key(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => format!("col:{name}"),
        other => deparse_expr(other),
    }
}

/// Register a partial aggregate item; returns its column index.
fn push_partial(
    items: &mut Vec<(Expr, Combine)>,
    keys: &mut Vec<String>,
    expr: Expr,
    combine: Combine,
) -> usize {
    let key = deparse_expr(&expr);
    if let Some(i) = keys.iter().position(|k| k == &key) {
        return i;
    }
    items.push((expr, combine));
    keys.push(key);
    items.len() - 1
}

/// Rewrite an expression into the final (merge-side) form, collecting the
/// partial aggregates the workers must produce.
fn rewrite_to_final(
    e: &Expr,
    group_keys: &[String],
    partials: &mut Vec<(Expr, Combine)>,
    partial_keys: &mut Vec<String>,
    key: &KeyColumns,
) -> PgResult<Expr> {
    if let Some(i) = group_keys.iter().position(|k| k == &normal_key(e)) {
        return Ok(group_ref(i));
    }
    if let Expr::Func(f) = e {
        if let Some(kind) = agg_kind(f) {
            if f.distinct {
                // DISTINCT aggregates only push down when the argument is the
                // distribution column (each value lives on exactly one shard)
                if !f.args.first().is_some_and(|arg| key.holds(arg)) {
                    return Err(PgError::unsupported(
                        "DISTINCT aggregates on non-distribution columns require repartitioning",
                    ));
                }
                let idx = push_partial(partials, partial_keys, e.clone(), Combine::Sum);
                return Ok(partial_ref(idx));
            }
            return Ok(match kind {
                "count" | "sum" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), Combine::Sum);
                    partial_ref(idx)
                }
                "min" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), Combine::Min);
                    partial_ref(idx)
                }
                "max" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), Combine::Max);
                    partial_ref(idx)
                }
                "avg" => {
                    // avg(x) = sum(x)::float / nullif(count(x), 0)
                    let arg = f.args[0].clone();
                    let sum_idx = push_partial(
                        partials,
                        partial_keys,
                        Expr::Func(FuncCall::new("sum", vec![arg.clone()])),
                        Combine::Sum,
                    );
                    let count_idx = push_partial(
                        partials,
                        partial_keys,
                        Expr::Func(FuncCall::new("count", vec![arg])),
                        Combine::Sum,
                    );
                    Expr::bin(
                        Expr::Cast {
                            expr: Box::new(partial_ref(sum_idx)),
                            ty: TypeName::Float,
                        },
                        BinaryOp::Div,
                        Expr::Func(FuncCall::new(
                            "nullif",
                            vec![partial_ref(count_idx), Expr::int(0)],
                        )),
                    )
                }
                _ => unreachable!("agg_kind covers these"),
            });
        }
    }
    // recurse structurally; bare columns that are neither group keys nor
    // inside aggregates are an error (same rule PostgreSQL enforces)
    Ok(match e {
        Expr::Column { .. } => {
            return Err(PgError::new(
                ErrorCode::Syntax,
                format!(
                    "column {} must appear in the GROUP BY clause or be used in an aggregate",
                    deparse_expr(e)
                ),
            ))
        }
        Expr::Literal(_) | Expr::Param(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_to_final(expr, group_keys, partials, partial_keys, key)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_to_final(left, group_keys, partials, partial_keys, key)?),
            op: *op,
            right: Box::new(rewrite_to_final(
                right,
                group_keys,
                partials,
                partial_keys,
                key,
            )?),
        },
        Expr::Cast { expr, ty } => Expr::Cast {
            expr: Box::new(rewrite_to_final(expr, group_keys, partials, partial_keys, key)?),
            ty: *ty,
        },
        Expr::Case { operand, branches, else_result } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| {
                    rewrite_to_final(o, group_keys, partials, partial_keys, key)
                        .map(Box::new)
                })
                .transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((
                        rewrite_to_final(w, group_keys, partials, partial_keys, key)?,
                        rewrite_to_final(t, group_keys, partials, partial_keys, key)?,
                    ))
                })
                .collect::<PgResult<_>>()?,
            else_result: else_result
                .as_ref()
                .map(|x| {
                    rewrite_to_final(x, group_keys, partials, partial_keys, key)
                        .map(Box::new)
                })
                .transpose()?,
        },
        Expr::Func(f) => Expr::Func(FuncCall {
            name: f.name.clone(),
            args: f
                .args
                .iter()
                .map(|a| rewrite_to_final(a, group_keys, partials, partial_keys, key))
                .collect::<PgResult<_>>()?,
            distinct: f.distinct,
            star: f.star,
        }),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_to_final(expr, group_keys, partials, partial_keys, key)?),
            negated: *negated,
        },
        other => {
            return Err(PgError::unsupported(format!(
                "expression over aggregates not supported in merge step: {}",
                deparse_expr(other)
            )))
        }
    })
}

/// Execute the merge: combine worker rows, evaluate final expressions,
/// filter, sort, limit. Returns (rows, merge CPU work units).
pub fn execute_merge(plan: &MergePlan, worker_rows: Vec<Row>) -> PgResult<(Vec<Row>, u64)> {
    let work = worker_rows.len() as u64;
    // group and combine: a slot per group key, its partials side by side in
    // `accs`, combined in arrival order
    let width = plan.partials.len();
    let mut groups = KeyTable::new(plan.group_cols);
    let mut accs: Vec<Datum> = Vec::new();
    for row in worker_rows {
        if row.len() < plan.group_cols + width {
            return Err(PgError::internal("merge row arity mismatch"));
        }
        let incoming = &row[plan.group_cols..plan.group_cols + width];
        match groups.insert(&row[..plan.group_cols]) {
            (_, true) => accs.extend_from_slice(incoming),
            (slot, false) => {
                let acc = &mut accs[slot * width..(slot + 1) * width];
                for ((a, b), combine) in acc.iter_mut().zip(incoming).zip(&plan.partials) {
                    *a = combine_datum(a, b, *combine)?;
                }
            }
        }
    }
    // when there is no GROUP BY and no rows arrived, aggregates still emit
    // one all-NULL/0 row; workers always return at least one partial row per
    // shard for global aggregates, so groups is only empty with zero shards
    if groups.is_empty() && plan.group_cols == 0 {
        groups.insert(&[]);
        accs.resize(width, Datum::Null);
    }

    // final projection scope: __g.c0.. then __p.c0..
    let mut cols: Vec<ColumnRef> =
        (0..plan.group_cols).map(|i| ColumnRef::new(Some("__g"), &format!("c{i}"))).collect();
    cols.extend(
        (0..plan.partials.len()).map(|j| ColumnRef::new(Some("__p"), &format!("c{j}"))),
    );
    let scope = RowScope { cols };
    let bound_final: Vec<pgmini::expr::BExpr> = plan
        .final_exprs
        .iter()
        .map(|e| bind(e, &scope))
        .collect::<PgResult<_>>()?;
    let bound_having =
        plan.having.as_ref().map(|h| bind(h, &scope)).transpose()?;
    let ctx = EvalCtx::default();

    // groups leave in key order
    let mut out: Vec<Row> = Vec::with_capacity(groups.len());
    for slot in groups.sorted_slots() {
        let mut merged = groups.key(slot).to_vec();
        merged.extend_from_slice(&accs[slot * width..(slot + 1) * width]);
        if let Some(h) = &bound_having {
            if !matches!(eval(h, &merged, &ctx)?, Datum::Bool(true)) {
                continue;
            }
        }
        let row: Row =
            bound_final.iter().map(|b| eval(b, &merged, &ctx)).collect::<PgResult<_>>()?;
        out.push(row);
    }

    sort_and_trim(&mut out, &plan.sort, plan.offset, plan.limit, plan.columns.len());
    Ok((out, work))
}

/// The tail every row-returning merge shares: re-sort on `(column, desc)`
/// keys, apply OFFSET then LIMIT, and drop hidden sort columns past `visible`.
fn sort_and_trim(
    rows: &mut Vec<Row>,
    sort: &[(usize, bool)],
    offset: Option<u64>,
    limit: Option<u64>,
    visible: usize,
) {
    if !sort.is_empty() {
        rows.sort_by(|a, b| {
            for (idx, desc) in sort {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(off) = offset {
        let off = (off as usize).min(rows.len());
        rows.drain(..off);
    }
    if let Some(lim) = limit {
        rows.truncate(lim as usize);
    }
    for r in rows {
        r.truncate(visible);
    }
}

/// A statement's answer after the coordinator merge step.
#[derive(Debug)]
pub struct Merged {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub affected: u64,
    /// Coordinator CPU the merge is charged, in virtual ms.
    pub cpu_ms: f64,
}

impl Merge {
    /// Name of the policy in trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            Merge::PassThrough => "pass_through",
            Merge::AffectedSum => "affected_sum",
            Merge::AffectedFirst => "affected_first",
            Merge::Concat { .. } => "concat",
            Merge::GroupAgg(_) => "group_agg",
        }
    }
}

/// All task rows in task order, under the first row-returning task's column
/// names.
fn concat_rows(results: Vec<QueryResult>) -> (Vec<String>, Vec<Row>) {
    let mut columns = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for r in results {
        if let QueryResult::Rows { columns: c, rows: mut rs } = r {
            if columns.is_empty() {
                columns = c;
            }
            rows.append(&mut rs);
        }
    }
    (columns, rows)
}

/// Combine a statement's task results (in task order) as `merge` prescribes.
pub fn apply(merge: &Merge, results: Vec<QueryResult>, model: &CostModel) -> PgResult<Merged> {
    let mut out = Merged { columns: Vec::new(), rows: Vec::new(), affected: 0, cpu_ms: 0.0 };
    match merge {
        Merge::PassThrough => match results.into_iter().next() {
            Some(QueryResult::Rows { columns, rows }) => {
                out.columns = columns;
                out.rows = rows;
            }
            Some(QueryResult::Affected(n)) => out.affected = n,
            Some(QueryResult::Empty) | None => {}
        },
        Merge::AffectedSum => out.affected = results.iter().map(QueryResult::affected).sum(),
        Merge::AffectedFirst => {
            out.affected = results.first().map(QueryResult::affected).unwrap_or(0)
        }
        Merge::Concat { sort, limit, offset, distinct, visible, appended } => {
            let (mut columns, mut rows) = concat_rows(results);
            out.cpu_ms = model.cpu_tuple_ms * rows.len() as f64;
            // a wildcard projection's arity is only known now; hidden sort
            // columns always sit at the end of the worker rows
            let arity = rows.first().map(|r| r.len()).unwrap_or(columns.len());
            let projected = arity.saturating_sub(*appended);
            let visible = if *visible == usize::MAX { projected } else { *visible };
            if *distinct {
                let mut seen = KeyTable::new(visible.min(arity));
                rows.retain(|r| seen.insert(&r[..visible.min(arity)]).1);
            }
            let sort: Vec<(usize, bool)> = sort
                .iter()
                .map(|(col, desc)| match col {
                    SortCol::Index(i) => (*i, *desc),
                    SortCol::Appended(j) => (projected + j, *desc),
                })
                .collect();
            sort_and_trim(&mut rows, &sort, *offset, *limit, visible);
            columns.truncate(visible);
            out.columns = columns;
            out.rows = rows;
        }
        Merge::GroupAgg(mplan) => {
            let (merged, work) = execute_merge(mplan, concat_rows(results).1)?;
            out.cpu_ms = model.cpu_tuple_ms * (work as f64 + merged.len() as f64);
            out.columns = mplan.columns.clone();
            out.rows = merged;
        }
    }
    Ok(out)
}

fn combine_datum(a: &Datum, b: &Datum, combine: Combine) -> PgResult<Datum> {
    if a.is_null() {
        return Ok(b.clone());
    }
    if b.is_null() {
        return Ok(a.clone());
    }
    Ok(match combine {
        Combine::Sum => match (a, b) {
            (Datum::Int(x), Datum::Int(y)) => Datum::Int(x.wrapping_add(*y)),
            _ => Datum::Float(a.as_f64()? + b.as_f64()?),
        },
        Combine::Min => {
            if a.sql_cmp(b) == Some(std::cmp::Ordering::Greater) {
                b.clone()
            } else {
                a.clone()
            }
        }
        Combine::Max => {
            if a.sql_cmp(b) == Some(std::cmp::Ordering::Less) {
                b.clone()
            } else {
                a.clone()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::ast::Statement;
    use sqlparse::{deparse, parse};

    fn w_id() -> KeyColumns {
        KeyColumns(vec![("t".to_string(), "w_id".to_string())])
    }

    fn split(sql: &str) -> SplitAggregation {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        split_aggregation(&sel, &w_id()).unwrap()
    }

    #[test]
    fn count_and_sum_split_to_sum_merge() {
        let s = split("SELECT region, count(*), sum(amount) FROM t GROUP BY region");
        let text = deparse(&Statement::Select(Box::new(s.worker_query.clone())));
        assert!(text.contains("count(*)"), "{text}");
        assert!(text.contains("sum(amount)"), "{text}");
        assert!(text.contains("GROUP BY region"), "{text}");
        assert_eq!(s.merge.group_cols, 1);
        assert_eq!(s.merge.partials, vec![Combine::Sum, Combine::Sum]);
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let s = split("SELECT avg(x) FROM t");
        let text = deparse(&Statement::Select(Box::new(s.worker_query.clone())));
        assert!(text.contains("sum(x)"), "{text}");
        assert!(text.contains("count(x)"), "{text}");
        assert!(!text.contains("avg"), "avg must not reach workers: {text}");
        // merge of [sum, count] partials: (10+20)/(2+3) = 6
        let rows = vec![
            vec![Datum::Float(10.0), Datum::Int(2)],
            vec![Datum::Float(20.0), Datum::Int(3)],
        ];
        let (out, _) = execute_merge(&s.merge, rows).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Datum::Float(6.0));
    }

    #[test]
    fn merge_groups_and_combines() {
        let s = split("SELECT region, count(*), min(x), max(x) FROM t GROUP BY region");
        let rows = vec![
            vec![Datum::from_text("eu"), Datum::Int(5), Datum::Int(1), Datum::Int(9)],
            vec![Datum::from_text("eu"), Datum::Int(3), Datum::Int(0), Datum::Int(4)],
            vec![Datum::from_text("us"), Datum::Int(2), Datum::Int(7), Datum::Int(8)],
        ];
        let (out, _) = execute_merge(&s.merge, rows).unwrap();
        assert_eq!(out.len(), 2);
        // groups leave in key order: eu before us
        assert_eq!(out[0], vec![Datum::from_text("eu"), Datum::Int(8), Datum::Int(0), Datum::Int(9)]);
        assert_eq!(out[1], vec![Datum::from_text("us"), Datum::Int(2), Datum::Int(7), Datum::Int(8)]);
    }

    #[test]
    fn having_and_order_apply_after_merge() {
        let s = split(
            "SELECT region, sum(x) AS total FROM t GROUP BY region \
             HAVING sum(x) > 5 ORDER BY total DESC LIMIT 1",
        );
        let rows = vec![
            vec![Datum::from_text("a"), Datum::Int(4)],
            vec![Datum::from_text("a"), Datum::Int(4)],
            vec![Datum::from_text("b"), Datum::Int(3)],
            vec![Datum::from_text("c"), Datum::Int(9)],
        ];
        let (out, _) = execute_merge(&s.merge, rows).unwrap();
        // a=8, c=9 pass having; order desc, limit 1 → c
        assert_eq!(out, vec![vec![Datum::from_text("c"), Datum::Int(9)]]);
    }

    #[test]
    fn arithmetic_over_aggregates() {
        let s = split("SELECT 100 * sum(a) / sum(b) FROM t");
        let rows = vec![
            vec![Datum::Int(2), Datum::Int(5)],
            vec![Datum::Int(3), Datum::Int(5)],
        ];
        let (out, _) = execute_merge(&s.merge, rows).unwrap();
        assert_eq!(out[0][0], Datum::Int(50));
    }

    #[test]
    fn count_distinct_requires_dist_column() {
        let Statement::Select(sel) =
            parse("SELECT count(DISTINCT other) FROM t").unwrap()
        else {
            panic!()
        };
        let err = split_aggregation(&sel, &w_id()).unwrap_err();
        assert_eq!(err.code, ErrorCode::FeatureNotSupported);
        // on the distribution column it's allowed
        let Statement::Select(sel) =
            parse("SELECT count(DISTINCT w_id) FROM t").unwrap()
        else {
            panic!()
        };
        assert!(split_aggregation(&sel, &w_id()).is_ok());
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let Statement::Select(sel) =
            parse("SELECT region, other, count(*) FROM t GROUP BY region").unwrap()
        else {
            panic!()
        };
        assert!(split_aggregation(&sel, &KeyColumns::default()).is_err());
    }

    #[test]
    fn group_by_ordinal_resolves() {
        let s = split("SELECT region, count(*) FROM t GROUP BY 1 ORDER BY 2 DESC");
        assert_eq!(s.merge.group_cols, 1);
        assert_eq!(s.merge.sort, vec![(1, true)]);
    }

    #[test]
    fn sum_combines_floats_and_ints() {
        assert_eq!(
            combine_datum(&Datum::Int(2), &Datum::Int(3), Combine::Sum).unwrap(),
            Datum::Int(5)
        );
        assert_eq!(
            combine_datum(&Datum::Float(2.5), &Datum::Int(3), Combine::Sum).unwrap(),
            Datum::Float(5.5)
        );
        assert_eq!(
            combine_datum(&Datum::Null, &Datum::Int(3), Combine::Sum).unwrap(),
            Datum::Int(3)
        );
    }

    fn rows_of(columns: &[&str], rows: Vec<Vec<i64>>) -> QueryResult {
        QueryResult::Rows {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: rows.into_iter().map(|r| r.into_iter().map(Datum::Int).collect()).collect(),
        }
    }

    fn concat(
        sort: Vec<(SortCol, bool)>,
        distinct: bool,
        visible: usize,
        appended: usize,
    ) -> Merge {
        Merge::Concat { sort, limit: None, offset: None, distinct, visible, appended }
    }

    fn ints(merged: &Merged) -> Vec<Vec<i64>> {
        merged.rows.iter().map(|r| r.iter().map(|d| d.as_i64().unwrap()).collect()).collect()
    }

    #[test]
    fn concat_wildcard_sorts_on_hidden_columns_then_drops_them() {
        // `SELECT * .. ORDER BY expr`: arity is unknown at plan time, the
        // hidden `__ord0` column sits at the end of each worker row
        let merge = concat(vec![(SortCol::Appended(0), true)], false, usize::MAX, 1);
        let results = vec![
            rows_of(&["k", "v", "__ord0"], vec![vec![1, 10, 5], vec![2, 20, 9]]),
            rows_of(&["k", "v", "__ord0"], vec![vec![3, 30, 7]]),
        ];
        let model = CostModel::default();
        let merged = apply(&merge, results, &model).unwrap();
        assert_eq!(merged.columns, ["k", "v"]);
        assert_eq!(ints(&merged), [[2, 20], [3, 30], [1, 10]]);
        assert_eq!(merged.cpu_ms, model.cpu_tuple_ms * 3.0, "one tuple charge per worker row");
    }

    #[test]
    fn concat_distinct_compares_the_visible_prefix_only() {
        let merge = concat(vec![(SortCol::Index(0), false)], true, 1, 1);
        let results = vec![
            rows_of(&["k", "__ord0"], vec![vec![2, 100], vec![1, 101]]),
            rows_of(&["k", "__ord0"], vec![vec![2, 102]]),
        ];
        let model = CostModel::default();
        let merged = apply(&merge, results, &model).unwrap();
        assert_eq!(ints(&merged), [[1], [2]], "rows differing only in a hidden column collapse");
        assert_eq!(merged.cpu_ms, model.cpu_tuple_ms * 3.0, "charged before de-duplication");
    }

    #[test]
    fn concat_offset_past_the_end_and_limit_zero_return_no_rows() {
        let results =
            || vec![rows_of(&["k"], vec![vec![1], vec![2]]), rows_of(&["k"], vec![vec![3]])];
        let model = CostModel::default();
        let window = |offset, limit| Merge::Concat {
            sort: Vec::new(),
            limit,
            offset,
            distinct: false,
            visible: 1,
            appended: 0,
        };
        for (offset, limit) in [(Some(7), None), (None, Some(0)), (Some(3), Some(5))] {
            let merged = apply(&window(offset, limit), results(), &model).unwrap();
            assert!(merged.rows.is_empty(), "offset {offset:?} limit {limit:?}");
            assert_eq!(merged.columns, ["k"]);
        }
        let merged = apply(&window(Some(1), Some(1)), results(), &model).unwrap();
        assert_eq!(ints(&merged), [[2]], "offset, then limit");
    }

    #[test]
    fn concat_of_empty_tasks_keeps_the_first_results_columns() {
        let merge = concat(vec![(SortCol::Appended(0), false)], false, usize::MAX, 1);
        let results =
            vec![rows_of(&["k", "v", "__ord0"], vec![]), rows_of(&["a", "b", "c"], vec![])];
        let merged = apply(&merge, results, &CostModel::default()).unwrap();
        assert_eq!(merged.columns, ["k", "v"], "wildcard arity falls back to the column list");
        assert!(merged.rows.is_empty());
        assert_eq!((merged.affected, merged.cpu_ms), (0, 0.0));
    }

    #[test]
    fn write_merges_count_once_or_sum() {
        // a reference-table write runs on every placement but reports one count
        let results = || vec![QueryResult::Affected(3), QueryResult::Affected(3)];
        let model = CostModel::default();
        let first = apply(&Merge::AffectedFirst, results(), &model).unwrap();
        let sum = apply(&Merge::AffectedSum, results(), &model).unwrap();
        assert_eq!((first.affected, sum.affected), (3, 6));
        assert_eq!((first.cpu_ms, sum.cpu_ms), (0.0, 0.0));
        assert!(first.rows.is_empty() && first.columns.is_empty());
        assert_eq!(apply(&Merge::AffectedFirst, Vec::new(), &model).unwrap().affected, 0);
        let passed = apply(&Merge::PassThrough, vec![QueryResult::Affected(4)], &model).unwrap();
        assert_eq!(passed.affected, 4);
    }

    #[test]
    fn group_agg_charges_worker_rows_plus_merged_rows() {
        let s = split("SELECT region, count(*) FROM t GROUP BY region");
        let results = vec![
            rows_of(&["region", "count"], vec![vec![1, 2], vec![2, 5]]),
            rows_of(&["region", "count"], vec![vec![1, 3]]),
        ];
        let model = CostModel::default();
        let merged = apply(&Merge::GroupAgg(Box::new(s.merge)), results, &model).unwrap();
        assert_eq!(ints(&merged), [[1, 5], [2, 5]]);
        assert_eq!(merged.columns, ["region", "count"]);
        assert_eq!(merged.cpu_ms, model.cpu_tuple_ms * (3.0 + 2.0));
    }
}
