//! Splitting a SELECT into task queries and the coordinator merge step.
//!
//! A multi-shard SELECT runs in two halves: every task runs a *worker* query,
//! and the coordinator finishes the task rows with the [`Merge`] the split
//! chose. [`split_concat`] serves a query each task can answer whole for its
//! rows: the coordinator concatenates them, then re-sorts, de-duplicates and
//! windows. [`split_aggregation`] serves a query whose GROUP BY does not
//! include the distribution column: workers produce *partial* aggregates per
//! shard, and the coordinator combines them, `count → sum of counts`,
//! `sum → sum`, `min/max → min/max`, `avg → sum/count recomposed at the end`
//! (the Figure 5 call flow).
//!
//! [`apply`] is the single entry point for the merge step: every [`Merge`]
//! policy — pass-through, DML counts, concatenate, partial-aggregate combine —
//! turns a statement's task results into its answer here, and reports the
//! coordinator CPU the merge is charged. Both row-returning policies are
//! pgmini's own [`FinishStage`] run over the task rows, so the coordinator
//! finishes a query exactly as one engine finishes it.

use super::analysis::KeyColumns;
use super::{Merge, SortCol};
use pgmini::cost::{SimCost, CPU_TUPLE_MS};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::expr::{bind, BExpr, ColumnRef, EvalCtx, RowScope};
use pgmini::plan::{AggCall, AggKind, AggStage, FinishStage};
use pgmini::session::QueryResult;
use pgmini::types::{Datum, Row};
use sqlparse::ast::{
    BinaryOp, Expr, FuncCall, Literal, OrderByItem, Select, SelectItem, TypeName,
};
use sqlparse::deparse_expr;

/// A SELECT split for a fan-out: the query each task runs, and how the
/// coordinator finishes the task rows.
#[derive(Debug)]
pub struct Split {
    pub worker: Select,
    pub merge: Merge,
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

/// Split a top-level SELECT into a worker partial query and a
/// [`Merge::GroupAgg`] that combines the partials. `key` names the columns
/// holding the distribution key at this level (used to validate
/// `count(DISTINCT ..)`).
pub fn split_aggregation(sel: &Select, key: &KeyColumns) -> PgResult<Split> {
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
    let mut partial_items: Vec<(Expr, AggKind)> = Vec::new();
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

    // the merge: each partial combines as an aggregate over the task rows;
    // final expressions see `__g.c{i}` for group key i, then `__p.c{j}` for
    // combined partial j, the aggregate stage's output row
    let groups = group_keys.len();
    let agg = AggStage {
        group: (0..groups).map(BExpr::Col).collect(),
        calls: partial_items
            .iter()
            .enumerate()
            .map(|(j, (_, kind))| AggCall {
                kind: *kind,
                arg: Some(BExpr::Col(groups + j)),
                distinct: false,
            })
            .collect(),
    };
    let mut cols: Vec<ColumnRef> =
        (0..groups).map(|i| ColumnRef::new(Some("__g"), &format!("c{i}"))).collect();
    cols.extend((0..partial_items.len()).map(|j| ColumnRef::new(Some("__p"), &format!("c{j}"))));
    let scope = RowScope { cols };
    let names = pgmini::plan::derive_output_names(sel);
    let finish = FinishStage {
        agg: Some(agg),
        having: having.map(|h| bind(&h, &scope)).transpose()?,
        projection: final_exprs.iter().map(|e| bind(e, &scope)).collect::<PgResult<_>>()?,
        visible: names.len(),
        names,
        distinct: sel.distinct,
        order_by: sort,
        limit: sel.limit.as_ref().map(fold_row_count).transpose()?.map(row_count),
        offset: sel.offset.as_ref().map(fold_row_count).transpose()?.map(row_count),
    };
    Ok(Split { worker, merge: Merge::GroupAgg(Box::new(finish)) })
}

/// Split a SELECT each task answers whole for its own rows: the task runs it
/// with every sort key in its output, and the coordinator concatenates the
/// task rows, then applies DISTINCT, ORDER BY and OFFSET/LIMIT once more.
/// A sort key outside the select list travels as a hidden `__ordN` column
/// appended to the worker's projection; a wildcard's width is resolved when
/// the rows arrive. A task returns at most LIMIT + OFFSET rows and skips
/// none: the OFFSET applies once, on the coordinator.
pub fn split_concat(sel: &Select) -> PgResult<Split> {
    let mut worker = sel.clone();
    // a wildcard expands to an unknown arity, so hidden columns are counted
    // from the end of the row
    let has_wildcard = worker.projection.iter().any(|p| !matches!(p, SelectItem::Expr { .. }));
    let visible = if has_wildcard { usize::MAX } else { worker.projection.len() };
    let mut sort: Vec<(SortCol, bool)> = Vec::new();
    let mut appended = 0usize;
    let mut append_hidden = |worker: &mut Select, e: &Expr| {
        worker.projection.push(SelectItem::Expr {
            expr: e.clone(),
            alias: Some(format!("__ord{}", worker.projection.len())),
        });
        appended += 1;
        SortCol::Appended(appended - 1)
    };
    for ob in &sel.order_by {
        let col = match &ob.expr {
            Expr::Literal(Literal::Int(n)) => (*n as usize)
                .checked_sub(1)
                .filter(|i| *i < visible.min(1 << 20))
                .map(SortCol::Index)
                .ok_or_else(|| PgError::new(ErrorCode::Syntax, "ORDER BY position out of range"))?,
            // plan-time projection positions are only row positions when
            // there is no wildcard to expand between them
            Expr::Column { table: None, name } if !has_wildcard => {
                match worker.projection.iter().position(|p| {
                    matches!(p, SelectItem::Expr { alias: Some(a), .. } if a == name)
                        || matches!(
                            p,
                            SelectItem::Expr { expr: Expr::Column { name: n2, .. }, alias: None }
                                if n2 == name
                        )
                }) {
                    Some(i) => SortCol::Index(i),
                    None => append_hidden(&mut worker, &ob.expr),
                }
            }
            other => append_hidden(&mut worker, other),
        };
        sort.push((col, ob.desc));
    }
    let limit = sel.limit.as_ref().map(fold_row_count).transpose()?;
    let offset = sel.offset.as_ref().map(fold_row_count).transpose()?;
    worker.limit = limit.map(|l| Expr::int((l + offset.unwrap_or(0)) as i64));
    worker.offset = None;
    let merge = Merge::Concat { sort, limit, offset, distinct: sel.distinct, visible, appended };
    Ok(Split { worker, merge })
}

/// A LIMIT or OFFSET row count as the finish stage evaluates it.
fn row_count(n: u64) -> BExpr {
    BExpr::Const(Datum::Int(n as i64))
}

/// A LIMIT or OFFSET operand folded to a row count at plan time, as the
/// finish stage evaluates it. Its subqueries must have run as subplans.
fn fold_row_count(e: &Expr) -> PgResult<u64> {
    if e.contains_subquery() {
        return Err(PgError::unsupported("a subquery in LIMIT or OFFSET of this query"));
    }
    let bound = bind(e, &RowScope::default())?;
    Ok(pgmini::exec::row_count(&bound, &EvalCtx::default())? as u64)
}

fn normal_key(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => format!("col:{name}"),
        other => deparse_expr(other),
    }
}

/// Register a partial aggregate item; returns its column index.
fn push_partial(
    items: &mut Vec<(Expr, AggKind)>,
    keys: &mut Vec<String>,
    expr: Expr,
    combine: AggKind,
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
    partials: &mut Vec<(Expr, AggKind)>,
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
                let idx = push_partial(partials, partial_keys, e.clone(), AggKind::Sum);
                return Ok(partial_ref(idx));
            }
            return Ok(match kind {
                "count" | "sum" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), AggKind::Sum);
                    partial_ref(idx)
                }
                "min" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), AggKind::Min);
                    partial_ref(idx)
                }
                "max" => {
                    let idx = push_partial(partials, partial_keys, e.clone(), AggKind::Max);
                    partial_ref(idx)
                }
                "avg" => {
                    // avg(x) = sum(x)::float / nullif(count(x), 0)
                    let arg = f.args[0].clone();
                    let sum_idx = push_partial(
                        partials,
                        partial_keys,
                        Expr::Func(FuncCall::new("sum", vec![arg.clone()])),
                        AggKind::Sum,
                    );
                    let count_idx = push_partial(
                        partials,
                        partial_keys,
                        Expr::Func(FuncCall::new("count", vec![arg])),
                        AggKind::Sum,
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
pub fn apply(merge: &Merge, results: Vec<QueryResult>) -> PgResult<Merged> {
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
            let (columns, rows) = concat_rows(results);
            let rows_in = rows.len();
            // a wildcard projection's arity is only known now; hidden sort
            // columns always sit at the end of the worker rows
            let arity = rows.first().map(|r| r.len()).unwrap_or(columns.len());
            let projected = arity.saturating_sub(*appended);
            let visible = if *visible == usize::MAX { projected } else { (*visible).min(arity) };
            let finish = FinishStage {
                agg: None,
                having: None,
                projection: (0..arity).map(BExpr::Col).collect(),
                names: columns,
                visible,
                distinct: *distinct,
                order_by: sort
                    .iter()
                    .map(|(col, desc)| match col {
                        SortCol::Index(i) => (*i, *desc),
                        SortCol::Appended(j) => (projected + j, *desc),
                    })
                    .collect(),
                limit: limit.map(row_count),
                offset: offset.map(row_count),
            };
            (out.columns, out.rows) = finish_rows(&finish, rows)?;
            out.cpu_ms = CPU_TUPLE_MS * rows_in as f64;
        }
        Merge::GroupAgg(finish) => {
            let rows = concat_rows(results).1;
            let rows_in = rows.len();
            (out.columns, out.rows) = finish_rows(finish, rows)?;
            out.cpu_ms = CPU_TUPLE_MS * (rows_in + out.rows.len()) as f64;
        }
    }
    Ok(out)
}

/// Run pgmini's finish stage over task rows. The merge's CPU is charged by
/// [`apply`]'s own formula, not by the stage's per-step charges.
fn finish_rows(finish: &FinishStage, rows: Vec<Row>) -> PgResult<(Vec<String>, Vec<Row>)> {
    finish.run(rows, &EvalCtx::default(), &mut SimCost::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::ast::Statement;
    use sqlparse::{deparse, parse};

    fn w_id() -> KeyColumns {
        KeyColumns(vec![("t".to_string(), "w_id".to_string())])
    }

    fn split(sql: &str) -> Split {
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!() };
        split_aggregation(&sel, &w_id()).unwrap()
    }

    /// The finish stage a split aggregate's merge runs.
    fn stage(s: &Split) -> &FinishStage {
        let Merge::GroupAgg(finish) = &s.merge else { panic!("not a grouped merge") };
        finish
    }

    fn group_cols(s: &Split) -> usize {
        stage(s).agg.as_ref().map_or(0, |a| a.group.len())
    }

    /// How each partial column combines: the aggregate run over it.
    fn partials(s: &Split) -> Vec<AggKind> {
        stage(s).agg.as_ref().map_or(Vec::new(), |a| a.calls.iter().map(|c| c.kind).collect())
    }

    /// Merge one task's rows through [`apply`], as the executor does.
    fn merge_rows(s: &Split, rows: Vec<Row>) -> Vec<Row> {
        let width = rows.first().map_or(0, Vec::len);
        let columns = (0..width).map(|i| format!("c{i}")).collect();
        let results = vec![QueryResult::Rows { columns, rows }];
        apply(&s.merge, results).unwrap().rows
    }

    #[test]
    fn count_and_sum_split_to_sum_merge() {
        let s = split("SELECT region, count(*), sum(amount) FROM t GROUP BY region");
        let text = deparse(&Statement::Select(Box::new(s.worker.clone())));
        assert!(text.contains("count(*)"), "{text}");
        assert!(text.contains("sum(amount)"), "{text}");
        assert!(text.contains("GROUP BY region"), "{text}");
        assert_eq!(group_cols(&s), 1);
        assert_eq!(partials(&s), vec![AggKind::Sum, AggKind::Sum]);
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let s = split("SELECT avg(x) FROM t");
        let text = deparse(&Statement::Select(Box::new(s.worker.clone())));
        assert!(text.contains("sum(x)"), "{text}");
        assert!(text.contains("count(x)"), "{text}");
        assert!(!text.contains("avg"), "avg must not reach workers: {text}");
        // merge of [sum, count] partials: (10+20)/(2+3) = 6
        let rows = vec![
            vec![Datum::Float(10.0), Datum::Int(2)],
            vec![Datum::Float(20.0), Datum::Int(3)],
        ];
        let out = merge_rows(&s, rows);
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
        let out = merge_rows(&s, rows);
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
        let out = merge_rows(&s, rows);
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
        let out = merge_rows(&s, rows);
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
        assert_eq!(group_cols(&s), 1);
        assert_eq!(stage(&s).order_by, vec![(1, true)]);
    }

    #[test]
    fn sum_combines_floats_and_ints() {
        let s = split("SELECT sum(x) FROM t");
        for (a, b, sum) in [
            (Datum::Int(2), Datum::Int(3), Datum::Int(5)),
            (Datum::Float(2.5), Datum::Int(3), Datum::Float(5.5)),
            (Datum::Null, Datum::Int(3), Datum::Int(3)),
        ] {
            assert_eq!(merge_rows(&s, vec![vec![a], vec![b]]), vec![vec![sum]]);
        }
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
        let merged = apply(&merge, results).unwrap();
        assert_eq!(merged.columns, ["k", "v"]);
        assert_eq!(ints(&merged), [[2, 20], [3, 30], [1, 10]]);
        assert_eq!(merged.cpu_ms, CPU_TUPLE_MS * 3.0, "one tuple charge per worker row");
    }

    #[test]
    fn concat_distinct_compares_the_visible_prefix_only() {
        let merge = concat(vec![(SortCol::Index(0), false)], true, 1, 1);
        let results = vec![
            rows_of(&["k", "__ord0"], vec![vec![2, 100], vec![1, 101]]),
            rows_of(&["k", "__ord0"], vec![vec![2, 102]]),
        ];
        let merged = apply(&merge, results).unwrap();
        assert_eq!(ints(&merged), [[1], [2]], "rows differing only in a hidden column collapse");
        assert_eq!(merged.cpu_ms, CPU_TUPLE_MS * 3.0, "charged before de-duplication");
    }

    #[test]
    fn concat_offset_past_the_end_and_limit_zero_return_no_rows() {
        let results =
            || vec![rows_of(&["k"], vec![vec![1], vec![2]]), rows_of(&["k"], vec![vec![3]])];
        let window = |offset, limit| Merge::Concat {
            sort: Vec::new(),
            limit,
            offset,
            distinct: false,
            visible: 1,
            appended: 0,
        };
        for (offset, limit) in [(Some(7), None), (None, Some(0)), (Some(3), Some(5))] {
            let merged = apply(&window(offset, limit), results()).unwrap();
            assert!(merged.rows.is_empty(), "offset {offset:?} limit {limit:?}");
            assert_eq!(merged.columns, ["k"]);
        }
        let merged = apply(&window(Some(1), Some(1)), results()).unwrap();
        assert_eq!(ints(&merged), [[2]], "offset, then limit");
    }

    #[test]
    fn concat_of_empty_tasks_keeps_the_first_results_columns() {
        let merge = concat(vec![(SortCol::Appended(0), false)], false, usize::MAX, 1);
        let results =
            vec![rows_of(&["k", "v", "__ord0"], vec![]), rows_of(&["a", "b", "c"], vec![])];
        let merged = apply(&merge, results).unwrap();
        assert_eq!(merged.columns, ["k", "v"], "wildcard arity falls back to the column list");
        assert!(merged.rows.is_empty());
        assert_eq!((merged.affected, merged.cpu_ms), (0, 0.0));
    }

    #[test]
    fn write_merges_count_once_or_sum() {
        // a reference-table write runs on every placement but reports one count
        let results = || vec![QueryResult::Affected(3), QueryResult::Affected(3)];
        let first = apply(&Merge::AffectedFirst, results()).unwrap();
        let sum = apply(&Merge::AffectedSum, results()).unwrap();
        assert_eq!((first.affected, sum.affected), (3, 6));
        assert_eq!((first.cpu_ms, sum.cpu_ms), (0.0, 0.0));
        assert!(first.rows.is_empty() && first.columns.is_empty());
        assert_eq!(apply(&Merge::AffectedFirst, Vec::new()).unwrap().affected, 0);
        let passed = apply(&Merge::PassThrough, vec![QueryResult::Affected(4)]).unwrap();
        assert_eq!(passed.affected, 4);
    }

    #[test]
    fn group_agg_charges_worker_rows_plus_merged_rows() {
        let s = split("SELECT region, count(*) FROM t GROUP BY region");
        let results = vec![
            rows_of(&["region", "count"], vec![vec![1, 2], vec![2, 5]]),
            rows_of(&["region", "count"], vec![vec![1, 3]]),
        ];
        let merged = apply(&s.merge, results).unwrap();
        assert_eq!(ints(&merged), [[1, 5], [2, 5]]);
        assert_eq!(merged.columns, ["region", "count"]);
        assert_eq!(merged.cpu_ms, CPU_TUPLE_MS * (3.0 + 2.0));
    }
}
