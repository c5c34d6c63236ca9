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
//! (the Figure 5 call flow). The calls workers compute, and what runs over
//! their combined values, come from pgmini's own aggregate extraction
//! ([`pgmini::plan::aggregation`]).
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
use pgmini::expr::{bind, BExpr, EvalCtx, RowScope};
use pgmini::plan::{AggCall, AggKind, AggStage, FinishStage};
use pgmini::session::QueryResult;
use pgmini::types::{Datum, Row};
use sqlparse::ast::{Expr, Literal, Select, SelectItem};

/// A SELECT split for a fan-out: the query each task runs, and how the
/// coordinator finishes the task rows.
#[derive(Debug)]
pub struct Split {
    pub worker: Select,
    pub merge: Merge,
}

/// Split a top-level SELECT into a worker partial query and a
/// [`Merge::GroupAgg`] that combines the partials. Both halves come from
/// pgmini's one aggregate extraction, with `avg` split into a sum and a
/// count: workers group and run its calls per shard, and the coordinator
/// combines each call by its kind (a count or a sum as a sum, a min or a
/// max as itself), then runs the same HAVING, select list and ORDER BY over
/// the combined row as one engine. `key` names the columns holding the
/// distribution key at this level: a DISTINCT count, sum or avg combines
/// only over them, each value living on one shard.
pub fn split_aggregation(sel: &Select, key: &KeyColumns) -> PgResult<Split> {
    if sel.projection.iter().any(|p| !matches!(p, SelectItem::Expr { .. })) {
        return Err(PgError::unsupported("wildcard in a merged aggregate query"));
    }
    let agg = pgmini::plan::aggregation(sel, &RowScope::default(), true)?;
    // DISTINCT moves no minimum or maximum, and a min or max of per-shard
    // extremes is exact, so only the other DISTINCT calls need the key
    let off_key = |c: &AggCall<Expr>| !c.arg.as_ref().is_some_and(|a| key.holds(a));
    if agg
        .calls
        .iter()
        .any(|c| c.distinct && !matches!(c.kind, AggKind::Min | AggKind::Max) && off_key(c))
    {
        return Err(PgError::unsupported(
            "DISTINCT aggregates on non-distribution columns require repartitioning",
        ));
    }

    // the worker query: group keys, then one partial per call
    let mut worker = Select::empty();
    worker.from = sel.from.clone();
    worker.where_clause = sel.where_clause.clone();
    let groups = agg.groups.iter().enumerate().map(|(i, g)| (g.clone(), format!("g{i}")));
    let partials = agg.calls.iter().enumerate().map(|(j, c)| (c.to_expr(), format!("p{j}")));
    worker.projection = groups
        .chain(partials)
        .map(|(expr, alias)| SelectItem::Expr { expr, alias: Some(alias) })
        .collect();
    worker.group_by = agg.groups;

    // the merge: an aggregate stage over the task rows, whose output row is
    // the one the extraction's HAVING, projection and ORDER BY read
    let groups = worker.group_by.len();
    let calls = agg
        .calls
        .iter()
        .enumerate()
        .map(|(j, c)| AggCall {
            kind: match c.kind {
                AggKind::CountStar | AggKind::Count | AggKind::Sum => AggKind::Sum,
                AggKind::Min | AggKind::Max => c.kind,
                AggKind::Avg => unreachable!("avg is extracted as a sum and a count"),
            },
            arg: Some(BExpr::Col(groups + j)),
            distinct: false,
        })
        .collect();
    let finish = FinishStage {
        agg: Some(AggStage { group: (0..groups).map(BExpr::Col).collect(), calls }),
        having: agg.having,
        projection: agg.projection,
        names: agg.output.names,
        visible: agg.output.visible,
        distinct: sel.distinct,
        order_by: agg.output.order_by,
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
                .ok_or_else(|| {
                    PgError::new(
                        ErrorCode::Syntax,
                        format!("ORDER BY position {n} is not in the select list"),
                    )
                })?,
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
        // avg(DISTINCT key) splits the same way, DISTINCT kept on both calls
        let s = split("SELECT avg(DISTINCT w_id) AS a FROM t");
        let text = deparse(&Statement::Select(Box::new(s.worker.clone())));
        assert!(text.contains("sum(DISTINCT w_id)"), "{text}");
        assert!(text.contains("count(DISTINCT w_id)"), "{text}");
        assert_eq!(partials(&s), vec![AggKind::Sum, AggKind::Sum]);
        assert_eq!(stage(&s).names, ["a"]);
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
        // each DISTINCT partial combines by its kind: a min of minima, not a sum
        let s = split("SELECT count(DISTINCT w_id), min(DISTINCT w_id), max(DISTINCT w_id) FROM t");
        assert_eq!(partials(&s), vec![AggKind::Sum, AggKind::Min, AggKind::Max]);
        let rows = vec![
            vec![Datum::Int(2), Datum::Int(3), Datum::Int(8)],
            vec![Datum::Int(4), Datum::Int(1), Datum::Int(5)],
        ];
        assert_eq!(merge_rows(&s, rows), vec![vec![Datum::Int(6), Datum::Int(1), Datum::Int(8)]]);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let Statement::Select(sel) =
            parse("SELECT region, other, count(*) FROM t GROUP BY region").unwrap()
        else {
            panic!()
        };
        let err = split_aggregation(&sel, &KeyColumns::default()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Syntax);
        assert!(err.message.contains("must appear in the GROUP BY clause"), "{err:?}");
    }

    #[test]
    fn group_by_ordinal_resolves() {
        let s = split("SELECT region, count(*) FROM t GROUP BY 1 ORDER BY 2 DESC");
        assert_eq!(group_cols(&s), 1);
        assert_eq!(stage(&s).order_by, vec![(1, true)]);
        // an aggregate outside the select list sorts as a hidden column,
        // its partial after those of the select list and HAVING
        let s = split(
            "SELECT region, count(*) FROM t GROUP BY 1 HAVING max(x) IN (1, 2) ORDER BY sum(x)",
        );
        assert_eq!(partials(&s), vec![AggKind::Sum, AggKind::Max, AggKind::Sum]);
        assert_eq!((stage(&s).visible, stage(&s).order_by.clone()), (2, vec![(2, false)]));
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
