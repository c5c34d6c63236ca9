//! Local (single-node) query planning.
//!
//! Produces a [`SelectPlan`] from a parsed SELECT: a FROM/WHERE tree with
//! index access paths chosen per table, and a [`FinishStage`] (an optional
//! aggregation stage, then bound projection/ordering stages). Uncorrelated
//! subqueries are inlined as constants by one pass that runs them first
//! ([`inline_subqueries`]; correlated subqueries raise
//! `FeatureNotSupported`, matching the Citus 9.5 limitation the paper
//! reports for 4 of the 22 TPC-H queries).
//!
//! Like PostgreSQL, most of the engine is single-threaded per query; the
//! paper's parallelism comes from the distributed layer fanning out over
//! shards, not from this planner.

use crate::catalog::{IndexId, IndexMethod, TableId, TableMeta};
use crate::error::{ErrorCode, PgError, PgResult};
use crate::expr::{bind, datum_expr, BExpr, BinOp, Cmp, ColumnRef, RowScope};
use sqlparse::ast::{
    BinaryOp, Expr, FuncCall, JoinKind, Literal, Select, SelectItem, Statement, TableRef, TypeName,
};
use sqlparse::deparse_expr;
use sqlparse::shape::{self, Clause, Nested, VisitMut};
use std::sync::Arc;

mod join_order;
mod or_restrictions;

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    pub fn resolve(name: &str, star: bool) -> Option<AggKind> {
        Some(match (name, star) {
            ("count", true) => AggKind::CountStar,
            ("count", false) => AggKind::Count,
            ("sum", false) => AggKind::Sum,
            ("avg", false) => AggKind::Avg,
            ("min", false) => AggKind::Min,
            ("max", false) => AggKind::Max,
            _ => return None,
        })
    }

    /// The function a call of this kind names.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::CountStar | AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// One aggregate call. Its argument is bound over the raw input scope once
/// planned; as [`aggregation`] extracts it, it is still an [`Expr`].
#[derive(Debug, Clone)]
pub struct AggCall<A = BExpr> {
    pub kind: AggKind,
    pub arg: Option<A>,
    pub distinct: bool,
}

impl AggCall<Expr> {
    /// The call as SQL.
    pub fn to_expr(&self) -> Expr {
        Expr::Func(FuncCall {
            name: self.kind.name().to_string(),
            args: self.arg.iter().cloned().collect(),
            distinct: self.distinct,
            star: self.kind == AggKind::CountStar,
        })
    }
}

/// How an index is probed.
#[derive(Debug, Clone)]
pub enum IndexProbe {
    /// Equality on a key prefix.
    EqPrefix(Vec<BExpr>),
    /// Range on the first key column: (low, incl), (high, incl).
    Range { low: Option<(BExpr, bool)>, high: Option<(BExpr, bool)> },
    /// Trigram candidates for a LIKE/ILIKE pattern.
    LikePattern { pattern: BExpr, case_insensitive: bool },
}

/// A FROM-tree node with access paths selected.
#[derive(Debug, Clone)]
pub enum PlanNode {
    SeqScan {
        table: TableId,
        /// Residual filter over this table's scope (after index conditions).
        filter: Option<BExpr>,
        /// Table-relative indices of the columns this query actually reads
        /// (filter + join keys + projection/aggregate inputs). `None` means
        /// all columns. Columnar scans materialize only these.
        cols: Option<Vec<usize>>,
    },
    IndexScan {
        table: TableId,
        index: IndexId,
        probe: IndexProbe,
        /// Residual filter, including a re-check of the probe condition.
        filter: Option<BExpr>,
    },
    /// Pre-materialised rows (derived tables / flattened subqueries).
    Materialized { rows: Vec<crate::types::Row>, arity: usize },
    Join {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        /// Equi-join keys when a hash join applies.
        hash_keys: Option<(Vec<BExpr>, Vec<BExpr>)>,
        /// Full join condition (bound over left ++ right scope).
        on: Option<BExpr>,
        left_arity: usize,
        right_arity: usize,
    },
    /// Filter applied above a node (non-pushable conjuncts).
    Filter { input: Box<PlanNode>, pred: BExpr },
}

impl PlanNode {
    /// Short structural description for EXPLAIN output.
    pub fn describe(&self, catalog: &crate::catalog::Catalog, out: &mut Vec<String>, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::SeqScan { table, filter, cols } => {
                let name =
                    catalog.table(*table).map(|t| t.name.clone()).unwrap_or_default();
                let f = if filter.is_some() { " (filtered)" } else { "" };
                let c = match cols {
                    Some(c) => format!(" (cols: {})", c.len()),
                    None => String::new(),
                };
                out.push(format!("{pad}Seq Scan on {name}{f}{c}"));
            }
            PlanNode::IndexScan { table, index, probe, .. } => {
                let name =
                    catalog.table(*table).map(|t| t.name.clone()).unwrap_or_default();
                let iname = catalog.index(*index).map(|i| i.name.clone()).unwrap_or_default();
                let kind = match probe {
                    IndexProbe::EqPrefix(_) => "eq",
                    IndexProbe::Range { .. } => "range",
                    IndexProbe::LikePattern { .. } => "trigram",
                };
                out.push(format!("{pad}Index Scan ({kind}) using {iname} on {name}"));
            }
            PlanNode::Materialized { rows, .. } => {
                out.push(format!("{pad}Materialized ({} rows)", rows.len()));
            }
            PlanNode::Join { left, right, kind, hash_keys, .. } => {
                let strat = if hash_keys.is_some() { "Hash" } else { "Nested Loop" };
                out.push(format!("{pad}{strat} {kind:?} Join"));
                left.describe(catalog, out, depth + 1);
                right.describe(catalog, out, depth + 1);
            }
            PlanNode::Filter { input, .. } => {
                out.push(format!("{pad}Filter"));
                input.describe(catalog, out, depth + 1);
            }
        }
    }
}

/// Aggregation stage.
#[derive(Debug, Clone)]
pub struct AggStage {
    /// Group-key expressions, bound over the raw scope.
    pub group: Vec<BExpr>,
    pub calls: Vec<AggCall>,
}

/// A fully-planned SELECT.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    pub input: PlanNode,
    pub finish: FinishStage,
    /// FOR UPDATE: lock the returned rows of this single table.
    pub for_update: Option<TableId>,
}

/// Everything a SELECT does above its FROM/WHERE input: the aggregate stage,
/// HAVING, projection, DISTINCT, ORDER BY, OFFSET/LIMIT, and dropping the
/// hidden ORDER BY columns. It reads rows and nothing else, so the
/// coordinator's merge step runs the same stage over task rows.
#[derive(Debug, Clone)]
pub struct FinishStage {
    pub agg: Option<AggStage>,
    /// Bound over post-agg scope when `agg` is set, else raw scope.
    pub having: Option<BExpr>,
    /// Output expressions (same scope rule as `having`). Hidden trailing
    /// entries may exist for ORDER BY; `visible` is the real output arity.
    pub projection: Vec<BExpr>,
    pub names: Vec<String>,
    pub visible: usize,
    pub distinct: bool,
    /// (projection index, descending)
    pub order_by: Vec<(usize, bool)>,
    /// Row-free expressions, valued per execution (`LIMIT 5` is a literal
    /// slot like any other).
    pub limit: Option<BExpr>,
    pub offset: Option<BExpr>,
}

/// Planner services that require execution (subquery inlining, derived
/// tables). The session supplies this, breaking the plan↔exec cycle.
pub trait SubqueryExecutor {
    /// Execute an uncorrelated subquery, returning its column names and rows.
    fn run_subquery(&mut self, sub: &Select) -> PgResult<(Vec<String>, Vec<crate::types::Row>)>;
}

/// Catalog + statistics view the planner needs.
pub trait PlannerCatalog {
    fn table_meta(&self, name: &str) -> PgResult<Arc<TableMeta>>;
    fn table_meta_by_id(&self, id: TableId) -> PgResult<Arc<TableMeta>>;
    fn index_meta(&self, id: IndexId) -> PgResult<Arc<crate::catalog::IndexMeta>>;
    fn row_estimate(&self, table: TableId) -> u64;
}

/// Plan a SELECT.
pub fn plan_select(
    sel: &Select,
    cat: &dyn PlannerCatalog,
    subq: &mut dyn SubqueryExecutor,
) -> PgResult<SelectPlan> {
    // 1. resolve FROM: each comma item is one unit (an explicit JOIN tree or
    // a derived table stays whole); `*` and `t.*` follow the written order
    let mut arities: std::collections::HashMap<TableId, usize> =
        std::collections::HashMap::new();
    let mut units: Vec<(PlanNode, RowScope)> = Vec::new();
    for item in &sel.from {
        units.push(plan_table_ref(item, cat, subq, &mut arities)?);
    }

    // 2. WHERE: split conjuncts and derive per-table restrictions from
    // cross-table ORs; join several units in estimated-size order, then push
    // each conjunct down to a scan or a join condition
    let conjuncts = match &sel.where_clause {
        Some(w) => split_conjuncts(w),
        None => Vec::new(),
    };
    // `written` is the scope in FROM order, kept only where the join order
    // may differ from it: a single unit plans exactly as written
    let (mut node, scope, written, derived) = match <[_; 1]>::try_from(units) {
        Ok([(node, scope)]) => {
            let derived = or_restrictions::derive(&conjuncts, &scope)?;
            (node, scope, None, derived)
        }
        Err(units) if units.is_empty() => (
            PlanNode::Materialized { rows: vec![vec![]], arity: 0 },
            RowScope::default(),
            None,
            Vec::new(),
        ),
        Err(units) => {
            let written = units.iter().fold(RowScope::default(), |acc, (_, s)| acc.join(s));
            let derived = or_restrictions::derive(&conjuncts, &written)?;
            let (node, scope) =
                join_order::join_in_size_order(units, &conjuncts, &derived, &written, cat)?;
            (node, scope, Some(written), derived)
        }
    };
    let written = written.as_ref().unwrap_or(&scope);
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if !push_conjunct(&mut node, &scope, &c)? {
            residual.push(c);
        }
    }
    // a derived restriction goes onto its table's scan or nowhere: the OR it
    // came from implies it and is checked above that scan anyway (below the
    // null-extended side of an outer join it would change the answer)
    for d in derived {
        push_conjunct(&mut node, &scope, &d.expr)?;
    }
    if let Some(pred) = conjoin(residual) {
        let bound = bind(&pred, &scope)?;
        node = PlanNode::Filter { input: Box::new(node), pred: bound };
    }

    // 3. the select list, over the input rows or around an aggregate stage
    let (agg, having, projection, output) = if is_aggregate_query(sel) {
        let a = aggregation(sel, written, false)?;
        let calls = a
            .calls
            .into_iter()
            .map(|c| {
                let arg = c.arg.map(|e| bind(&e, &scope)).transpose()?;
                Ok(AggCall { kind: c.kind, arg, distinct: c.distinct })
            })
            .collect::<PgResult<_>>()?;
        let group = a.groups.iter().map(|g| bind(g, &scope)).collect::<PgResult<_>>()?;
        (Some(AggStage { group, calls }), a.having, a.projection, a.output)
    } else {
        if sel.having.is_some() {
            return Err(PgError::new(ErrorCode::Syntax, "HAVING requires aggregation"));
        }
        let (exprs, output) = output_list(sel, written)?;
        let projection = exprs.iter().map(|e| bind(e, &scope)).collect::<PgResult<_>>()?;
        (None, None, projection, output)
    };

    // 4. FOR UPDATE target
    let for_update = if sel.for_update {
        match &sel.from[..] {
            [TableRef::Table { name, .. }] => Some(cat.table_meta(name)?.id),
            _ => {
                return Err(PgError::unsupported(
                    "SELECT .. FOR UPDATE is supported on a single table only",
                ))
            }
        }
    } else {
        None
    };

    let no_columns = RowScope::default();
    let limit = sel.limit.as_ref().map(|e| bind(e, &no_columns)).transpose()?;
    let offset = sel.offset.as_ref().map(|e| bind(e, &no_columns)).transpose()?;

    // 5. projection pushdown: record on each base-table scan the set of
    // columns the query references anywhere. The FOR UPDATE path re-reads
    // whole rows under locks, so it keeps full materialization.
    if for_update.is_none() {
        let mut top: Vec<&BExpr> = Vec::new();
        match &agg {
            Some(stage) => {
                top.extend(stage.group.iter());
                top.extend(stage.calls.iter().filter_map(|c| c.arg.as_ref()));
            }
            None => top.extend(projection.iter()),
        }
        assign_scan_columns(&mut node, &top, &arities);
    }

    Ok(SelectPlan {
        input: node,
        finish: FinishStage {
            agg,
            having,
            projection,
            names: output.names,
            visible: output.visible,
            distinct: sel.distinct,
            order_by: output.order_by,
            limit,
            offset,
        },
        for_update,
    })
}

/// An unconditioned join of two planned inputs; WHERE and ON conjuncts
/// pushed onto it later make it an inner join.
fn cross_join(left: (PlanNode, RowScope), right: (PlanNode, RowScope)) -> (PlanNode, RowScope) {
    let ((lnode, lscope), (rnode, rscope)) = (left, right);
    let node = PlanNode::Join {
        left_arity: lscope.len(),
        right_arity: rscope.len(),
        left: Box::new(lnode),
        right: Box::new(rnode),
        kind: JoinKind::Cross,
        hash_keys: None,
        on: None,
    };
    (node, lscope.join(&rscope))
}

/// Projection pushdown over a finished plan tree.
///
/// Collects every column the query can read — scan filters (bound
/// table-relative), join hash keys and ON conditions (bound over the join's
/// combined scope), residual Filter predicates (bound over the full scope),
/// plus the caller-supplied raw-scope expressions (group keys + aggregate
/// arguments, or the projection) — as absolute scope indices, then maps the
/// slice covering each base table back to table-relative indices and records
/// it in that scan's `cols`. Columnar scans materialize only these columns
/// and the cost model charges I/O for only their pages.
fn assign_scan_columns(
    node: &mut PlanNode,
    top_exprs: &[&BExpr],
    arities: &std::collections::HashMap<TableId, usize>,
) {
    let mut referenced: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for e in top_exprs {
        collect_cols_at(e, 0, &mut referenced);
    }
    collect_node_cols(node, 0, &mut referenced);
    mark_scan_cols(node, 0, &referenced, arities);
}

/// Add the columns `e` references to `acc` as absolute scope indices, given
/// that `e`'s `Col`s are bound relative to scope position `base`.
fn collect_cols_at(e: &BExpr, base: usize, acc: &mut std::collections::BTreeSet<usize>) {
    match e {
        BExpr::Col(i) => {
            acc.insert(base + i);
        }
        _ => e.children().for_each(|c| collect_cols_at(c, base, acc)),
    }
}

/// Walk the tree collecting column references from node-attached expressions.
/// `offset` is the node's starting position in the full scope.
fn collect_node_cols(
    node: &PlanNode,
    offset: usize,
    acc: &mut std::collections::BTreeSet<usize>,
) {
    match node {
        PlanNode::SeqScan { filter, .. } => {
            if let Some(f) = filter {
                collect_cols_at(f, offset, acc);
            }
        }
        PlanNode::IndexScan { filter, .. } => {
            if let Some(f) = filter {
                collect_cols_at(f, offset, acc);
            }
        }
        PlanNode::Materialized { .. } => {}
        PlanNode::Join { left, right, hash_keys, on, left_arity, .. } => {
            collect_node_cols(left, offset, acc);
            collect_node_cols(right, offset + left_arity, acc);
            if let Some((ls, rs)) = hash_keys {
                for e in ls {
                    collect_cols_at(e, offset, acc);
                }
                for e in rs {
                    collect_cols_at(e, offset + left_arity, acc);
                }
            }
            if let Some(cond) = on {
                collect_cols_at(cond, offset, acc);
            }
        }
        PlanNode::Filter { input, pred } => {
            collect_cols_at(pred, offset, acc);
            collect_node_cols(input, offset, acc);
        }
    }
}

/// Second walk: record each base-table scan's referenced columns
/// (table-relative). Returns the node's arity so joins can offset their
/// right side; tables missing from `arities` keep `cols: None` (read all).
fn mark_scan_cols(
    node: &mut PlanNode,
    offset: usize,
    referenced: &std::collections::BTreeSet<usize>,
    arities: &std::collections::HashMap<TableId, usize>,
) -> usize {
    match node {
        PlanNode::SeqScan { table, cols, .. } => match arities.get(table) {
            Some(&a) => {
                *cols = Some(referenced.range(offset..offset + a).map(|i| i - offset).collect());
                a
            }
            None => 0,
        },
        PlanNode::IndexScan { table, .. } => arities.get(table).copied().unwrap_or(0),
        PlanNode::Materialized { arity, .. } => *arity,
        PlanNode::Join { left, right, left_arity, right_arity, .. } => {
            let (la, ra) = (*left_arity, *right_arity);
            mark_scan_cols(left, offset, referenced, arities);
            mark_scan_cols(right, offset + la, referenced, arities);
            la + ra
        }
        PlanNode::Filter { input, .. } => mark_scan_cols(input, offset, referenced, arities),
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func(f) => f.name.clone(),
        Expr::Cast { expr, .. } => default_name(expr),
        _ => "?column?".to_string(),
    }
}

/// Structural equality via normalised deparse text.
fn exprs_equal(a: &Expr, b: &Expr) -> bool {
    a == b || normal_key(a) == normal_key(b)
}

/// Normalised key for matching group-by expressions (ignores qualifiers so
/// `t.a` and `a` match when unambiguous).
fn normal_key(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => format!("col:{name}"),
        other => deparse_expr(other),
    }
}

/// Does the query aggregate: a GROUP BY, or an aggregate call in the select
/// list or HAVING? The one test one engine's planner and every distributed
/// planner tier ask.
pub fn is_aggregate_query(sel: &Select) -> bool {
    let calls_aggregate = |e: &Expr| {
        let mut found = false;
        e.walk(&mut |x| {
            found |= matches!(x, Expr::Func(f) if AggKind::resolve(&f.name, f.star).is_some())
        });
        found
    };
    !sel.group_by.is_empty()
        || sel.having.as_ref().is_some_and(calls_aggregate)
        || sel
            .projection
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if calls_aggregate(expr)))
}

/// The expression a GROUP BY item stands for: an integer constant is an
/// ordinal into the select list.
pub fn group_expr<'a>(sel: &'a Select, g: &'a Expr) -> PgResult<&'a Expr> {
    let Expr::Literal(Literal::Int(n)) = g else { return Ok(g) };
    let idx = (*n as usize)
        .checked_sub(1)
        .ok_or_else(|| PgError::new(ErrorCode::Syntax, "GROUP BY position must be >= 1"))?;
    match sel.projection.get(idx) {
        Some(SelectItem::Expr { expr, .. }) => Ok(expr),
        _ => Err(PgError::new(
            ErrorCode::Syntax,
            format!("GROUP BY position {n} is not in the select list"),
        )),
    }
}

/// A select list's output columns and sort order. Its expressions carry
/// the ORDER BY keys outside the list as hidden trailing columns.
#[derive(Debug)]
pub struct Output {
    pub names: Vec<String>,
    /// The number of columns the query returns; hidden ones follow.
    pub visible: usize,
    /// (column index, descending)
    pub order_by: Vec<(usize, bool)>,
}

/// The select list's expressions, wildcards expanded over `written` (the
/// FROM scope in written order), then ORDER BY resolved: an ordinal or an
/// output name picks a column, an expression equal to one reuses it, and
/// any other key becomes a hidden column.
fn output_list(sel: &Select, written: &RowScope) -> PgResult<(Vec<Expr>, Output)> {
    let mut exprs: Vec<Expr> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => {
                for c in &written.cols {
                    exprs.push(column_expr(c));
                    names.push(c.name.to_string());
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut found = false;
                for c in &written.cols {
                    if c.qualifier.as_deref() == Some(q.as_str()) {
                        exprs.push(column_expr(c));
                        names.push(c.name.to_string());
                        found = true;
                    }
                }
                if !found {
                    return Err(PgError::undefined_table(q));
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| default_name(expr)));
                exprs.push(expr.clone());
            }
        }
    }
    let visible = exprs.len();
    let mut order_by: Vec<(usize, bool)> = Vec::new();
    for ob in &sel.order_by {
        let idx = match &ob.expr {
            Expr::Literal(Literal::Int(n)) => {
                (*n as usize).checked_sub(1).filter(|i| *i < visible).ok_or_else(|| {
                    PgError::new(
                        ErrorCode::Syntax,
                        format!("ORDER BY position {n} is not in the select list"),
                    )
                })?
            }
            other => {
                let named = match other {
                    Expr::Column { table: None, name } => names.iter().position(|n| n == name),
                    _ => None,
                };
                match named.or_else(|| exprs.iter().position(|e| exprs_equal(e, other))) {
                    Some(i) => i,
                    None => {
                        exprs.push(other.clone());
                        names.push("?order?".to_string());
                        exprs.len() - 1
                    }
                }
            }
        };
        order_by.push((idx, ob.desc));
    }
    Ok((exprs, Output { names, visible, order_by }))
}

/// An aggregate query split around its aggregate stage. This one extraction
/// plans the query for one engine ([`plan_select`] binds the calls over its
/// input rows) and for the coordinator's merge (workers compute the calls
/// per shard, the coordinator combines them). Either way the stages after
/// the aggregate read one row per group: the group keys, then one column per
/// call.
#[derive(Debug)]
pub struct Aggregation {
    /// GROUP BY expressions, ordinals resolved.
    pub groups: Vec<Expr>,
    /// The distinct aggregate calls, numbered in order of first use: the
    /// select list, HAVING, then ORDER BY keys outside the select list.
    pub calls: Vec<AggCall<Expr>>,
    /// HAVING over the aggregate stage's output row.
    pub having: Option<BExpr>,
    /// The select list and hidden ORDER BY keys over the same row.
    pub projection: Vec<BExpr>,
    pub output: Output,
}

/// Extract `sel`'s aggregation (see [`Aggregation`]); `sel` must be an
/// [`is_aggregate_query`]. With `split_avg`, each `avg(x)` is extracted as
/// `sum(x)::float / nullif(count(x), 0)`, DISTINCT carried to both calls, so
/// that every call combines from per-shard partials.
pub fn aggregation(sel: &Select, written: &RowScope, split_avg: bool) -> PgResult<Aggregation> {
    let groups: Vec<Expr> =
        sel.group_by.iter().map(|g| group_expr(sel, g).cloned()).collect::<PgResult<_>>()?;
    let (exprs, output) = output_list(sel, written)?;
    let mut ex = Extraction {
        group_keys: groups.iter().map(normal_key).collect(),
        calls: Vec::new(),
        call_keys: Vec::new(),
        split_avg,
    };
    let (listed, hidden) = exprs.split_at(output.visible);
    let mut rewritten: Vec<Expr> = listed.iter().map(|e| ex.rewrite(e)).collect::<PgResult<_>>()?;
    let having = sel.having.as_ref().map(|h| ex.rewrite(h)).transpose()?;
    for e in hidden {
        rewritten.push(ex.rewrite(e)?);
    }
    // the aggregate stage's output row: __grp.g0.. then __agg.a0..
    let mut cols: Vec<ColumnRef> =
        (0..groups.len()).map(|i| ColumnRef::new(Some("__grp"), &format!("g{i}"))).collect();
    cols.extend((0..ex.calls.len()).map(|i| ColumnRef::new(Some("__agg"), &format!("a{i}"))));
    let post = RowScope { cols };
    let projection = rewritten
        .iter()
        .map(|e| {
            bind(e, &post).map_err(|err| {
                if err.code == ErrorCode::UndefinedColumn {
                    PgError::new(
                        ErrorCode::Syntax,
                        format!(
                            "column must appear in the GROUP BY clause or be used in \
                             an aggregate function ({})",
                            err.message
                        ),
                    )
                } else {
                    err
                }
            })
        })
        .collect::<PgResult<_>>()?;
    let having = having.map(|h| bind(&h, &post)).transpose()?;
    Ok(Aggregation { groups, calls: ex.calls, having, projection, output })
}

/// The aggregate calls collected while rewriting expressions over an
/// aggregate stage's output.
struct Extraction {
    group_keys: Vec<String>,
    calls: Vec<AggCall<Expr>>,
    call_keys: Vec<String>,
    split_avg: bool,
}

impl Extraction {
    /// Replace aggregate calls and group-key subtrees of `e` with references
    /// into the aggregate stage's output row, collecting the calls.
    fn rewrite(&mut self, e: &Expr) -> PgResult<Expr> {
        if let Some(i) = self.group_keys.iter().position(|k| k == &normal_key(e)) {
            return Ok(Expr::Column { table: Some("__grp".into()), name: format!("g{i}") });
        }
        if let Expr::Func(f) = e {
            if let Some(kind) = AggKind::resolve(&f.name, f.star) {
                if kind == AggKind::Avg && self.split_avg {
                    let part = |name: &str| {
                        let call = FuncCall::new(name, f.args.clone());
                        Expr::Func(FuncCall { distinct: f.distinct, ..call })
                    };
                    let nonzero_count = FuncCall::new("nullif", vec![part("count"), Expr::int(0)]);
                    return self.rewrite(&Expr::bin(
                        Expr::Cast { expr: Box::new(part("sum")), ty: TypeName::Float },
                        BinaryOp::Div,
                        Expr::Func(nonzero_count),
                    ));
                }
                let key = deparse_expr(e);
                let idx = match self.call_keys.iter().position(|k| k == &key) {
                    Some(i) => i,
                    None => {
                        let arg = match kind {
                            AggKind::CountStar => None,
                            _ => Some(f.args.first().cloned().ok_or_else(|| {
                                PgError::new(ErrorCode::Syntax, "aggregate needs an argument")
                            })?),
                        };
                        self.calls.push(AggCall { kind, arg, distinct: f.distinct });
                        self.call_keys.push(key);
                        self.calls.len() - 1
                    }
                };
                return Ok(Expr::Column { table: Some("__agg".into()), name: format!("a{idx}") });
            }
        }
        // otherwise recurse structurally
        Ok(match e {
            Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: self.boxed(expr)? },
            Expr::Binary { left, op, right } => {
                Expr::Binary { left: self.boxed(left)?, op: *op, right: self.boxed(right)? }
            }
            Expr::Cast { expr, ty } => Expr::Cast { expr: self.boxed(expr)?, ty: *ty },
            Expr::IsNull { expr, negated } => {
                Expr::IsNull { expr: self.boxed(expr)?, negated: *negated }
            }
            Expr::Like { expr, pattern, negated, case_insensitive } => Expr::Like {
                expr: self.boxed(expr)?,
                pattern: self.boxed(pattern)?,
                negated: *negated,
                case_insensitive: *case_insensitive,
            },
            Expr::Between { expr, low, high, negated } => Expr::Between {
                expr: self.boxed(expr)?,
                low: self.boxed(low)?,
                high: self.boxed(high)?,
                negated: *negated,
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: self.boxed(expr)?,
                list: list.iter().map(|x| self.rewrite(x)).collect::<PgResult<_>>()?,
                negated: *negated,
            },
            Expr::Case { operand, branches, else_result } => Expr::Case {
                operand: operand.as_deref().map(|o| self.boxed(o)).transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.rewrite(w)?, self.rewrite(t)?)))
                    .collect::<PgResult<_>>()?,
                else_result: else_result.as_deref().map(|x| self.boxed(x)).transpose()?,
            },
            Expr::Func(f) => Expr::Func(FuncCall {
                name: f.name.clone(),
                args: f.args.iter().map(|a| self.rewrite(a)).collect::<PgResult<_>>()?,
                distinct: f.distinct,
                star: f.star,
            }),
            // leaves
            other => other.clone(),
        })
    }

    fn boxed(&mut self, e: &Expr) -> PgResult<Box<Expr>> {
        self.rewrite(e).map(Box::new)
    }
}

/// Replace every expression subquery of `stmt` by its result, inner ones
/// first: one pass over the whole statement, FROM-subqueries and `INSERT …
/// SELECT` sources included. Each subquery runs on its own, so a correlated
/// one fails ([`inline`]).
pub fn inline_subqueries(stmt: &mut Statement, subq: &mut dyn SubqueryExecutor) -> PgResult<()> {
    let mut inliner = Inliner { subq, error: None };
    shape::walk_mut(stmt, &mut inliner);
    inliner.error.map_or(Ok(()), Err)
}

struct Inliner<'s> {
    subq: &'s mut dyn SubqueryExecutor,
    error: Option<PgError>,
}

impl VisitMut for Inliner<'_> {
    fn rewrites_values(&mut self) -> bool {
        false
    }

    fn nested(&mut self, n: Nested<&mut Select, &mut Expr>) -> bool {
        let Nested::Expr(e, clause) = n else { return self.error.is_none() };
        let Some(sub) = e.subquery_mut().filter(|_| self.error.is_none()) else { return false };
        shape::walk_select_mut(sub, self);
        if self.error.is_none() {
            let rows = self.subq.run_subquery(sub).map(|(_, rows)| rows);
            self.error = inline(e, clause, rows).err();
        }
        false
    }
}

/// Replace `e`, a scalar, `IN` or `EXISTS` subquery sitting in `clause`, by
/// what `rows`, its result, stand for: the one value of a scalar subquery
/// (NULL without a row), an `IN` list of the values, made once and shared by
/// every copy of the statement, or a boolean. The subquery may return one
/// column only, and as a scalar one row at most. A subquery that failed on a
/// column it cannot see (42703) is correlated: refused with 0A000, as Citus
/// 9.5 refuses correlated subqueries; an ambiguous column (42702) stays what
/// it is. An integer standing for a subquery in `GROUP BY` or `ORDER BY` is
/// cast, so that it reads as no ordinal.
pub fn inline(
    e: &mut Expr,
    clause: Clause,
    rows: PgResult<Vec<crate::types::Row>>,
) -> PgResult<()> {
    let rows = rows.map_err(|err| {
        if err.code == ErrorCode::UndefinedColumn {
            let why = format!("correlated subqueries are not supported ({})", err.message);
            PgError::unsupported(why)
        } else {
            err
        }
    })?;
    let one_column = |row: &crate::types::Row, what: &str| match &row[..] {
        [value] => Ok(datum_expr(value)),
        _ => Err(PgError::new(ErrorCode::Syntax, format!("{what} must return a single column"))),
    };
    *e = match std::mem::replace(e, Expr::Literal(Literal::Null)) {
        Expr::ScalarSubquery(_) => match &rows[..] {
            [] => Expr::Literal(Literal::Null),
            [row] => one_column(row, "subquery")?,
            _ => {
                return Err(PgError::new(
                    ErrorCode::Syntax,
                    "more than one row returned by a subquery used as an expression",
                ))
            }
        },
        // x IN () is false; x NOT IN () is true (no NULL involved)
        Expr::InSubquery { negated, .. } if rows.is_empty() => {
            Expr::Literal(Literal::Bool(negated))
        }
        Expr::InSubquery { expr, negated, .. } => Expr::InList {
            expr,
            list: rows.iter().map(|r| one_column(r, "subquery in IN")).collect::<PgResult<_>>()?,
            negated,
        },
        Expr::Exists { negated, .. } => Expr::Literal(Literal::Bool(rows.is_empty() == negated)),
        other => return Err(PgError::internal(format!("no subquery to inline in {other:?}"))),
    };
    let ordinal = matches!(e, Expr::Literal(Literal::Int(_)));
    if ordinal && matches!(clause, Clause::GroupBy | Clause::OrderBy) {
        let value = std::mem::replace(e, Expr::Literal(Literal::Null));
        *e = Expr::Cast { expr: Box::new(value), ty: TypeName::Int };
    }
    Ok(())
}

/// A reference to `c` as SQL.
fn column_expr(c: &ColumnRef) -> Expr {
    Expr::Column { table: c.qualifier.as_deref().map(str::to_string), name: c.name.to_string() }
}

/// Split an expression into top-level AND conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    operands(e, BinaryOp::And).into_iter().cloned().collect()
}

/// The operands of a chain of `op` (AND or OR), in written order.
fn operands(e: &Expr, op: BinaryOp) -> Vec<&Expr> {
    match e {
        Expr::Binary { left, op: o, right } if *o == op => {
            let mut v = operands(left, op);
            v.extend(operands(right, op));
            v
        }
        other => vec![other],
    }
}

/// AND a list of conjuncts back together.
pub fn conjoin(mut v: Vec<Expr>) -> Option<Expr> {
    let first = if v.is_empty() { return None } else { v.remove(0) };
    Some(v.into_iter().fold(first, |acc, e| Expr::bin(acc, BinaryOp::And, e)))
}

/// The set of table qualifiers an expression references.
fn referenced_qualifiers(e: &Expr, scope: &RowScope) -> PgResult<Vec<Arc<str>>> {
    let mut quals: Vec<Arc<str>> = Vec::new();
    let mut err: Option<PgError> = None;
    e.walk(&mut |x| {
        if let Expr::Column { table, name } = x {
            match scope.resolve(table.as_deref(), name) {
                Ok(i) => {
                    if let Some(q) = &scope.cols[i].qualifier {
                        if !quals.contains(q) {
                            quals.push(q.clone());
                        }
                    }
                }
                Err(e2) => {
                    if err.is_none() {
                        err = Some(e2);
                    }
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(quals),
    }
}

/// Try to push one WHERE conjunct down into the plan tree: onto a scan that
/// covers all its referenced tables, or as a hash-join condition at the join
/// whose two sides split its references. Returns false when it must stay as
/// a residual filter.
fn push_conjunct(
    node: &mut PlanNode,
    scope: &RowScope,
    conjunct: &Expr,
) -> PgResult<bool> {
    let quals = referenced_qualifiers(conjunct, scope)?;
    push_conjunct_inner(node, scope, conjunct, &quals, 0).map(|r| r.is_some())
}

/// Returns Some(()) if pushed. `offset` is this node's starting column in the
/// overall scope.
fn push_conjunct_inner(
    node: &mut PlanNode,
    scope: &RowScope,
    conjunct: &Expr,
    quals: &[Arc<str>],
    offset: usize,
) -> PgResult<Option<()>> {
    match node {
        PlanNode::Join { left, right, kind, hash_keys, on, left_arity, right_arity } => {
            let left_quals = node_qualifiers(scope, offset, *left_arity);
            let right_quals = node_qualifiers(scope, offset + *left_arity, *right_arity);
            let in_left = quals.iter().all(|q| left_quals.contains(q));
            let in_right = quals.iter().all(|q| right_quals.contains(q));
            // outer joins: pushing filters below the null-producing side
            // changes semantics; keep it simple and only push into inner/cross
            if in_left && !matches!(kind, JoinKind::Right | JoinKind::Full) {
                if let Some(()) =
                    push_conjunct_inner(left, scope, conjunct, quals, offset)?
                {
                    return Ok(Some(()));
                }
            }
            if in_right && !matches!(kind, JoinKind::Left | JoinKind::Full) {
                if let Some(()) = push_conjunct_inner(
                    right,
                    scope,
                    conjunct,
                    quals,
                    offset + *left_arity,
                )? {
                    return Ok(Some(()));
                }
            }
            // join condition? only for inner/cross joins
            if matches!(kind, JoinKind::Inner | JoinKind::Cross)
                && quals.iter().any(|q| left_quals.contains(q))
                && quals.iter().any(|q| right_quals.contains(q))
            {
                let sub_scope = RowScope {
                    cols: scope.cols[offset..offset + *left_arity + *right_arity].to_vec(),
                };
                let bound = bind(conjunct, &sub_scope)?;
                *kind = JoinKind::Inner;
                if !push_hash_key(hash_keys, conjunct, scope, offset, *left_arity, *right_arity)? {
                    append_on(on, bound);
                }
                return Ok(Some(()));
            }
            Ok(None)
        }
        PlanNode::SeqScan { filter, .. } | PlanNode::IndexScan { filter, .. } => {
            // does this conjunct reference only this node's columns?
            let my_quals = node_qualifiers(scope, offset, node_arity_at(scope, offset));
            if !quals.iter().all(|q| my_quals.contains(q)) {
                return Ok(None);
            }
            let sub_scope =
                RowScope { cols: scope.cols[offset..].to_vec() };
            // restrict to just this table's columns: for leaf nodes the
            // remaining scope *starts* with this table; binding may still see
            // later tables' columns, so re-check quals first (done above).
            let bound = bind(conjunct, &sub_scope)?;
            match filter {
                Some(f) => {
                    *filter = Some(BExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(f.clone()),
                        right: Box::new(bound),
                    })
                }
                None => *filter = Some(bound),
            }
            Ok(Some(()))
        }
        PlanNode::Materialized { .. } => Ok(None),
        PlanNode::Filter { input, .. } => {
            push_conjunct_inner(input, scope, conjunct, quals, offset)
        }
    }
}

/// Add `a = b` to a join's hash keys when one side reads only the join's
/// left input and the other only its right (the inputs span `left_arity`
/// and `right_arity` columns of `scope` from `offset`), each side bound
/// over its input; false, adding nothing, for any other conjunct.
fn push_hash_key(
    hash_keys: &mut Option<(Vec<BExpr>, Vec<BExpr>)>,
    conjunct: &Expr,
    scope: &RowScope,
    offset: usize,
    left_arity: usize,
    right_arity: usize,
) -> PgResult<bool> {
    let Expr::Binary { left: cl, op: BinaryOp::Eq, right: cr } = conjunct else { return Ok(false) };
    let left_quals = node_qualifiers(scope, offset, left_arity);
    let right_quals = node_qualifiers(scope, offset + left_arity, right_arity);
    let lq = referenced_qualifiers(cl, scope)?;
    let rq = referenced_qualifiers(cr, scope)?;
    let within = |qs: &[Arc<str>], side: &[Arc<str>]| qs.iter().all(|q| side.contains(q));
    let (lkey, rkey) = if within(&lq, &left_quals) && within(&rq, &right_quals) {
        (cl, cr)
    } else if within(&rq, &left_quals) && within(&lq, &right_quals) {
        (cr, cl)
    } else {
        return Ok(false);
    };
    let (lscope, rest) = scope.cols[offset..].split_at(left_arity);
    let lb = bind(lkey, &RowScope { cols: lscope.to_vec() })?;
    let rb = bind(rkey, &RowScope { cols: rest[..right_arity].to_vec() })?;
    match hash_keys {
        Some((ls, rs)) => {
            ls.push(lb);
            rs.push(rb);
        }
        None => *hash_keys = Some((vec![lb], vec![rb])),
    }
    Ok(true)
}

fn append_on(on: &mut Option<BExpr>, extra: BExpr) {
    match on {
        Some(existing) => {
            *on = Some(BExpr::Binary {
                op: BinOp::And,
                left: Box::new(existing.clone()),
                right: Box::new(extra),
            })
        }
        None => *on = Some(extra),
    }
}

/// Qualifiers covering `arity` columns starting at `offset` in the scope.
fn node_qualifiers(scope: &RowScope, offset: usize, arity: usize) -> Vec<Arc<str>> {
    let mut out = Vec::new();
    for c in scope.cols.iter().skip(offset).take(arity) {
        if let Some(q) = &c.qualifier {
            if !out.contains(q) {
                out.push(q.clone());
            }
        }
    }
    out
}

/// Arity of the leaf at `offset`: columns sharing the qualifier of the first.
fn node_arity_at(scope: &RowScope, offset: usize) -> usize {
    let Some(first) = scope.cols.get(offset) else { return 0 };
    scope.cols[offset..]
        .iter()
        .take_while(|c| c.qualifier == first.qualifier)
        .count()
}

/// Plan one FROM item (recursing into joins and derived tables).
/// Records each base table's arity in `arities` for the projection-pushdown
/// pass that runs once the full tree is assembled.
fn plan_table_ref(
    item: &TableRef,
    cat: &dyn PlannerCatalog,
    subq: &mut dyn SubqueryExecutor,
    arities: &mut std::collections::HashMap<TableId, usize>,
) -> PgResult<(PlanNode, RowScope)> {
    match item {
        TableRef::Table { name, alias } => {
            let meta = cat.table_meta(name)?;
            let qualifier = alias.as_deref().unwrap_or(name);
            let scope = RowScope::of_table(qualifier, &meta.column_names());
            arities.insert(meta.id, scope.len());
            Ok((PlanNode::SeqScan { table: meta.id, filter: None, cols: None }, scope))
        }
        TableRef::Subquery { query, alias } => {
            let (mut names, rows) = subq.run_subquery(query)?;
            // a name the subquery repeats reaches its first such column (in
            // PostgreSQL it is ambiguous); `*` reads the others under `?k:n?`
            for i in 0..names.len() {
                if names[..i].contains(&names[i]) {
                    names[i] = format!("?{}:{}?", names[i], i + 1);
                }
            }
            let scope = RowScope::of_table(alias, &names);
            let arity = scope.len();
            Ok((PlanNode::Materialized { rows, arity }, scope))
        }
        TableRef::Join { left, right, kind, on } => {
            let (lnode, lscope) = plan_table_ref(left, cat, subq, arities)?;
            let (rnode, rscope) = plan_table_ref(right, cat, subq, arities)?;
            let scope = lscope.join(&rscope);
            let mut node = PlanNode::Join {
                left_arity: lscope.len(),
                right_arity: rscope.len(),
                left: Box::new(lnode),
                right: Box::new(rnode),
                kind: *kind,
                hash_keys: None,
                on: None,
            };
            if let Some(cond) = on {
                // try to split the ON condition into hash keys + residual
                let conjuncts = split_conjuncts(cond);
                let mut residual = Vec::new();
                for c in conjuncts {
                    let pushed = if matches!(kind, JoinKind::Inner) {
                        push_conjunct(&mut node, &scope, &c)?
                    } else {
                        try_outer_join_keys(&mut node, &scope, &c)?
                    };
                    if !pushed {
                        residual.push(c);
                    }
                }
                if let Some(resid) = conjoin(residual) {
                    let bound = bind(&resid, &scope)?;
                    if let PlanNode::Join { on, .. } = &mut node {
                        append_on(on, bound);
                    }
                }
            }
            Ok((node, scope))
        }
    }
}

/// For outer joins the ON condition must stay at the join (it controls null
/// extension), but equi-conditions can still drive a hash join.
fn try_outer_join_keys(
    node: &mut PlanNode,
    scope: &RowScope,
    conjunct: &Expr,
) -> PgResult<bool> {
    let PlanNode::Join { kind, hash_keys, on, left_arity, right_arity, .. } = node else {
        return Ok(false);
    };
    if !matches!(kind, JoinKind::Left | JoinKind::Right | JoinKind::Full) {
        return Ok(false);
    }
    if matches!(conjunct, Expr::Binary { op: BinaryOp::Eq, .. }) {
        return push_hash_key(hash_keys, conjunct, scope, 0, *left_arity, *right_arity);
    }
    let bound = bind(conjunct, scope)?;
    append_on(on, bound);
    Ok(true)
}

/// After WHERE pushdown, upgrade eligible seq scans to index scans using the
/// table's indexes. Called by the executor with catalog access.
pub fn choose_access_paths(node: &mut PlanNode, cat: &dyn PlannerCatalog) -> PgResult<()> {
    match node {
        PlanNode::SeqScan { table, filter, .. } => {
            let Some(f) = filter.take() else { return Ok(()) };
            let meta = cat.table_meta_by_id(*table)?;
            match pick_index(&meta, &f, cat)? {
                Some((index, probe)) => {
                    *node = PlanNode::IndexScan { table: *table, index, probe, filter: Some(f) }
                }
                None => *filter = Some(f),
            }
            Ok(())
        }
        PlanNode::Join { left, right, .. } => {
            choose_access_paths(left, cat)?;
            choose_access_paths(right, cat)
        }
        PlanNode::Filter { input, .. } => choose_access_paths(input, cat),
        _ => Ok(()),
    }
}

/// Extract (col_position → const BExpr) equality pairs and range/LIKE atoms
/// from a bound filter's conjuncts.
fn bound_conjuncts(f: &BExpr) -> Vec<&BExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a BExpr, out: &mut Vec<&'a BExpr>) {
        if let BExpr::Binary { op: BinOp::And, left, right } = e {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(f, &mut out);
    out
}

fn pick_index(
    meta: &TableMeta,
    filter: &BExpr,
    cat: &dyn PlannerCatalog,
) -> PgResult<Option<(IndexId, IndexProbe)>> {
    let conjuncts = bound_conjuncts(filter);
    // equality atoms: Col(i) = const
    let mut eq: Vec<(usize, BExpr)> = Vec::new();
    // range atoms on a column: (col, low, high)
    type Bound = Option<(BExpr, bool)>;
    let mut ranges: Vec<(usize, Bound, Bound)> = Vec::new();
    // LIKE atoms: textual index-expression key → pattern
    let mut likes: Vec<(String, BExpr, bool)> = Vec::new();
    for c in &conjuncts {
        match c {
            BExpr::Binary { op: BinOp::Cmp(op), left, right } => {
                let (col, konst, op) = match (left.as_ref(), right.as_ref()) {
                    (BExpr::Col(i), k) if k.is_const() => (*i, k.clone(), *op),
                    (k, BExpr::Col(i)) if k.is_const() => (*i, k.clone(), op.mirror()),
                    _ => continue,
                };
                match op {
                    Cmp::Eq => eq.push((col, konst)),
                    Cmp::Gt => ranges.push((col, Some((konst, false)), None)),
                    Cmp::Ge => ranges.push((col, Some((konst, true)), None)),
                    Cmp::Lt => ranges.push((col, None, Some((konst, false)))),
                    Cmp::Le => ranges.push((col, None, Some((konst, true)))),
                    Cmp::Neq => {}
                }
            }
            BExpr::Between { expr, low, high, negated: false } => {
                if let BExpr::Col(i) = expr.as_ref() {
                    if low.is_const() && high.is_const() {
                        ranges.push((
                            *i,
                            Some(((**low).clone(), true)),
                            Some(((**high).clone(), true)),
                        ));
                    }
                }
            }
            BExpr::Like { expr, pattern, negated: false, case_insensitive }
                if pattern.is_const() =>
            {
                likes.push((bexpr_key(expr), (**pattern).clone(), *case_insensitive));
            }
            _ => {}
        }
    }

    let mut best: Option<(IndexId, IndexProbe, usize)> = None; // score = prefix len
    for &iid in &meta.indexes {
        let imeta = cat.index_meta(iid)?;
        match imeta.method {
            IndexMethod::BTree => {
                // map index expressions to column positions (plain columns only)
                let mut cols = Vec::new();
                let mut plain = true;
                for e in &imeta.exprs {
                    match e {
                        Expr::Column { name, .. } => match meta.column_index(name) {
                            Some(i) => cols.push(i),
                            None => {
                                plain = false;
                                break;
                            }
                        },
                        _ => {
                            plain = false;
                            break;
                        }
                    }
                }
                if !plain || cols.is_empty() {
                    continue;
                }
                // longest equality prefix
                let mut probe_vals = Vec::new();
                for &c in &cols {
                    match eq.iter().find(|(ec, _)| *ec == c) {
                        Some((_, k)) => probe_vals.push(k.clone()),
                        None => break,
                    }
                }
                if !probe_vals.is_empty() {
                    let score = probe_vals.len() * 2 + 1;
                    if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                        best = Some((iid, IndexProbe::EqPrefix(probe_vals), score));
                    }
                    continue;
                }
                // range on first column
                if let Some((_, lo, hi)) =
                    ranges.iter().find(|(rc, _, _)| *rc == cols[0])
                {
                    let score = 1;
                    if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                        best = Some((
                            iid,
                            IndexProbe::Range { low: lo.clone(), high: hi.clone() },
                            score,
                        ));
                    }
                }
            }
            IndexMethod::Gin => {
                // match a LIKE whose argument equals the indexed expression
                let Some(iexpr) = imeta.exprs.first() else { continue };
                let ikey = expr_key_for_index(iexpr, meta);
                if let Some((_, pattern, ci)) = likes.iter().find(|(k, _, _)| *k == ikey) {
                    let score = 2;
                    if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                        best = Some((
                            iid,
                            IndexProbe::LikePattern {
                                pattern: pattern.clone(),
                                case_insensitive: *ci,
                            },
                            score,
                        ));
                    }
                }
            }
        }
    }
    Ok(best.map(|(i, p, _)| (i, p)))
}

/// Canonical key of a bound expression for matching GIN index expressions.
fn bexpr_key(e: &BExpr) -> String {
    format!("{e:?}")
}

/// Key of an index expression, bound over the table's own scope.
fn expr_key_for_index(e: &Expr, meta: &TableMeta) -> String {
    let scope = RowScope {
        cols: meta.columns.iter().map(|c| ColumnRef::new(None, &c.name)).collect(),
    };
    match bind(e, &scope) {
        Ok(b) => bexpr_key(&b),
        Err(_) => String::from("<unbindable>"),
    }
}
