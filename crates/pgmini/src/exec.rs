//! Plan execution (SELECT side).
//!
//! Materialising executor: each plan node produces its full row set. This
//! matches the engine's role in the reproduction — PostgreSQL is effectively
//! single-threaded per query (§2.2 of the paper), and all parallelism comes
//! from the distributed layer running many per-shard queries concurrently.

use crate::batch::{
    eval_batch, filter_batch, kernel_count, supports_batch, ColumnBatch, BATCH_CAPACITY,
};
use crate::buffer::BufferKey;
use crate::catalog::TableId;
use crate::cost::{SimCost, CPU_TUPLE_MS, INDEX_DESCEND_MS};
use crate::engine::Engine;
use crate::error::{PgError, PgResult};
use crate::expr::{eval, BExpr, EvalCtx};
use crate::index::IndexStore;
use crate::lock::{LockKey, LockMode};
use crate::plan::{AggCall, AggKind, FinishStage, IndexProbe, PlanNode, SelectPlan};
use crate::storage::{ColumnarStore, TableStore};
use crate::txn::{Snapshot, Xid, INVALID_XID};
use crate::types::{Datum, KeyTable, Row};
use sqlparse::ast::JoinKind;
use std::borrow::Cow;
use std::sync::Arc;

/// Execution context for one statement.
pub struct ExecCtx<'e> {
    pub engine: &'e Arc<Engine>,
    pub snap: Snapshot,
    /// Current transaction id; [`INVALID_XID`] for implicit read-only.
    pub xid: Xid,
    pub eval_ctx: EvalCtx,
    pub cost: SimCost,
}

impl<'e> ExecCtx<'e> {
    pub fn new(engine: &'e Arc<Engine>, snap: Snapshot, xid: Xid, seed: u64) -> Self {
        let eval_ctx = EvalCtx::new(seed, crate::expr::NOW_MICROS);
        ExecCtx { engine, snap, xid, eval_ctx, cost: SimCost::ZERO }
    }
}

/// Planner's view of an engine's catalog and statistics.
pub struct EngineCatalogView<'a> {
    pub engine: &'a Engine,
}

impl crate::plan::PlannerCatalog for EngineCatalogView<'_> {
    fn table_meta(&self, name: &str) -> PgResult<Arc<crate::catalog::TableMeta>> {
        self.engine.table_meta(name)
    }

    fn table_meta_by_id(&self, id: TableId) -> PgResult<Arc<crate::catalog::TableMeta>> {
        self.engine.table_meta_by_id(id)
    }

    fn index_meta(
        &self,
        id: crate::catalog::IndexId,
    ) -> PgResult<Arc<crate::catalog::IndexMeta>> {
        self.engine.index_meta(id)
    }

    fn row_estimate(&self, table: TableId) -> u64 {
        self.engine.store(table).map(|s| s.live_estimate()).unwrap_or(0)
    }
}

/// Subquery executor that recurses through `execute_select` on the same
/// execution context (same snapshot, shared cost accounting).
pub(crate) struct CtxSubquery<'a, 'e> {
    pub(crate) ctx: &'a mut ExecCtx<'e>,
}

impl crate::plan::SubqueryExecutor for CtxSubquery<'_, '_> {
    fn run_subquery(&mut self, sub: &sqlparse::ast::Select) -> PgResult<Vec<Row>> {
        execute_select(self.ctx, sub).map(|(_, rows)| rows)
    }
}

/// Plan a SELECT against the context's engine (subqueries run eagerly).
pub fn build_select_plan(ctx: &mut ExecCtx, sel: &sqlparse::ast::Select) -> PgResult<SelectPlan> {
    let engine = ctx.engine.clone();
    let view = EngineCatalogView { engine: &engine };
    let mut plan = crate::plan::plan_select(sel, &view, &mut CtxSubquery { ctx })?;
    crate::plan::choose_access_paths(&mut plan.input, &view)?;
    Ok(plan)
}

/// Plan + run a SELECT as written (no plan cache: this is the path of
/// subqueries and `INSERT … SELECT` sources), returning (column names, rows).
pub fn execute_select(
    ctx: &mut ExecCtx,
    sel: &sqlparse::ast::Select,
) -> PgResult<(Vec<String>, Vec<Row>)> {
    let plan = build_select_plan(ctx, sel)?;
    run_select_plan(ctx, &plan)
}

/// Evaluate a filter as a WHERE condition (NULL = false).
pub(crate) fn passes(filter: &Option<BExpr>, row: &Row, ctx: &EvalCtx) -> PgResult<bool> {
    match filter {
        None => Ok(true),
        Some(f) => Ok(matches!(eval(f, row, ctx)?, Datum::Bool(true))),
    }
}

/// I/O of a columnar scan touching only `refs` columns: the table's simulated
/// bytes are apportioned across columns by declared type width, so a query
/// reading 2 of 16 lineitem columns pays ~1/8 the I/O of a full scan. Each
/// referenced column reads — and caches — under its own buffer key, so mixed
/// projections over the same table keep each other's columns warm instead of
/// fighting over a single residency counter. Returns `(pages, misses)`.
fn columnar_scan_io(
    buffer: &crate::buffer::BufferPool,
    meta: &crate::catalog::TableMeta,
    rows: u64,
    refs: &[usize],
) -> (u64, u64) {
    let total: u64 = meta
        .columns
        .iter()
        .map(|c| crate::catalog::type_width(c.ty) as u64)
        .sum::<u64>()
        .max(1);
    let mut pages = 0u64;
    let mut misses = 0u64;
    for &i in refs {
        let Some(col) = meta.columns.get(i) else { continue };
        let w = crate::catalog::type_width(col.ty) as u64;
        let eff_width = ((meta.sim_row_width as u64 * w) / total).max(1) as u32;
        let col_pages = crate::cost::pages_for(rows, eff_width);
        pages += col_pages;
        misses += buffer.scan(BufferKey::TableColumn(meta.id.0, i as u32), col_pages);
    }
    (pages, misses)
}

/// The one columnar read loop, behind both the row-returning scan and the
/// fused aggregate. It charges the I/O of the referenced columns (`cols`,
/// or every column), slices each visible stripe into `BATCH_CAPACITY`
/// batches and selects each batch's rows: by the filter's kernels when
/// `vectorized` is on and the filter has them, otherwise by `passes` over
/// the batch's rows one at a time. `consume` gets each batch with its
/// selection. A kernel scan books one scan kernel, the filter's kernels and
/// `consumer_kernels` per batch plus one value lane per scanned row; a
/// row-by-row scan books one tuple per scanned row.
fn scan_columnar(
    ctx: &mut ExecCtx,
    meta: &crate::catalog::TableMeta,
    col: &ColumnarStore,
    filter: &Option<BExpr>,
    cols: Option<&[usize]>,
    consumer_kernels: u64,
    mut consume: impl FnMut(&ColumnBatch<'_>, &[usize], &EvalCtx) -> PgResult<()>,
) -> PgResult<()> {
    let all_cols: Vec<usize> = (0..meta.columns.len()).collect();
    let refs: &[usize] = cols.unwrap_or(&all_cols);
    let (pages, misses) = columnar_scan_io(&ctx.engine.buffer, meta, col.live_estimate(), refs);
    ctx.cost.add_pages(pages, misses);
    let by_kernel = ctx.engine.config.vectorized && filter.as_ref().is_none_or(supports_batch);
    let ectx = &ctx.eval_ctx;
    let mut row: Row = Vec::new();
    let mut select = |batch: &ColumnBatch<'_>| -> PgResult<Vec<usize>> {
        let all: Vec<usize> = (0..batch.len).collect();
        match filter {
            Some(f) if by_kernel => filter_batch(f, batch, &all, ectx),
            Some(_) => {
                let mut sel = Vec::new();
                for r in all {
                    row.clear();
                    row.extend(batch.values(r));
                    if passes(filter, &row, ectx)? {
                        sel.push(r);
                    }
                }
                Ok(sel)
            }
            None => Ok(all),
        }
    };
    let (mut scanned, mut batches) = (0u64, 0u64);
    let mut err = None;
    col.for_each_visible_stripe(&ctx.engine.txns, &ctx.snap, |_seq, nrows, columns| {
        let mut lo = 0;
        while lo < nrows && err.is_none() {
            let len = (nrows - lo).min(BATCH_CAPACITY);
            let batch = ColumnBatch::from_stripe(columns, lo, len, refs);
            err = select(&batch).and_then(|sel| consume(&batch, &sel, ectx)).err();
            batches += 1;
            scanned += len as u64;
            lo += len;
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if by_kernel {
        let kernels_per_batch = 1 + filter.as_ref().map_or(0, kernel_count) + consumer_kernels;
        ctx.cost.batches += batches;
        ctx.cost.add_kernels(kernels_per_batch * batches, scanned);
        ctx.cost.rows_processed += scanned;
    } else {
        ctx.cost.add_tuples(scanned);
    }
    Ok(())
}

/// Scan a table and collect what `keep(row_id, row)` makes of each row that
/// passes `filter`. This is the shared primitive behind SELECT scans (which
/// keep the row), UPDATE/DELETE target collection and FOR UPDATE (which keep
/// the row id and never copy the row). A heap row is lent, a columnar row is
/// handed over (its id is 0). `cols` is the planner's referenced-column set
/// (projection pushdown); `None` reads every column.
pub fn scan_table<T>(
    ctx: &mut ExecCtx,
    table: TableId,
    index: Option<(crate::catalog::IndexId, &IndexProbe)>,
    filter: &Option<BExpr>,
    cols: Option<&[usize]>,
    mut keep: impl FnMut(u64, Cow<'_, Row>) -> T,
) -> PgResult<Vec<T>> {
    let meta = ctx.engine.table_meta_by_id(table)?;
    let store = ctx.engine.store(table)?;
    let mut out = Vec::new();
    match index {
        None => match &*store {
            TableStore::Heap(heap) => {
                let pages = ctx.engine.table_pages(&meta);
                let misses = ctx.engine.buffer.scan(BufferKey::Table(table.0), pages);
                ctx.cost.add_pages(pages, misses);
                let mut scanned = 0u64;
                let mut err = None;
                heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
                    if err.is_some() {
                        return;
                    }
                    scanned += 1;
                    match passes(filter, &t.data, &ctx.eval_ctx) {
                        Ok(true) => out.push(keep(t.row_id, Cow::Borrowed(&t.data))),
                        Ok(false) => {}
                        Err(e) => err = Some(e),
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
                ctx.cost.add_tuples(scanned);
            }
            TableStore::Columnar(col) => {
                scan_columnar(ctx, &meta, col, filter, cols, 0, |batch, sel, _| {
                    for row in batch.take_rows(sel) {
                        out.push(keep(0, Cow::Owned(row)));
                    }
                    Ok(())
                })?;
            }
        },
        Some((iid, probe)) => {
            let istore = ctx.engine.index_store(iid)?;
            let heap = store.heap()?;
            let row_ids: Vec<u64> = match (&*istore, probe) {
                (IndexStore::BTree(b), IndexProbe::EqPrefix(vals)) => {
                    let key: Vec<Datum> = vals
                        .iter()
                        .map(|v| eval(v, &vec![], &ctx.eval_ctx))
                        .collect::<PgResult<_>>()?;
                    let imeta = ctx.engine.index_meta(iid)?;
                    ctx.cost.add_cpu(INDEX_DESCEND_MS);
                    // page touches of a B-tree descent: modelled at the
                    // *full-size* index depth (a few levels) rather than the
                    // scaled-down one, so sharded and unsharded layouts pay
                    // comparable per-probe I/O
                    let touched = 3;
                    let ipages = (b.len() / 200).max(1);
                    let misses =
                        ctx.engine.buffer.point_read(BufferKey::Index(iid.0), ipages, touched);
                    ctx.cost.add_pages(touched, misses);
                    if key.len() == imeta.exprs.len() {
                        b.get_eq(&key)
                    } else {
                        b.get_prefix(&key)
                    }
                }
                (IndexStore::BTree(b), IndexProbe::Range { low, high }) => {
                    let lo = low
                        .as_ref()
                        .map(|(e, i)| Ok::<_, PgError>((eval(e, &vec![], &ctx.eval_ctx)?, *i)))
                        .transpose()?;
                    let hi = high
                        .as_ref()
                        .map(|(e, i)| Ok::<_, PgError>((eval(e, &vec![], &ctx.eval_ctx)?, *i)))
                        .transpose()?;
                    ctx.cost.add_cpu(INDEX_DESCEND_MS);
                    b.range_first_col(
                        lo.as_ref().map(|(d, i)| (d, *i)),
                        hi.as_ref().map(|(d, i)| (d, *i)),
                    )
                }
                (IndexStore::Gin(g), IndexProbe::LikePattern { pattern, .. }) => {
                    let p = eval(pattern, &vec![], &ctx.eval_ctx)?;
                    ctx.cost.add_cpu(INDEX_DESCEND_MS * 3.0);
                    match g.candidates_for_like(&p.to_text()) {
                        Some(ids) => ids,
                        None => {
                            // pattern too short: seq scan fallback
                            return scan_table(ctx, table, None, filter, cols, keep);
                        }
                    }
                }
                _ => return Err(PgError::internal("index probe/store mismatch")),
            };
            // every MVCC version has its own index entry; a logical row must
            // be fetched once
            let row_ids = {
                let mut ids = row_ids;
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            // fetch + recheck each candidate
            let table_pages = ctx.engine.table_pages(&meta).max(1);
            for row_id in row_ids {
                let misses =
                    ctx.engine.buffer.point_read(BufferKey::Table(table.0), table_pages, 1);
                ctx.cost.add_pages(1, misses);
                let kept =
                    heap.with_visible_version(&ctx.engine.txns, &ctx.snap, row_id, |row| {
                        passes(filter, row, &ctx.eval_ctx)
                            .map(|ok| ok.then(|| keep(row_id, Cow::Borrowed(row))))
                    });
                if let Some(kept) = kept {
                    ctx.cost.add_tuples(1);
                    out.extend(kept?);
                }
            }
        }
    }
    Ok(out)
}

/// Execute a FROM/WHERE plan node, producing rows.
pub fn run_plan_node(ctx: &mut ExecCtx, node: &PlanNode) -> PgResult<Vec<Row>> {
    match node {
        PlanNode::SeqScan { table, filter, cols } => {
            scan_table(ctx, *table, None, filter, cols.as_deref(), |_, r| r.into_owned())
        }
        PlanNode::IndexScan { table, index, probe, filter } => {
            scan_table(ctx, *table, Some((*index, probe)), filter, None, |_, r| r.into_owned())
        }
        PlanNode::Materialized { rows, .. } => {
            ctx.cost.add_tuples(rows.len() as u64);
            Ok(rows.clone())
        }
        PlanNode::Filter { input, pred } => {
            let rows = run_plan_node(ctx, input)?;
            let mut out = Vec::new();
            for r in rows {
                if matches!(eval(pred, &r, &ctx.eval_ctx)?, Datum::Bool(true)) {
                    out.push(r);
                }
            }
            ctx.cost.add_tuples(out.len() as u64);
            Ok(out)
        }
        PlanNode::Join { left, right, kind, hash_keys, on, left_arity, right_arity } => {
            let lrows = run_plan_node(ctx, left)?;
            // nothing to join: like PostgreSQL's hash join, skip the inner
            // input unless its unmatched rows are part of the result
            if lrows.is_empty() && matches!(kind, JoinKind::Inner | JoinKind::Cross | JoinKind::Left)
            {
                return Ok(Vec::new());
            }
            let rrows = run_plan_node(ctx, right)?;
            join_rows(ctx, lrows, rrows, *kind, hash_keys, on, *left_arity, *right_arity)
        }
    }
}

/// Marks the end of a hash join's per-key chain of build rows.
const NO_ROW: usize = usize::MAX;

#[allow(clippy::too_many_arguments)]
fn join_rows(
    ctx: &mut ExecCtx,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    kind: JoinKind,
    hash_keys: &Option<(Vec<BExpr>, Vec<BExpr>)>,
    on: &Option<BExpr>,
    left_arity: usize,
    right_arity: usize,
) -> PgResult<Vec<Row>> {
    let mut out = Vec::new();
    let mut pair = PairTest { on, scratch: Vec::new() };
    let right_nulls = vec![Datum::Null; right_arity];
    match hash_keys {
        Some((lkeys, rkeys)) => {
            // build on the right side: one slot per distinct key, its rows
            // chained in build order (`first[slot]`, then `next[row]`)
            let mut table = KeyTable::new(rkeys.len());
            let mut first: Vec<usize> = Vec::new();
            let mut last: Vec<usize> = Vec::new();
            let mut next = vec![NO_ROW; rrows.len()];
            let mut key: Row = Vec::with_capacity(rkeys.len());
            for (i, r) in rrows.iter().enumerate() {
                eval_into(rkeys, r, &ctx.eval_ctx, &mut key)?;
                if key.iter().any(Datum::is_null) {
                    continue; // NULL keys never join
                }
                match table.insert(&key) {
                    (_, true) => {
                        first.push(i);
                        last.push(i);
                    }
                    (slot, false) => {
                        next[last[slot]] = i;
                        last[slot] = i;
                    }
                }
            }
            ctx.cost.add_tuples(rrows.len() as u64);
            let mut right_matched = vec![false; rrows.len()];
            for l in &lrows {
                eval_into(lkeys, l, &ctx.eval_ctx, &mut key)?;
                let mut matched = false;
                let slot =
                    if key.iter().any(Datum::is_null) { None } else { table.find(&key) };
                if let Some(slot) = slot {
                    pair.start(l);
                    let mut ri = first[slot];
                    while ri != NO_ROW {
                        if let Some(row) = pair.test(l, &rrows[ri], &ctx.eval_ctx)? {
                            right_matched[ri] = true;
                            matched = true;
                            out.push(row);
                        }
                        ri = next[ri];
                    }
                }
                if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                    out.push(concat(l, &right_nulls));
                }
            }
            if matches!(kind, JoinKind::Right | JoinKind::Full) {
                let left_nulls = vec![Datum::Null; left_arity];
                for (ri, m) in right_matched.iter().enumerate() {
                    if !m {
                        out.push(concat(&left_nulls, &rrows[ri]));
                    }
                }
            }
            ctx.cost.add_tuples(lrows.len() as u64 + out.len() as u64);
        }
        None => {
            if matches!(kind, JoinKind::Right | JoinKind::Full) {
                return Err(PgError::unsupported(
                    "RIGHT/FULL join without an equality condition",
                ));
            }
            for l in &lrows {
                let mut matched = false;
                pair.start(l);
                for r in &rrows {
                    if let Some(row) = pair.test(l, r, &ctx.eval_ctx)? {
                        matched = true;
                        out.push(row);
                    }
                }
                if !matched && kind == JoinKind::Left {
                    out.push(concat(l, &right_nulls));
                }
            }
            ctx.cost
                .add_tuples((lrows.len() * rrows.len().max(1)) as u64);
        }
    }
    Ok(out)
}

/// Evaluate `exprs` over `row` into `out`, reusing its allocation.
fn eval_into(exprs: &[BExpr], row: &Row, ctx: &EvalCtx, out: &mut Row) -> PgResult<()> {
    out.clear();
    for e in exprs {
        out.push(eval(e, row, ctx)?);
    }
    Ok(())
}

fn concat(l: &[Datum], r: &[Datum]) -> Row {
    let mut row = Vec::with_capacity(l.len() + r.len());
    row.extend_from_slice(l);
    row.extend_from_slice(r);
    row
}

/// A join's residual `ON`, tested on one reused row: a pair it rejects
/// allocates nothing, and only an emitted pair becomes a new row.
struct PairTest<'a> {
    on: &'a Option<BExpr>,
    scratch: Row,
}

impl PairTest<'_> {
    /// Begin the pairs of left row `l`.
    fn start(&mut self, l: &[Datum]) {
        if self.on.is_some() {
            self.scratch.clear();
            self.scratch.extend_from_slice(l);
        }
    }

    /// `l ++ r` if the residual passes it (NULL = false); `l` is the row
    /// given to the last [`PairTest::start`].
    fn test(&mut self, l: &[Datum], r: &[Datum], ctx: &EvalCtx) -> PgResult<Option<Row>> {
        let Some(pred) = self.on else { return Ok(Some(concat(l, r))) };
        self.scratch.truncate(l.len());
        self.scratch.extend_from_slice(r);
        let pass = matches!(eval(pred, &self.scratch, ctx)?, Datum::Bool(true));
        Ok(pass.then(|| self.scratch.clone()))
    }
}

/// Aggregate accumulator.
struct AggState {
    kind: AggKind,
    count: u64,
    sum_i: i64,
    sum_f: f64,
    float_mode: bool,
    minmax: Option<Datum>,
    distinct: Option<KeyTable>,
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        AggState {
            kind: call.kind,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            float_mode: false,
            minmax: None,
            distinct: call.distinct.then(|| KeyTable::new(1)),
        }
    }

    fn update(&mut self, value: Option<Datum>) -> PgResult<()> {
        match self.kind {
            AggKind::CountStar => {
                self.count += 1;
                return Ok(());
            }
            _ => {
                let Some(v) = value else { return Ok(()) };
                if v.is_null() {
                    return Ok(());
                }
                if let Some(set) = &mut self.distinct {
                    if !set.insert(std::slice::from_ref(&v)).1 {
                        return Ok(());
                    }
                }
                match self.kind {
                    AggKind::Count => self.count += 1,
                    AggKind::Sum | AggKind::Avg => {
                        self.count += 1;
                        match &v {
                            Datum::Int(x) => {
                                self.sum_i = self.sum_i.wrapping_add(*x);
                                self.sum_f += *x as f64;
                            }
                            _ => {
                                self.float_mode = true;
                                self.sum_f += v.as_f64()?;
                            }
                        }
                    }
                    AggKind::Min => {
                        let take = match &self.minmax {
                            None => true,
                            Some(cur) => {
                                v.sql_cmp(cur) == Some(std::cmp::Ordering::Less)
                            }
                        };
                        if take {
                            self.minmax = Some(v);
                        }
                    }
                    AggKind::Max => {
                        let take = match &self.minmax {
                            None => true,
                            Some(cur) => {
                                v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater)
                            }
                        };
                        if take {
                            self.minmax = Some(v);
                        }
                    }
                    AggKind::CountStar => unreachable!(),
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Datum {
        match self.kind {
            AggKind::CountStar | AggKind::Count => Datum::Int(self.count as i64),
            AggKind::Sum => {
                if self.count == 0 {
                    Datum::Null
                } else if self.float_mode {
                    Datum::Float(self.sum_f)
                } else {
                    Datum::Int(self.sum_i)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::Float(self.sum_f / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.minmax.clone().unwrap_or(Datum::Null),
        }
    }
}

/// An aggregate stage's groups: a slot per distinct key, each slot's
/// states side by side in one vector, output in key order.
struct Groups<'s> {
    calls: &'s [AggCall],
    keys: KeyTable,
    states: Vec<AggState>,
}

impl<'s> Groups<'s> {
    fn new(stage: &'s crate::plan::AggStage) -> Groups<'s> {
        Groups { calls: &stage.calls, keys: KeyTable::new(stage.group.len()), states: Vec::new() }
    }

    /// The states of `key`'s group, created the first time it is seen.
    fn states(&mut self, key: &[Datum]) -> &mut [AggState] {
        let (slot, new) = self.keys.insert(key);
        if new {
            self.states.extend(self.calls.iter().map(AggState::new));
        }
        let n = self.calls.len();
        &mut self.states[slot * n..(slot + 1) * n]
    }

    /// One row per group in key order: the key, then each aggregate. A
    /// global aggregate (no GROUP BY) over no rows still yields one row.
    fn finish(mut self) -> Vec<Row> {
        if self.keys.is_empty() && self.keys.key_width() == 0 {
            self.states(&[]);
        }
        let n = self.calls.len();
        self.keys
            .sorted_slots()
            .into_iter()
            .map(|slot| {
                let mut row = Vec::with_capacity(self.keys.key_width() + n);
                row.extend_from_slice(self.keys.key(slot));
                row.extend(self.states[slot * n..(slot + 1) * n].iter().map(AggState::finish));
                row
            })
            .collect()
    }
}

/// Tier B: fused batched scan→filter→aggregate over a columnar base table.
/// Group keys and aggregate inputs are evaluated as kernels over the column
/// vectors of each batch — rows are never materialized. Returns `None` when
/// the plan shape or an expression doesn't qualify (the volcano path runs).
fn try_vectorized_agg(
    ctx: &mut ExecCtx,
    stage: &crate::plan::AggStage,
    input: &PlanNode,
) -> PgResult<Option<Vec<Row>>> {
    let PlanNode::SeqScan { table, filter, cols } = input else { return Ok(None) };
    let store = ctx.engine.store(*table)?;
    let TableStore::Columnar(col) = &*store else { return Ok(None) };
    if !filter.as_ref().is_none_or(supports_batch)
        || !stage.group.iter().all(supports_batch)
        || !stage.calls.iter().all(|c| c.arg.as_ref().is_none_or(supports_batch))
    {
        return Ok(None);
    }
    let meta = ctx.engine.table_meta_by_id(*table)?;
    // a gather + kernels per group key and per aggregate input
    let agg_kernels = stage.group.iter().map(|g| 1 + kernel_count(g)).sum::<u64>()
        + stage
            .calls
            .iter()
            .map(|c| c.arg.as_ref().map_or(1, |a| 1 + kernel_count(a)))
            .sum::<u64>();
    let mut groups = Groups::new(stage);
    let mut key: Row = Vec::with_capacity(stage.group.len());
    scan_columnar(ctx, &meta, col, filter, cols.as_deref(), agg_kernels, |batch, selected, ectx| {
        let gvecs: Vec<_> = stage
            .group
            .iter()
            .map(|g| eval_batch(g, batch, selected, ectx))
            .collect::<PgResult<_>>()?;
        let avecs: Vec<Option<_>> = stage
            .calls
            .iter()
            .map(|c| c.arg.as_ref().map(|a| eval_batch(a, batch, selected, ectx)).transpose())
            .collect::<PgResult<_>>()?;
        for &i in selected {
            key.clear();
            key.extend(gvecs.iter().map(|v| v.get(i).clone()));
            for (st, av) in groups.states(&key).iter_mut().zip(&avecs) {
                st.update(av.as_ref().map(|v| v.get(i).clone()))?;
            }
        }
        Ok(())
    })?;
    Ok(Some(groups.finish()))
}

/// Execute a planned SELECT end to end, returning (column names, rows).
pub fn run_select_plan(ctx: &mut ExecCtx, plan: &SelectPlan) -> PgResult<(Vec<String>, Vec<Row>)> {
    let finish = &plan.finish;
    // Tier B fused vectorized aggregation, when the shape allows it
    if let (Some(stage), None, true) =
        (&finish.agg, plan.for_update, ctx.engine.config.vectorized)
    {
        if let Some(groups) = try_vectorized_agg(ctx, stage, &plan.input)? {
            return finish.run_grouped(groups, &ctx.eval_ctx, &mut ctx.cost);
        }
    }
    // FOR UPDATE uses the locking scan path
    let input_rows: Vec<Row> = if let Some(table) = plan.for_update {
        if ctx.xid == INVALID_XID {
            return Err(PgError::internal("FOR UPDATE requires a transaction"));
        }
        let (index, filter) = match &plan.input {
            PlanNode::SeqScan { filter, .. } => (None, filter),
            PlanNode::IndexScan { index, probe, filter, .. } => (Some((*index, probe)), filter),
            _ => return Err(PgError::unsupported("FOR UPDATE on joins")),
        };
        let targets = scan_table(ctx, table, index, filter, None, |row_id, _| row_id)?;
        let mut rows = Vec::new();
        for row_id in targets {
            ctx.engine.locks.acquire(ctx.xid, LockKey::Row(table, row_id), LockMode::Exclusive)?;
            // recheck under a fresh snapshot after acquiring the lock
            let fresh = ctx.engine.txns.snapshot(ctx.xid);
            let heap_store = ctx.engine.store(table)?;
            let heap = heap_store.heap()?;
            if let Some(row) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) {
                if passes(filter, &row, &ctx.eval_ctx)? {
                    rows.push(row);
                }
            }
        }
        rows
    } else {
        run_plan_node(ctx, &plan.input)?
    };
    finish.run(input_rows, &ctx.eval_ctx, &mut ctx.cost)
}

impl FinishStage {
    /// Aggregate `rows` when the stage has an aggregate, then finish them:
    /// HAVING → projection → DISTINCT → ORDER BY → OFFSET/LIMIT → drop the
    /// hidden ORDER BY columns. Returns (column names, rows) and charges the
    /// work to `cost`.
    pub fn run(
        &self,
        rows: Vec<Row>,
        ctx: &EvalCtx,
        cost: &mut SimCost,
    ) -> PgResult<(Vec<String>, Vec<Row>)> {
        let groups = match &self.agg {
            None => rows,
            Some(stage) => {
                let mut groups = Groups::new(stage);
                let mut key: Row = Vec::with_capacity(stage.group.len());
                for row in &rows {
                    eval_into(&stage.group, row, ctx, &mut key)?;
                    for (st, call) in groups.states(&key).iter_mut().zip(&stage.calls) {
                        let arg = match &call.arg {
                            None => None,
                            Some(a) => Some(eval(a, row, ctx)?),
                        };
                        st.update(arg)?;
                    }
                }
                cost.add_tuples(rows.len() as u64);
                groups.finish()
            }
        };
        self.run_grouped(groups, ctx, cost)
    }

    /// [`FinishStage::run`] past the aggregate stage, over rows already
    /// grouped (the fused vectorized scan aggregates as it scans).
    fn run_grouped(
        &self,
        groups: Vec<Row>,
        ctx: &EvalCtx,
        cost: &mut SimCost,
    ) -> PgResult<(Vec<String>, Vec<Row>)> {
        // HAVING
        let mut result_rows = Vec::new();
        for row in groups {
            if passes(&self.having, &row, ctx)? {
                // projection (incl. hidden order-by columns)
                let projected: Row =
                    self.projection.iter().map(|p| eval(p, &row, ctx)).collect::<PgResult<_>>()?;
                result_rows.push(projected);
            }
        }
        cost.add_tuples(result_rows.len() as u64);

        // DISTINCT
        if self.distinct {
            let mut seen = KeyTable::new(self.visible);
            result_rows.retain(|r| seen.insert(&r[..self.visible]).1);
        }

        // ORDER BY
        if !self.order_by.is_empty() {
            result_rows.sort_by(|a, b| {
                for (idx, desc) in &self.order_by {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            cost.add_cpu(
                CPU_TUPLE_MS * result_rows.len() as f64
                    * (result_rows.len().max(2) as f64).log2(),
            );
        }

        // OFFSET / LIMIT
        if let Some(off) = &self.offset {
            let off = row_count(off, ctx)?.min(result_rows.len());
            result_rows.drain(..off);
        }
        if let Some(lim) = &self.limit {
            result_rows.truncate(row_count(lim, ctx)?);
        }

        // hide order-by helper columns
        for r in &mut result_rows {
            r.truncate(self.visible);
        }
        Ok((self.names[..self.visible].to_vec(), result_rows))
    }
}

/// The row count a LIMIT or OFFSET operand, bound over no columns, stands
/// for: a negative count is zero.
pub fn row_count(e: &BExpr, ctx: &EvalCtx) -> PgResult<usize> {
    Ok(eval(e, &Vec::new(), ctx)?.as_i64()?.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::types::Datum;

    #[test]
    fn an_empty_outer_input_skips_the_inner_one() {
        let e = Engine::new_default();
        let mut s = e.session().unwrap();
        s.execute("CREATE TABLE a (k bigint, v bigint)").unwrap();
        s.execute("CREATE TABLE b (k bigint, w bigint)").unwrap();
        s.execute("INSERT INTO a VALUES (1, 1)").unwrap();
        for k in 0..500 {
            s.execute(&format!("INSERT INTO b VALUES ({k}, {k})")).unwrap();
        }
        s.execute("SELECT * FROM a WHERE a.v = 9").unwrap();
        let outer_only = s.last_cost().pages_read;
        for join in ["JOIN b ON a.k = b.k", "LEFT JOIN b ON a.k = b.k", "CROSS JOIN b"] {
            let q = format!("SELECT * FROM a {join} WHERE a.v = 9");
            assert!(s.execute(&q).unwrap().rows().is_empty(), "{q}");
            assert_eq!(s.last_cost().pages_read, outer_only, "{q} charged the inner table");
        }
        // a RIGHT join's result holds the inner rows: it still reads them
        let q = "SELECT b.k, a.v FROM a RIGHT JOIN b ON a.k = b.k AND a.v = 9 WHERE b.k < 2";
        let rows = s.execute(q).unwrap().into_rows();
        assert_eq!(rows, vec![vec![Datum::Int(0), Datum::Null], vec![Datum::Int(1), Datum::Null]]);
        assert!(s.last_cost().pages_read > outer_only);
    }
}
