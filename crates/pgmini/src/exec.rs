//! Plan execution (SELECT side).
//!
//! A push-based pipeline, one per statement, as PostgreSQL's executor passes
//! each tuple up its plan: a scan lends each visible row to a sink, a filter
//! passes it on, a join probes its inner side with it, and the SELECT's
//! aggregate folds it straight into its groups. A join builds its inner side
//! when the first outer row arrives, so an empty outer side skips it. Only
//! build sides and the rows that leave the pipeline are copied. It runs on
//! one thread — PostgreSQL is effectively single-threaded per query (§2.2 of
//! the paper), and all parallelism comes from the distributed layer running
//! many per-shard queries concurrently.
//!
//! Virtual time does not depend on the pipeline's order: each node records
//! its charges while rows flow ([`Charges`]) and they are booked when the
//! pipeline ends, outer subtree, inner subtree, then the node's own, as a
//! materialising executor that ran each node to completion would book them.
//! A store lock stays held while its rows are lent (the heap's in a scan and
//! an index fetch, the columnar stripes'), and a self-join takes it again
//! inside its own probe scan, so those locks are taken recursively.

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
use crate::plan::{AggCall, AggKind, AggStage, FinishStage, IndexProbe, PlanNode, SelectPlan};
use crate::storage::{ColumnarStore, TableStore};
use crate::txn::{Snapshot, Xid, INVALID_XID};
use crate::types::{Datum, DatumRef, KeyTable, Row};
use sqlparse::ast::JoinKind;
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

/// One plan node's virtual-time charges, recorded while its pipeline runs and
/// booked into the statement's cost after it ends. `cpu_ms` and `io_ms` are
/// float sums, so [`Charges::book`] replays each charge as the step it was:
/// every field below is one `SimCost` call, or one per unit where the node
/// charged one unit at a time. A field the node did not use books zero, and
/// adding zero leaves every sum as it was.
#[derive(Default)]
struct Charges {
    /// An index descent's CPU.
    cpu_ms: f64,
    /// Pages touched when the node opened, and how many missed.
    pages: u64,
    misses: u64,
    /// An index scan's one-page heap fetches, and how many missed (a
    /// one-page read misses at most once).
    fetches: u64,
    fetch_misses: u64,
    /// Rows an index scan fetched, one tuple each.
    fetched: u64,
    /// A vectorized scan's batches, kernel invocations and value lanes (one
    /// lane per scanned row).
    batches: u64,
    kernels: u64,
    lanes: u64,
    /// Tuples charged in one step each: a scan's, a filter's or a nested
    /// loop's in the first; a hash join's build, then its probe.
    tuples: [u64; 2],
}

impl Charges {
    fn book(&self, cost: &mut SimCost) {
        cost.add_cpu(self.cpu_ms);
        cost.add_pages(self.pages, self.misses);
        for _ in 0..self.fetch_misses {
            cost.add_pages(1, 1);
        }
        cost.add_pages(self.fetches - self.fetch_misses, 0);
        for _ in 0..self.fetched {
            cost.add_tuples(1);
        }
        cost.batches += self.batches;
        cost.add_kernels(self.kernels, self.lanes);
        cost.rows_processed += self.lanes;
        for n in self.tuples {
            cost.add_tuples(n);
        }
    }
}

/// A pipeline subtree's charges: its children's in plan order, then the
/// node's own (outer subtree, inner subtree, build, probe), as if each node
/// had run to completion before its parent, whatever order the pipeline ran
/// them in. The goldens hold the virtual clock to that order.
#[derive(Default)]
struct Booking {
    own: Charges,
    children: Vec<Booking>,
}

impl Booking {
    fn book(&self, cost: &mut SimCost) {
        for child in &self.children {
            child.book(cost);
        }
        self.own.book(cost);
    }
}

/// The one columnar read loop, behind both the row source and the fused
/// aggregate. It touches the referenced columns (`cols`, or every column),
/// slices each visible stripe into `BATCH_CAPACITY` batches and selects each
/// batch's rows: by the filter's kernels when `vectorized` is on and the
/// filter has them, otherwise by `passes` over the batch's rows one at a time.
/// `consume` gets each batch with its selection. A kernel scan records one
/// scan kernel, the filter's kernels and `consumer_kernels` per batch plus
/// one value lane per scanned row; a row-by-row scan one tuple per scanned
/// row.
#[allow(clippy::too_many_arguments)]
fn scan_columnar(
    ctx: &ExecCtx,
    meta: &crate::catalog::TableMeta,
    col: &ColumnarStore,
    filter: &Option<BExpr>,
    cols: Option<&[usize]>,
    consumer_kernels: u64,
    charges: &mut Charges,
    mut consume: impl FnMut(&ColumnBatch<'_>, &[usize], &EvalCtx) -> PgResult<()>,
) -> PgResult<()> {
    let all_cols: Vec<usize> = (0..meta.columns.len()).collect();
    let refs: &[usize] = cols.unwrap_or(&all_cols);
    (charges.pages, charges.misses) =
        columnar_scan_io(&ctx.engine.buffer, meta, col.live_estimate(), refs);
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
                    batch.gather(r, &mut row);
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
    col.for_each_visible_stripe(&ctx.engine.txns, &ctx.snap, |_seq, stripe| {
        let (nrows, mut lo) = (stripe.rows(), 0);
        while lo < nrows && err.is_none() {
            let len = (nrows - lo).min(BATCH_CAPACITY);
            let batch = ColumnBatch::from_stripe(stripe, lo, len, refs);
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
        charges.batches = batches;
        charges.kernels = kernels_per_batch * batches;
        charges.lanes = scanned;
    } else {
        charges.tuples[0] = scanned;
    }
    Ok(())
}

/// The one scan source: lend each row of `table` visible to the statement's
/// snapshot that passes `filter` to `sink`, with its row id (0 for a columnar
/// row), and record the scan's charges. A heap scan lends the stored version;
/// a columnar scan lends one reused row, gathered from each batch's
/// selection, with NULL in the columns outside `cols` (the planner's
/// referenced-column set; `None` reads every column). A scan touches the
/// buffer pool when it opens, and an index scan makes every heap fetch's
/// point read before the first row leaves it, so the pool sees the touches in
/// plan order however the rows are consumed.
fn scan(
    ctx: &ExecCtx,
    table: TableId,
    index: Option<(crate::catalog::IndexId, &IndexProbe)>,
    filter: &Option<BExpr>,
    cols: Option<&[usize]>,
    charges: &mut Charges,
    mut sink: impl FnMut(u64, &Row) -> PgResult<()>,
) -> PgResult<()> {
    let meta = ctx.engine.table_meta_by_id(table)?;
    let store = ctx.engine.store(table)?;
    let Some((iid, probe)) = index else {
        return match &*store {
            TableStore::Heap(heap) => {
                let pages = ctx.engine.table_pages(&meta);
                charges.pages = pages;
                charges.misses = ctx.engine.buffer.scan(BufferKey::Table(table.0), pages);
                let mut scanned = 0u64;
                let mut err = None;
                heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
                    if err.is_some() {
                        return;
                    }
                    scanned += 1;
                    err = passes(filter, &t.data, &ctx.eval_ctx)
                        .and_then(|ok| if ok { sink(t.row_id, &t.data) } else { Ok(()) })
                        .err();
                });
                charges.tuples[0] = scanned;
                err.map_or(Ok(()), Err)
            }
            TableStore::Columnar(col) => {
                let mut row = Row::new();
                scan_columnar(ctx, &meta, col, filter, cols, 0, charges, |batch, sel, _| {
                    for &r in sel {
                        batch.gather(r, &mut row);
                        sink(0, &row)?;
                    }
                    Ok(())
                })
            }
        };
    };
    let istore = ctx.engine.index_store(iid)?;
    let heap = store.heap()?;
    let no_row = Row::new();
    let mut row_ids: Vec<u64> = match (&*istore, probe) {
        (IndexStore::BTree(b), IndexProbe::EqPrefix(vals)) => {
            let key: Vec<Datum> =
                vals.iter().map(|v| eval(v, &no_row, &ctx.eval_ctx)).collect::<PgResult<_>>()?;
            let imeta = ctx.engine.index_meta(iid)?;
            charges.cpu_ms = INDEX_DESCEND_MS;
            // page touches of a B-tree descent: modelled at the *full-size*
            // index depth (a few levels) rather than the scaled-down one, so
            // sharded and unsharded layouts pay comparable per-probe I/O
            let touched = 3;
            let ipages = (b.len() / 200).max(1);
            charges.pages = touched;
            charges.misses = ctx.engine.buffer.point_read(BufferKey::Index(iid.0), ipages, touched);
            if key.len() == imeta.exprs.len() {
                b.get_eq(&key)
            } else {
                b.get_prefix(&key)
            }
        }
        (IndexStore::BTree(b), IndexProbe::Range { low, high }) => {
            let bound = |b: &Option<(BExpr, bool)>| {
                b.as_ref().map(|(e, i)| Ok::<_, PgError>((eval(e, &no_row, &ctx.eval_ctx)?, *i)))
            };
            let (lo, hi) = (bound(low).transpose()?, bound(high).transpose()?);
            charges.cpu_ms = INDEX_DESCEND_MS;
            b.range_first_col(lo.as_ref().map(|(d, i)| (d, *i)), hi.as_ref().map(|(d, i)| (d, *i)))
        }
        (IndexStore::Gin(g), IndexProbe::LikePattern { pattern, .. }) => {
            let p = eval(pattern, &no_row, &ctx.eval_ctx)?;
            charges.cpu_ms = INDEX_DESCEND_MS * 3.0;
            match g.candidates_for_like(&p.to_text()) {
                Some(ids) => ids,
                // pattern too short: seq scan fallback
                None => return scan(ctx, table, None, filter, cols, charges, sink),
            }
        }
        _ => return Err(PgError::internal("index probe/store mismatch")),
    };
    // every MVCC version has its own index entry; a logical row must be
    // fetched once
    row_ids.sort_unstable();
    row_ids.dedup();
    let table_pages = ctx.engine.table_pages(&meta).max(1);
    for _ in &row_ids {
        charges.fetches += 1;
        charges.fetch_misses +=
            ctx.engine.buffer.point_read(BufferKey::Table(table.0), table_pages, 1);
    }
    // fetch + recheck each candidate
    for row_id in row_ids {
        let lent = heap.with_visible_version(&ctx.engine.txns, &ctx.snap, row_id, |row| {
            if passes(filter, row, &ctx.eval_ctx)? {
                sink(row_id, row)?;
            }
            PgResult::Ok(())
        });
        if let Some(lent) = lent {
            charges.fetched += 1;
            lent?;
        }
    }
    Ok(())
}

/// Ids of the rows of `table` that pass `filter` under the statement's
/// snapshot: the targets of UPDATE, DELETE and FOR UPDATE, which re-read each
/// row once it is locked, so none is copied here.
pub fn scan_table(
    ctx: &mut ExecCtx,
    table: TableId,
    index: Option<(crate::catalog::IndexId, &IndexProbe)>,
    filter: &Option<BExpr>,
) -> PgResult<Vec<u64>> {
    let mut charges = Charges::default();
    let mut ids = Vec::new();
    scan(ctx, table, index, filter, None, &mut charges, |row_id, _| {
        ids.push(row_id);
        Ok(())
    })?;
    charges.book(&mut ctx.cost);
    Ok(ids)
}

/// Where a pipeline sends its rows. A row is lent for the call only: a sink
/// that keeps it copies it.
type Sink<'s> = dyn FnMut(&Row) -> PgResult<()> + 's;

/// Run `node` as a push pipeline, lending each of its rows to `sink`, and
/// return the subtree's charges for the caller to book once the pipeline has
/// ended.
fn produce(ctx: &ExecCtx, node: &PlanNode, sink: &mut Sink) -> PgResult<Booking> {
    let mut own = Charges::default();
    let children = match node {
        PlanNode::SeqScan { table, filter, cols } => {
            scan(ctx, *table, None, filter, cols.as_deref(), &mut own, |_, row| sink(row))?;
            Vec::new()
        }
        PlanNode::IndexScan { table, index, probe, filter } => {
            scan(ctx, *table, Some((*index, probe)), filter, None, &mut own, |_, row| sink(row))?;
            Vec::new()
        }
        PlanNode::Materialized { rows, .. } => {
            own.tuples[0] = rows.len() as u64;
            for row in rows {
                sink(row)?;
            }
            Vec::new()
        }
        PlanNode::Filter { input, pred } => {
            let mut passed = 0u64;
            let child = produce(ctx, input, &mut |row| {
                if matches!(eval(pred, row, &ctx.eval_ctx)?, Datum::Bool(true)) {
                    passed += 1;
                    sink(row)?;
                }
                Ok(())
            })?;
            own.tuples[0] = passed;
            vec![child]
        }
        PlanNode::Join { left, right, kind, hash_keys, on, left_arity, right_arity } => {
            if hash_keys.is_none() && matches!(kind, JoinKind::Right | JoinKind::Full) {
                return Err(PgError::unsupported("RIGHT/FULL join without an equality condition"));
            }
            let mut join = Join {
                right,
                kind: *kind,
                hash_keys,
                on,
                right_nulls: vec![Datum::Null; *right_arity],
                inner: None,
                key: Vec::new(),
                pair: Vec::new(),
                probed: 0,
                emitted: 0,
            };
            let outer = produce(ctx, left, &mut |l| join.probe(ctx, l, sink))?;
            join.finish(ctx, *left_arity, sink)?;
            let (inner, built) = match join.inner {
                Some(inner) => (inner.booking, inner.rows.len() as u64),
                None => (Booking::default(), 0),
            };
            own.tuples = match hash_keys {
                Some(_) => [built, join.probed + join.emitted],
                None => [join.probed * built.max(1), 0],
            };
            vec![outer, inner]
        }
    };
    Ok(Booking { own, children })
}

/// Marks the end of a hash join's per-key chain of build rows.
const NO_ROW: usize = usize::MAX;

/// A join's inner side, built when the first outer row arrives (or at the
/// end, for a RIGHT or FULL join whose outer side was empty): its rows, and
/// for a hash join one slot per distinct key with that key's rows chained in
/// build order (`first[slot]`, then `next[row]`).
struct Inner {
    rows: Vec<Row>,
    keys: KeyTable,
    first: Vec<usize>,
    next: Vec<usize>,
    /// Inner rows some outer row joined, kept for RIGHT and FULL joins.
    matched: Vec<bool>,
    booking: Booking,
}

impl Inner {
    fn build(
        ctx: &ExecCtx,
        node: &PlanNode,
        hash_keys: &Option<(Vec<BExpr>, Vec<BExpr>)>,
        key: &mut Row,
    ) -> PgResult<Inner> {
        let mut rows = Vec::new();
        let booking = produce(ctx, node, &mut |r| {
            rows.push(r.clone());
            Ok(())
        })?;
        let width = hash_keys.as_ref().map_or(0, |(_, rkeys)| rkeys.len());
        let mut inner = Inner {
            keys: KeyTable::new(width),
            first: Vec::new(),
            next: Vec::new(),
            matched: vec![false; rows.len()],
            rows,
            booking,
        };
        let Some((_, rkeys)) = hash_keys else { return Ok(inner) };
        let mut last: Vec<usize> = Vec::new();
        inner.next = vec![NO_ROW; inner.rows.len()];
        for (i, r) in inner.rows.iter().enumerate() {
            eval_into(rkeys, r, &ctx.eval_ctx, key)?;
            if key.iter().any(Datum::is_null) {
                continue; // NULL keys never join
            }
            match inner.keys.insert(key) {
                (_, true) => {
                    inner.first.push(i);
                    last.push(i);
                }
                (slot, false) => {
                    inner.next[last[slot]] = i;
                    last[slot] = i;
                }
            }
        }
        Ok(inner)
    }
}

/// A hash or nested-loop join in a pipeline: each outer row probes the inner
/// side where it stands, and a pair is built in one reused row, so a probe
/// that matches nothing copies nothing and a pair leaves the join only as a
/// lent row.
struct Join<'p> {
    right: &'p PlanNode,
    kind: JoinKind,
    hash_keys: &'p Option<(Vec<BExpr>, Vec<BExpr>)>,
    on: &'p Option<BExpr>,
    right_nulls: Row,
    inner: Option<Inner>,
    key: Row,
    pair: Row,
    probed: u64,
    emitted: u64,
}

impl Join<'_> {
    fn inner(&mut self, ctx: &ExecCtx) -> PgResult<&mut Inner> {
        if self.inner.is_none() {
            self.inner = Some(Inner::build(ctx, self.right, self.hash_keys, &mut self.key)?);
        }
        Ok(self.inner.as_mut().expect("built above"))
    }

    fn probe(&mut self, ctx: &ExecCtx, l: &Row, sink: &mut Sink) -> PgResult<()> {
        self.probed += 1;
        self.inner(ctx)?;
        let Join { hash_keys, on, kind, right_nulls, inner: Some(inner), key, pair, emitted, .. } =
            self
        else {
            unreachable!("built above")
        };
        let mut candidates = match hash_keys {
            Some((lkeys, _)) => {
                eval_into(lkeys, l, &ctx.eval_ctx, key)?;
                let slot = if key.iter().any(Datum::is_null) { None } else { inner.keys.find(key) };
                slot.map_or(NO_ROW, |s| inner.first[s])
            }
            None => 0,
        };
        // NO_ROW ends a chain, the row count a nested loop
        let mut matched = false;
        if candidates < inner.rows.len() {
            pair.clear();
            pair.extend_from_slice(l);
        }
        while candidates < inner.rows.len() {
            let ri = candidates;
            candidates = match hash_keys {
                Some(_) => inner.next[ri],
                None => ri + 1,
            };
            pair.truncate(l.len());
            pair.extend_from_slice(&inner.rows[ri]);
            if let Some(pred) = on {
                if !matches!(eval(pred, pair, &ctx.eval_ctx)?, Datum::Bool(true)) {
                    continue;
                }
            }
            inner.matched[ri] = true;
            matched = true;
            *emitted += 1;
            sink(pair)?;
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            pair.clear();
            pair.extend_from_slice(l);
            pair.extend_from_slice(right_nulls);
            *emitted += 1;
            sink(pair)?;
        }
        Ok(())
    }

    /// After the last outer row: a RIGHT or FULL join emits the inner rows
    /// no outer row joined, padded with NULLs on the left.
    fn finish(&mut self, ctx: &ExecCtx, left_arity: usize, sink: &mut Sink) -> PgResult<()> {
        if !matches!(self.kind, JoinKind::Right | JoinKind::Full) {
            return Ok(());
        }
        self.inner(ctx)?;
        let Join { inner: Some(inner), pair, emitted, .. } = self else { unreachable!("built above") };
        for (r, _) in inner.rows.iter().zip(&inner.matched).filter(|(_, m)| !**m) {
            pair.clear();
            pair.resize(left_arity, Datum::Null);
            pair.extend_from_slice(r);
            *emitted += 1;
            sink(pair)?;
        }
        Ok(())
    }
}

/// Evaluate `exprs` over `row` into `out`, reusing its allocation.
fn eval_into(exprs: &[BExpr], row: &Row, ctx: &EvalCtx, out: &mut Row) -> PgResult<()> {
    out.clear();
    for e in exprs {
        out.push(eval(e, row, ctx)?);
    }
    Ok(())
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

    /// Fold one value in: `None` for `count(*)`, which counts the row.
    fn update(&mut self, value: Option<DatumRef>) -> PgResult<()> {
        if self.kind == AggKind::CountStar {
            self.count += 1;
            return Ok(());
        }
        let Some(v) = value.filter(|v| !v.is_null()) else { return Ok(()) };
        if let Some(set) = &mut self.distinct {
            if !set.insert(&[v.to_datum()]).1 {
                return Ok(());
            }
        }
        match self.kind {
            AggKind::Count => self.count += 1,
            AggKind::Sum | AggKind::Avg => {
                self.count += 1;
                match v {
                    DatumRef::Int(x) => {
                        self.sum_i = self.sum_i.wrapping_add(x);
                        self.sum_f += x as f64;
                    }
                    _ => {
                        self.float_mode = true;
                        self.sum_f += v.to_datum().as_f64()?;
                    }
                }
            }
            AggKind::Min | AggKind::Max => {
                let wanted = match self.kind {
                    AggKind::Min => std::cmp::Ordering::Less,
                    _ => std::cmp::Ordering::Greater,
                };
                let take =
                    self.minmax.as_ref().is_none_or(|cur| v.sql_cmp(cur.view()) == Some(wanted));
                if take {
                    self.minmax = Some(v.to_datum());
                }
            }
            AggKind::CountStar => unreachable!("counted above"),
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
    stage: &'s AggStage,
    keys: KeyTable,
    states: Vec<AggState>,
    /// The key of the row being folded, in a reused row.
    key: Row,
    /// Rows folded in by [`Groups::add`].
    rows: u64,
}

impl<'s> Groups<'s> {
    fn new(stage: &'s AggStage) -> Groups<'s> {
        let (keys, key) = (KeyTable::new(stage.group.len()), Vec::with_capacity(stage.group.len()));
        Groups { stage, keys, states: Vec::new(), key, rows: 0 }
    }

    /// The states of the group whose key is in `self.key`, created the
    /// first time it is seen.
    fn key_states(&mut self) -> &mut [AggState] {
        let (slot, new) = self.keys.insert(&self.key);
        if new {
            self.states.extend(self.stage.calls.iter().map(AggState::new));
        }
        let n = self.stage.calls.len();
        &mut self.states[slot * n..(slot + 1) * n]
    }

    /// Fold one input row into its group: the grouping step of
    /// [`FinishStage::run`] and the pipeline's aggregate sink alike.
    fn add(&mut self, row: &Row, ctx: &EvalCtx) -> PgResult<()> {
        eval_into(&self.stage.group, row, ctx, &mut self.key)?;
        let stage = self.stage;
        for (st, call) in self.key_states().iter_mut().zip(&stage.calls) {
            let value = call.arg.as_ref().map(|a| eval(a, row, ctx)).transpose()?;
            st.update(value.as_ref().map(Datum::view))?;
        }
        self.rows += 1;
        Ok(())
    }

    /// One row per group in key order: the key, then each aggregate. A
    /// global aggregate (no GROUP BY) over no rows still yields one row.
    /// Charges a tuple per row [`Groups::add`] folded in.
    fn finish(mut self, cost: &mut SimCost) -> Vec<Row> {
        cost.add_tuples(self.rows);
        if self.keys.is_empty() && self.keys.key_width() == 0 {
            self.key.clear();
            self.key_states();
        }
        let n = self.stage.calls.len();
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
/// Group keys and aggregate inputs are evaluated as kernels over the typed
/// columns of each batch — rows are never materialized — and the aggregates
/// fold their lanes over the selection row by row, as the pipeline does (a
/// global aggregate into its one group, looked up once per batch). Returns
/// `None` when vectorization is off or the plan shape or an expression
/// doesn't qualify (the pipeline runs).
fn try_vectorized_agg<'s>(
    ctx: &mut ExecCtx,
    stage: &'s AggStage,
    input: &PlanNode,
) -> PgResult<Option<Groups<'s>>> {
    let PlanNode::SeqScan { table, filter, cols } = input else { return Ok(None) };
    let store = ctx.engine.store(*table)?;
    let TableStore::Columnar(col) = &*store else { return Ok(None) };
    if !ctx.engine.config.vectorized
        || !filter.as_ref().is_none_or(supports_batch)
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
    let mut charges = Charges::default();
    let cols = cols.as_deref();
    scan_columnar(ctx, &meta, col, filter, cols, agg_kernels, &mut charges, |batch, selected, ectx| {
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
        if gvecs.is_empty() {
            if !selected.is_empty() {
                groups.key.clear();
                let states = groups.key_states();
                for &i in selected {
                    for (st, av) in states.iter_mut().zip(&avecs) {
                        st.update(av.as_ref().map(|v| v.get(i)))?;
                    }
                }
            }
            return Ok(());
        }
        for &i in selected {
            groups.key.clear();
            groups.key.extend(gvecs.iter().map(|v| v.get(i).to_datum()));
            for (st, av) in groups.key_states().iter_mut().zip(&avecs) {
                st.update(av.as_ref().map(|v| v.get(i)))?;
            }
        }
        Ok(())
    })?;
    charges.book(&mut ctx.cost);
    Ok(Some(groups))
}

/// Execute a planned SELECT end to end, returning (column names, rows). The
/// FROM/WHERE input runs as one pipeline whose rows an aggregate folds
/// straight into its groups; without one they are collected for the rest of
/// the finish stage.
pub fn run_select_plan(ctx: &mut ExecCtx, plan: &SelectPlan) -> PgResult<(Vec<String>, Vec<Row>)> {
    let finish = &plan.finish;
    if let Some(table) = plan.for_update {
        let rows = lock_for_update(ctx, table, &plan.input)?;
        return finish.run(rows, &ctx.eval_ctx, &mut ctx.cost);
    }
    let Some(stage) = &finish.agg else {
        let mut rows = Vec::new();
        let booking = produce(ctx, &plan.input, &mut |row| {
            rows.push(row.clone());
            Ok(())
        })?;
        booking.book(&mut ctx.cost);
        return finish.run_grouped(rows, &ctx.eval_ctx, &mut ctx.cost);
    };
    // Tier B fused vectorized aggregation, when the shape allows it
    let groups = match try_vectorized_agg(ctx, stage, &plan.input)? {
        Some(groups) => groups,
        None => {
            let mut groups = Groups::new(stage);
            let booking = produce(ctx, &plan.input, &mut |row| groups.add(row, &ctx.eval_ctx))?;
            booking.book(&mut ctx.cost);
            groups
        }
    };
    let rows = groups.finish(&mut ctx.cost);
    finish.run_grouped(rows, &ctx.eval_ctx, &mut ctx.cost)
}

/// FOR UPDATE's input: lock each row of `table`'s scan, then keep it if its
/// newest version still passes the filter.
fn lock_for_update(ctx: &mut ExecCtx, table: TableId, input: &PlanNode) -> PgResult<Vec<Row>> {
    if ctx.xid == INVALID_XID {
        return Err(PgError::internal("FOR UPDATE requires a transaction"));
    }
    let (index, filter) = match input {
        PlanNode::SeqScan { filter, .. } => (None, filter),
        PlanNode::IndexScan { index, probe, filter, .. } => (Some((*index, probe)), filter),
        _ => return Err(PgError::unsupported("FOR UPDATE on joins")),
    };
    let targets = scan_table(ctx, table, index, filter)?;
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
    Ok(rows)
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
                for row in &rows {
                    groups.add(row, ctx)?;
                }
                groups.finish(cost)
            }
        };
        self.run_grouped(groups, ctx, cost)
    }

    /// [`FinishStage::run`] past the aggregate stage, over rows already
    /// grouped (the pipeline aggregates as it scans).
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

    /// Tables `a` (one row, key 1), `b` (500 rows, keys 0..500), `c` (500
    /// rows) and an empty `e`, all `(k bigint, v bigint)`.
    fn join_tables() -> crate::session::Session {
        let e = Engine::new_default();
        let mut s = e.session().unwrap();
        for t in ["a", "b", "c", "e"] {
            s.execute(&format!("CREATE TABLE {t} (k bigint, v bigint)")).unwrap();
        }
        s.execute("INSERT INTO a VALUES (1, 1)").unwrap();
        for k in 0..500 {
            s.execute(&format!("INSERT INTO b VALUES ({k}, {k})")).unwrap();
            s.execute(&format!("INSERT INTO c VALUES ({k}, {k})")).unwrap();
        }
        s
    }

    fn pages(s: &mut crate::session::Session, sql: &str) -> u64 {
        s.execute(sql).unwrap();
        s.last_cost().pages_read
    }

    #[test]
    fn a_three_table_join_stops_at_its_first_empty_join() {
        let mut s = join_tables();
        let a_none = pages(&mut s, "SELECT * FROM a WHERE a.v = 9");
        let b = pages(&mut s, "SELECT * FROM b");
        let three = "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k";
        // an empty first scan: neither b nor c is read
        let q = format!("{three} WHERE a.v = 9");
        assert!(s.execute(&q).unwrap().rows().is_empty());
        assert_eq!(s.last_cost().pages_read, a_none, "{q}");
        // a first join with no pair reads b, never c
        let q = format!("{three} AND b.v > 1");
        assert!(s.execute(&q).unwrap().rows().is_empty());
        assert_eq!(s.last_cost().pages_read, a_none + b, "{q}");
    }

    #[test]
    fn right_and_full_joins_with_an_empty_outer_return_every_inner_row() {
        let mut s = join_tables();
        let all_b: Vec<Vec<Datum>> =
            (0..500).map(|k| vec![Datum::Null, Datum::Int(k)]).collect();
        for kind in ["RIGHT", "FULL"] {
            let q = format!("SELECT e.v, b.k FROM e {kind} JOIN b ON e.k = b.k");
            assert_eq!(s.query(&q).unwrap(), all_b, "{q}");
        }
    }

    #[test]
    fn a_nested_loop_left_join_with_an_empty_inner_pads_with_nulls() {
        let mut s = join_tables();
        let q = "SELECT a.k, e.v FROM a LEFT JOIN e ON a.k < e.k";
        let plan = s.query(&format!("EXPLAIN {q}")).unwrap();
        assert!(plan.iter().any(|r| r[0].to_text().contains("Nested Loop")), "{plan:?}");
        assert_eq!(s.query(q).unwrap(), vec![vec![Datum::Int(1), Datum::Null]]);
    }

    #[test]
    fn a_self_join_builds_inside_its_own_probe_scan() {
        let e = Engine::new_default();
        let mut s = e.session().unwrap();
        for (t, using) in [("h", ""), ("col", " USING columnar")] {
            s.execute(&format!("CREATE TABLE {t} (k bigint, v bigint){using}")).unwrap();
            s.execute(&format!("INSERT INTO {t} VALUES (1, 10), (1, 11), (2, 20), (3, 30)"))
                .unwrap();
            let q = format!("SELECT a.v, b.v FROM {t} a JOIN {t} b ON a.k = b.k ORDER BY a.v, b.v");
            let want: Vec<Vec<Datum>> = [(10, 10), (10, 11), (11, 10), (11, 11), (20, 20), (30, 30)]
                .into_iter()
                .map(|(x, y)| vec![Datum::Int(x), Datum::Int(y)])
                .collect();
            assert_eq!(s.query(&q).unwrap(), want, "{q}");
        }
    }
}
