//! Plan execution (SELECT side).
//!
//! A push-based pipeline, one per statement, as PostgreSQL's executor passes
//! each tuple up its plan: a scan lends each visible row to a sink, a filter
//! passes it on, a join probes its inner side with it, and the SELECT's
//! aggregate folds it straight into its groups. Right above a columnar scan
//! whose filter has batch kernels, two sinks take a whole batch at a time:
//! the aggregate, when its keys and arguments have kernels too, and a hash
//! join's probe, when its outer keys are plain columns (it reads each key
//! from the typed column and gathers only the rows that join or are padded).
//! A join builds its inner side when the first outer row arrives, so an
//! empty outer side skips it. Only build sides, the pairs a join emits and
//! the rows that leave the pipeline are copied, and a join copies only the
//! columns the statement reads. It runs on one thread — PostgreSQL is
//! effectively single-threaded per query (§2.2 of the paper), and all
//! parallelism comes from the distributed layer running many per-shard
//! queries concurrently.
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
    fn run_subquery(&mut self, sub: &sqlparse::ast::Select) -> PgResult<(Vec<String>, Vec<Row>)> {
        execute_select(self.ctx, sub)
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

/// The one columnar read loop. It touches the referenced columns (`cols`,
/// or every column), slices each visible stripe into `BATCH_CAPACITY`
/// batches and selects each batch's rows: by the filter's kernels when the
/// filter has them, otherwise by `passes` over the batch's rows one at a
/// time. A sink with a batch side ([`Sink::batches`]) gets each batch with
/// its selection when the filter ran as kernels; any other sink gets the
/// selected rows, gathered one at a time into a reused row. A kernel scan
/// records one scan kernel, the filter's kernels and the batch side's per
/// batch plus one value lane per scanned row; a row-by-row scan one tuple
/// per scanned row.
fn scan_columnar(
    ctx: &ExecCtx,
    meta: &crate::catalog::TableMeta,
    col: &ColumnarStore,
    filter: &Option<BExpr>,
    cols: Option<&[usize]>,
    charges: &mut Charges,
    sink: &mut dyn Sink,
) -> PgResult<()> {
    let all_cols: Vec<usize> = (0..meta.columns.len()).collect();
    let refs: &[usize] = cols.unwrap_or(&all_cols);
    (charges.pages, charges.misses) =
        columnar_scan_io(&ctx.engine.buffer, meta, col.live_estimate(), refs);
    let by_kernel = ctx.engine.config.vectorized && filter.as_ref().is_none_or(supports_batch);
    let side_kernels = if by_kernel { sink.batches().map(|b| b.kernels()) } else { None };
    let ectx = &ctx.eval_ctx;
    let mut row: Row = Vec::new();
    let mut consume = |batch: &ColumnBatch<'_>| -> PgResult<()> {
        let all: Vec<usize> = (0..batch.len).collect();
        let sel = match filter {
            Some(f) if by_kernel => filter_batch(f, batch, &all, ectx)?,
            Some(_) => {
                let mut sel = Vec::new();
                for r in all {
                    batch.gather(r, &mut row);
                    if passes(filter, &row, ectx)? {
                        sel.push(r);
                    }
                }
                sel
            }
            None => all,
        };
        if let Some(b) = sink.batches().filter(|_| side_kernels.is_some()) {
            return b.batch(batch, &sel);
        }
        for r in sel {
            batch.gather(r, &mut row);
            sink.row(0, &row)?;
        }
        Ok(())
    };
    let (mut scanned, mut batches) = (0u64, 0u64);
    let mut err = None;
    col.for_each_visible_stripe(&ctx.engine.txns, &ctx.snap, |_seq, stripe| {
        let (nrows, mut lo) = (stripe.rows(), 0);
        while lo < nrows && err.is_none() {
            let len = (nrows - lo).min(BATCH_CAPACITY);
            let batch = ColumnBatch::from_stripe(stripe, lo, len, refs);
            err = consume(&batch).err();
            batches += 1;
            scanned += len as u64;
            lo += len;
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if by_kernel {
        let kernels_per_batch =
            1 + filter.as_ref().map_or(0, kernel_count) + side_kernels.unwrap_or(0);
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
/// referenced-column set; `None` reads every column), or gives a sink with a
/// batch side each batch whole ([`scan_columnar`]). A scan touches the
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
    sink: &mut dyn Sink,
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
                        .and_then(|ok| if ok { sink.row(t.row_id, &t.data) } else { Ok(()) })
                        .err();
                });
                charges.tuples[0] = scanned;
                err.map_or(Ok(()), Err)
            }
            TableStore::Columnar(col) => {
                scan_columnar(ctx, &meta, col, filter, cols, charges, sink)
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
                sink.row(row_id, row)?;
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
    scan(ctx, table, index, filter, None, &mut charges, &mut |id, _: &Row| {
        ids.push(id);
        Ok(())
    })?;
    charges.book(&mut ctx.cost);
    Ok(ids)
}

/// Where a pipeline sends its rows, each with its heap row id (0 for any
/// other row: a columnar row, a join's pair). A row is lent for the call
/// only: a sink that keeps it copies it. Two sinks also take a columnar
/// scan's batches whole: a SELECT's aggregate, and a hash join's probe whose
/// keys are plain columns.
trait Sink {
    fn row(&mut self, id: u64, row: &Row) -> PgResult<()>;

    /// This sink's batch side; `None` for a sink that takes rows only.
    fn batches(&mut self) -> Option<&mut dyn BatchSink> {
        None
    }
}

/// The batch side of a [`Sink`].
trait BatchSink {
    /// The kernels one [`BatchSink::batch`] call runs per batch.
    fn kernels(&self) -> u64;

    /// Take the `sel`ected rows of `batch`, as [`Sink::row`] would take them
    /// one at a time in `sel` order.
    fn batch(&mut self, batch: &ColumnBatch<'_>, sel: &[usize]) -> PgResult<()>;
}

impl<F: FnMut(u64, &Row) -> PgResult<()>> Sink for F {
    fn row(&mut self, id: u64, row: &Row) -> PgResult<()> {
        self(id, row)
    }
}

/// Run `node` as a push pipeline, lending each of its rows to `sink`, and
/// return the subtree's charges for the caller to book once the pipeline has
/// ended.
fn produce(ctx: &ExecCtx, node: &PlanNode, sink: &mut dyn Sink) -> PgResult<Booking> {
    let mut own = Charges::default();
    let children = match node {
        PlanNode::SeqScan { table, filter, cols } => {
            scan(ctx, *table, None, filter, cols.as_deref(), &mut own, sink)?;
            Vec::new()
        }
        PlanNode::IndexScan { table, index, probe, filter } => {
            scan(ctx, *table, Some((*index, probe)), filter, None, &mut own, sink)?;
            Vec::new()
        }
        PlanNode::Materialized { rows, .. } => {
            own.tuples[0] = rows.len() as u64;
            for row in rows {
                sink.row(0, row)?;
            }
            Vec::new()
        }
        PlanNode::Filter { input, pred } => {
            let mut passed = 0u64;
            let child = produce(ctx, input, &mut |id, row: &Row| {
                if matches!(eval(pred, row, &ctx.eval_ctx)?, Datum::Bool(true)) {
                    passed += 1;
                    sink.row(id, row)?;
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
            let (lkeys, rkeys) = match hash_keys {
                Some((l, r)) => (Some(&l[..]), Some(&r[..])),
                None => (None, None),
            };
            let mut join = Join {
                ctx,
                lkeys,
                key_cols: lkeys.and_then(|keys| {
                    keys.iter()
                        .map(|k| if let BExpr::Col(c) = k { Some(*c) } else { None })
                        .collect()
                }),
                left_cols: read_positions(left),
                inner: InnerSide {
                    node: right,
                    keys: rkeys,
                    cols: read_positions(right),
                    built: None,
                },
                out: Pairs {
                    kind: *kind,
                    on: on.as_ref(),
                    right_nulls: vec![Datum::Null; *right_arity],
                    pair: Vec::new(),
                    emitted: 0,
                    sink,
                },
                key: Vec::new(),
                probed: 0,
            };
            let outer = produce(ctx, left, &mut join)?;
            join.finish(*left_arity)?;
            let (inner, built) = match join.inner.built {
                Some(inner) => (inner.booking, inner.rows.len() as u64),
                None => (Booking::default(), 0),
            };
            own.tuples = match hash_keys {
                Some(_) => [built, join.probed + join.out.emitted],
                None => [join.probed * built.max(1), 0],
            };
            vec![outer, inner]
        }
    };
    Ok(Booking { own, children })
}

/// The positions of `node`'s rows that the statement reads, ascending: a
/// sequential scan's `cols`, shifted by its place in a join; `None` when every
/// position is read (an index scan, a `Materialized` input, a scan the
/// planner gave no `cols`).
fn read_positions(node: &PlanNode) -> Option<Vec<usize>> {
    match node {
        PlanNode::SeqScan { cols, .. } => cols.clone(),
        PlanNode::IndexScan { .. } | PlanNode::Materialized { .. } => None,
        PlanNode::Filter { input, .. } => read_positions(input),
        PlanNode::Join { left, right, left_arity, right_arity, .. } => {
            let (l, r) = (read_positions(left), read_positions(right));
            if l.is_none() && r.is_none() {
                return None;
            }
            let mut cols = l.unwrap_or_else(|| (0..*left_arity).collect());
            let r = r.unwrap_or_else(|| (0..*right_arity).collect());
            cols.extend(r.into_iter().map(|c| left_arity + c));
            Some(cols)
        }
    }
}

/// Append `row` to `out` with NULL in every position outside `cols` (`None`:
/// all of `row`), so a value the statement never reads is not copied.
fn extend_cols(out: &mut Row, row: &Row, cols: Option<&[usize]>) {
    let Some(cols) = cols else {
        out.extend_from_slice(row);
        return;
    };
    let base = out.len();
    out.resize(base + row.len(), Datum::Null);
    for (&c, d) in cols.iter().filter_map(|c| Some(c).zip(row.get(*c))) {
        out[base + c] = d.clone();
    }
}

/// Marks the end of a hash join's per-key chain of build rows.
const NO_ROW: usize = usize::MAX;

/// A join's inner side, built: its rows, and for a hash join one slot per
/// distinct key with that key's rows chained in build order (`first[slot]`,
/// then `next[row]`).
struct Inner {
    rows: Vec<Row>,
    keys: KeyTable,
    first: Vec<usize>,
    /// Empty for a nested loop, whose chain is every row in order.
    next: Vec<usize>,
    /// Inner rows some outer row joined, kept for RIGHT and FULL joins.
    matched: Vec<bool>,
    booking: Booking,
}

impl Inner {
    /// Run `node` and keep its rows, each with NULL outside `cols`, keyed by
    /// `keys` for a hash join.
    fn build(
        ctx: &ExecCtx,
        node: &PlanNode,
        keys: Option<&[BExpr]>,
        cols: Option<&[usize]>,
        key: &mut Row,
    ) -> PgResult<Inner> {
        let mut rows = Vec::new();
        let booking = produce(ctx, node, &mut |_, r: &Row| {
            let mut row = Vec::with_capacity(r.len());
            extend_cols(&mut row, r, cols);
            rows.push(row);
            Ok(())
        })?;
        let mut inner = Inner {
            keys: KeyTable::new(keys.map_or(0, <[BExpr]>::len)),
            first: Vec::new(),
            next: Vec::new(),
            matched: vec![false; rows.len()],
            rows,
            booking,
        };
        let Some(keys) = keys else { return Ok(inner) };
        let mut last: Vec<usize> = Vec::new();
        inner.next = vec![NO_ROW; inner.rows.len()];
        for (i, r) in inner.rows.iter().enumerate() {
            eval_into(keys, r, &ctx.eval_ctx, key)?;
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

    /// The first row chained to `key`; [`NO_ROW`] for none or a NULL key.
    fn first(&self, key: &[Datum]) -> usize {
        if key.iter().any(Datum::is_null) {
            return NO_ROW;
        }
        self.keys.find(key).map_or(NO_ROW, |s| self.first[s])
    }

    /// The row chained after row `ri`: [`NO_ROW`] or the row count ends it.
    fn after(&self, ri: usize) -> usize {
        if self.next.is_empty() {
            ri + 1
        } else {
            self.next[ri]
        }
    }
}

/// A join's inner side before and after it is built: it is built when the
/// first outer row arrives (or at the end, for a RIGHT or FULL join whose
/// outer side was empty), so an empty outer side skips it.
struct InnerSide<'a> {
    node: &'a PlanNode,
    /// The hash join's inner keys; `None` for a nested loop.
    keys: Option<&'a [BExpr]>,
    /// The positions of its rows the statement reads ([`read_positions`]).
    cols: Option<Vec<usize>>,
    built: Option<Inner>,
}

impl InnerSide<'_> {
    /// The inner side, built by the first call.
    fn get(&mut self, ctx: &ExecCtx, key: &mut Row) -> PgResult<&mut Inner> {
        match &mut self.built {
            Some(inner) => Ok(inner),
            built @ None => {
                let inner = Inner::build(ctx, self.node, self.keys, self.cols.as_deref(), key)?;
                Ok(built.insert(inner))
            }
        }
    }
}

/// A join's output: each pair is built in one reused row and lent to the
/// sink above, so a probe that matches nothing copies nothing.
struct Pairs<'a> {
    kind: JoinKind,
    on: Option<&'a BExpr>,
    right_nulls: Row,
    pair: Row,
    emitted: u64,
    sink: &'a mut dyn Sink,
}

impl Pairs<'_> {
    /// Join one outer row with the inner rows chained from `first` (0 starts
    /// a nested loop), and pad it with NULLs for a LEFT or FULL join when it
    /// joins none. `left` writes the outer row into the cleared pair; it runs
    /// only when a candidate or the padding needs the row.
    fn probe(
        &mut self,
        ctx: &ExecCtx,
        inner: &mut Inner,
        first: usize,
        left: impl Fn(&mut Row),
    ) -> PgResult<()> {
        // NO_ROW ends a chain, the row count a nested loop
        let mut candidates = first;
        let mut matched = false;
        if candidates < inner.rows.len() {
            self.pair.clear();
            left(&mut self.pair);
        }
        let width = self.pair.len();
        while candidates < inner.rows.len() {
            let ri = candidates;
            candidates = inner.after(ri);
            self.pair.truncate(width);
            self.pair.extend_from_slice(&inner.rows[ri]);
            if let Some(pred) = self.on {
                if !matches!(eval(pred, &self.pair, &ctx.eval_ctx)?, Datum::Bool(true)) {
                    continue;
                }
            }
            inner.matched[ri] = true;
            matched = true;
            self.emitted += 1;
            self.sink.row(0, &self.pair)?;
        }
        if !matched && matches!(self.kind, JoinKind::Left | JoinKind::Full) {
            self.pair.clear();
            left(&mut self.pair);
            self.pair.extend_from_slice(&self.right_nulls);
            self.emitted += 1;
            self.sink.row(0, &self.pair)?;
        }
        Ok(())
    }

    /// After the last outer row: a RIGHT or FULL join emits the inner rows
    /// no outer row joined, padded with NULLs on the left.
    fn unmatched(&mut self, inner: &Inner, left_arity: usize) -> PgResult<()> {
        for (r, _) in inner.rows.iter().zip(&inner.matched).filter(|(_, m)| !**m) {
            self.pair.clear();
            self.pair.resize(left_arity, Datum::Null);
            self.pair.extend_from_slice(r);
            self.emitted += 1;
            self.sink.row(0, &self.pair)?;
        }
        Ok(())
    }
}

/// A hash or nested-loop join in a pipeline, and the sink of its outer
/// side: each outer row probes the inner side where it stands. The outer row
/// and the inner rows are copied into a pair with NULL outside the positions
/// the statement reads. Over a columnar scan, a hash join whose outer keys
/// are plain columns probes a batch at a time: it reads each selected row's
/// key from the typed columns and gathers the row into the pair only for a
/// candidate or a LEFT/FULL padding.
struct Join<'a> {
    ctx: &'a ExecCtx<'a>,
    /// The hash join's outer keys; `None` for a nested loop.
    lkeys: Option<&'a [BExpr]>,
    /// The outer key columns, when every outer key is a plain column.
    key_cols: Option<Vec<usize>>,
    /// The positions of the outer rows the statement reads.
    left_cols: Option<Vec<usize>>,
    inner: InnerSide<'a>,
    out: Pairs<'a>,
    key: Row,
    probed: u64,
}

impl Join<'_> {
    /// After the last outer row: a RIGHT or FULL join emits the inner rows
    /// no outer row joined.
    fn finish(&mut self, left_arity: usize) -> PgResult<()> {
        if !matches!(self.out.kind, JoinKind::Right | JoinKind::Full) {
            return Ok(());
        }
        let inner = self.inner.get(self.ctx, &mut self.key)?;
        self.out.unmatched(inner, left_arity)
    }
}

impl Sink for Join<'_> {
    fn row(&mut self, _: u64, l: &Row) -> PgResult<()> {
        self.probed += 1;
        let ctx = self.ctx;
        let inner = self.inner.get(ctx, &mut self.key)?;
        let first = match self.lkeys {
            Some(lkeys) => {
                eval_into(lkeys, l, &ctx.eval_ctx, &mut self.key)?;
                inner.first(&self.key)
            }
            None => 0,
        };
        let cols = self.left_cols.as_deref();
        self.out.probe(ctx, inner, first, |pair| extend_cols(pair, l, cols))
    }

    fn batches(&mut self) -> Option<&mut dyn BatchSink> {
        if self.key_cols.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

/// The batch probe: no kernel of its own, so the scan books what it books
/// for rows.
impl BatchSink for Join<'_> {
    fn kernels(&self) -> u64 {
        0
    }

    fn batch(&mut self, batch: &ColumnBatch<'_>, sel: &[usize]) -> PgResult<()> {
        let ctx = self.ctx;
        let Some(key_cols) = &self.key_cols else {
            return Err(PgError::internal("a batch probe needs plain-column keys"));
        };
        let slices: Vec<_> = key_cols.iter().map(|&c| batch.col(c)).collect::<PgResult<_>>()?;
        for &i in sel {
            self.probed += 1;
            let inner = self.inner.get(ctx, &mut self.key)?;
            self.key.clear();
            self.key.extend(slices.iter().map(|s| s.get(i).to_datum()));
            let first = inner.first(&self.key);
            self.out.probe(ctx, inner, first, |pair| batch.gather(i, pair))?;
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
        }
    }

    /// Fold one value in: `None` for `count(*)`, which counts the row.
    fn update(&mut self, value: Option<DatumRef>) -> PgResult<()> {
        if self.kind == AggKind::CountStar {
            self.count += 1;
            return Ok(());
        }
        let Some(v) = value.filter(|v| !v.is_null()) else { return Ok(()) };
        match self.kind {
            AggKind::CountStar | AggKind::Count => self.count += 1,
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
    ctx: &'s EvalCtx,
    keys: KeyTable,
    states: Vec<AggState>,
    /// Per call, for a DISTINCT one, the values each group has folded in: one
    /// table keyed by (where the group's states start, value).
    seen: Vec<Option<KeyTable>>,
    /// The key of the row being folded, in a reused row.
    key: Row,
    /// Rows folded in one at a time.
    rows: u64,
    /// The kernels a batch fold runs, when every group key and aggregate
    /// argument has them: a gather and the expression's kernels per key and
    /// per argument.
    kernels: Option<u64>,
}

impl<'s> Groups<'s> {
    fn new(stage: &'s AggStage, ctx: &'s EvalCtx) -> Groups<'s> {
        let (keys, key) = (KeyTable::new(stage.group.len()), Vec::with_capacity(stage.group.len()));
        let exprs = stage.group.iter().map(Some).chain(stage.calls.iter().map(|c| c.arg.as_ref()));
        let kernels = exprs
            .clone()
            .all(|e| e.is_none_or(supports_batch))
            .then(|| exprs.map(|e| 1 + e.map_or(0, kernel_count)).sum());
        let seen = stage.calls.iter().map(|c| c.distinct.then(|| KeyTable::new(2))).collect();
        Groups { stage, ctx, keys, states: Vec::new(), seen, key, rows: 0, kernels }
    }

    /// Fold `value` into call `i`'s state of the group whose states start at
    /// `at`; a DISTINCT call folds each non-NULL value once per group.
    fn update(&mut self, at: usize, i: usize, value: Option<DatumRef>) -> PgResult<()> {
        if let (Some(seen), Some(v)) = (&mut self.seen[i], value.filter(|v| !v.is_null())) {
            if !seen.insert(&[Datum::Int(at as i64), v.to_datum()]).1 {
                return Ok(());
            }
        }
        self.states[at + i].update(value)
    }

    /// Where in `states` the states of the group whose key is in `self.key`
    /// start, created the first time the key is seen.
    fn states_at(&mut self) -> usize {
        let (slot, new) = self.keys.insert(&self.key);
        if new {
            self.states.extend(self.stage.calls.iter().map(AggState::new));
        }
        slot * self.stage.calls.len()
    }

    /// One row per group in key order: the key, then each aggregate. A
    /// global aggregate (no GROUP BY) over no rows still yields one row.
    /// Charges a tuple per row folded in one at a time.
    fn finish(mut self, cost: &mut SimCost) -> Vec<Row> {
        cost.add_tuples(self.rows);
        if self.keys.is_empty() && self.keys.key_width() == 0 {
            self.key.clear();
            self.states_at();
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

/// The aggregate's sink: the grouping step of [`FinishStage::run`] and of
/// the pipeline alike.
impl Sink for Groups<'_> {
    /// Fold one input row into its group.
    fn row(&mut self, _: u64, row: &Row) -> PgResult<()> {
        let ctx = self.ctx;
        eval_into(&self.stage.group, row, ctx, &mut self.key)?;
        let (stage, at) = (self.stage, self.states_at());
        for (i, call) in stage.calls.iter().enumerate() {
            let value = call.arg.as_ref().map(|a| eval(a, row, ctx)).transpose()?;
            self.update(at, i, value.as_ref().map(Datum::view))?;
        }
        self.rows += 1;
        Ok(())
    }

    fn batches(&mut self) -> Option<&mut dyn BatchSink> {
        if self.kernels.is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl BatchSink for Groups<'_> {
    fn kernels(&self) -> u64 {
        self.kernels.unwrap_or(0)
    }

    /// Fold a batch's selected rows in without building them: the group keys
    /// and aggregate arguments run as kernels over the batch's typed columns,
    /// and the states fold their lanes row by row, as [`Groups::row`] does
    /// (a global aggregate looks its one group up once per batch).
    fn batch(&mut self, batch: &ColumnBatch<'_>, sel: &[usize]) -> PgResult<()> {
        let (stage, ctx) = (self.stage, self.ctx);
        let keys: Vec<_> =
            stage.group.iter().map(|g| eval_batch(g, batch, sel, ctx)).collect::<PgResult<_>>()?;
        let args: Vec<Option<_>> = stage
            .calls
            .iter()
            .map(|c| c.arg.as_ref().map(|a| eval_batch(a, batch, sel, ctx)).transpose())
            .collect::<PgResult<_>>()?;
        let mut at = 0;
        for (n, &i) in sel.iter().enumerate() {
            if n == 0 || !keys.is_empty() {
                self.key.clear();
                self.key.extend(keys.iter().map(|v| v.get(i).to_datum()));
                at = self.states_at();
            }
            for (call, a) in args.iter().enumerate() {
                self.update(at, call, a.as_ref().map(|v| v.get(i)))?;
            }
        }
        Ok(())
    }
}

/// Execute a planned SELECT end to end, returning (column names, rows). The
/// FROM/WHERE input runs as one pipeline whose rows, or a columnar scan's
/// batches, an aggregate folds straight into its groups; without one each
/// row is projected as the pipeline lends it, and only the projected row is
/// kept for the rest of the finish stage.
pub fn run_select_plan(ctx: &mut ExecCtx, plan: &SelectPlan) -> PgResult<(Vec<String>, Vec<Row>)> {
    let finish = &plan.finish;
    if let Some(table) = plan.for_update {
        let rows = lock_for_update(ctx, table, &plan.input)?;
        return finish.run(rows, &ctx.eval_ctx, &mut ctx.cost);
    }
    let Some(stage) = &finish.agg else {
        let (mut rows, eval_ctx) = (Vec::new(), &ctx.eval_ctx);
        let booking = produce(ctx, &plan.input, &mut |_, row: &Row| {
            finish.project(row, eval_ctx, &mut rows)
        })?;
        booking.book(&mut ctx.cost);
        return finish.finish_projected(rows, &ctx.eval_ctx, &mut ctx.cost);
    };
    let mut groups = Groups::new(stage, &ctx.eval_ctx);
    produce(ctx, &plan.input, &mut groups)?.book(&mut ctx.cost);
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
                let mut groups = Groups::new(stage, ctx);
                for row in &rows {
                    groups.row(0, row)?;
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
        let mut projected = Vec::new();
        for row in &groups {
            self.project(row, ctx, &mut projected)?;
        }
        self.finish_projected(projected, ctx, cost)
    }

    /// HAVING, then the projection (hidden ORDER BY columns included) of one
    /// grouped row, pushed onto `out` when the row passes.
    fn project(&self, row: &Row, ctx: &EvalCtx, out: &mut Vec<Row>) -> PgResult<()> {
        if passes(&self.having, row, ctx)? {
            let mut projected = Vec::with_capacity(self.projection.len());
            for p in &self.projection {
                projected.push(eval(p, row, ctx)?);
            }
            out.push(projected);
        }
        Ok(())
    }

    /// The rest of the stage over projected rows: DISTINCT → ORDER BY →
    /// OFFSET/LIMIT → drop the hidden ORDER BY columns.
    fn finish_projected(
        &self,
        mut result_rows: Vec<Row>,
        ctx: &EvalCtx,
        cost: &mut SimCost,
    ) -> PgResult<(Vec<String>, Vec<Row>)> {
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
