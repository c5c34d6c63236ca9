//! The traced run: spans recorded from the benchmark's own files, around the
//! calls into each layer's public entry points.
//!
//! `op` (root, one per operation) → `stmt` (each `SqlRunner::run`/`copy`) →
//! `replay.*`. For one operation in `sample_every`, once the operation has
//! ended and its locks are released, every data statement it issued is
//! replayed through `sqlparse::parse`, `planner::cache::shape_hash`,
//! `sqlparse::deparse`, a cold `planner::plan_statement`, and each task of
//! that plan through `Session::execute_stmt` on the owning node's engine
//! (write tasks inside a transaction that is rolled back). Spans stay in
//! memory and are written out when the run ends. Spans inside the program
//! are a later change.

use citrus::cluster::{ClientSession, Cluster};
use citrus::metadata::{Metadata, NodeId};
use citrus::planner::{self, SubplanExecutor};
use pgmini::error::PgResult;
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::{Select, Statement};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use workloads::runner::{RunCost, SqlRunner};

/// One operation in this many is replayed: one in 16 where a window has
/// thousands, every one where it has a handful.
pub fn sample_every(window_ops: usize) -> u64 {
    (window_ops as u64 / 100).clamp(1, 16)
}

/// Span files go where build products go.
pub fn spans_path(workload: &str) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from)
        .join("benchmark-spans")
        .join(format!("{workload}.spans.jsonl"))
}

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// Index of the operation this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and total of one replayed quantity.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sum {
    pub n: u64,
    pub total: f64,
}

impl Sum {
    fn add(&mut self, v: f64) {
        self.n += 1;
        self.total += v;
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total / self.n as f64
        }
    }
}

/// What the traced run adds up besides spans.
#[derive(Debug, Default)]
pub struct Totals {
    pub stmts: u64,
    pub virtual_ms: f64,
    pub virtual_net_ms: f64,
    /// Nanoseconds in `COMMIT` statements, and in the whole transactions
    /// they ended, split by whether the commit was two-phase.
    pub twopc_commit_ns: u64,
    pub twopc_txn_ns: u64,
    pub delegated_commit_ns: u64,
    pub delegated_txn_ns: u64,
    pub parse_ns: Sum,
    pub shape_hash_ns: Sum,
    pub deparse_ns: Sum,
    pub plan_ns: Sum,
    pub tasks: Sum,
    pub exec_ns: Sum,
    pub coord_self_ns: Sum,
    /// Sampled statements whose cold plan or task replay failed (a replayed
    /// INSERT meets its own committed row) and that are left out.
    pub replay_skipped: u64,
}

struct Pending {
    sql: String,
    span: u32,
    ns: u64,
    exchanges: u64,
}

/// Runs WHERE-clause subqueries for the cold plan, as the extension's
/// planner environment does. The join-order tier needs table statistics only
/// the extension has; a statement that needs it is skipped.
struct Subplans<'a>(&'a mut ClientSession);

impl SubplanExecutor for Subplans<'_> {
    fn run_distributed_subquery(&mut self, sel: &Select) -> PgResult<Vec<Row>> {
        self.0.query(&sqlparse::deparse(&Statement::Select(Box::new(
            sel.clone(),
        ))))
    }
}

pub struct Trace {
    cluster: Arc<Cluster>,
    /// No DDL runs after set-up, so one copy stays current.
    meta: Metadata,
    subplans: ClientSession,
    workers: HashMap<NodeId, Session>,
    /// Measured cost of one wire exchange, 0 when the workload has no wire time.
    wire_ns: f64,
    sample_every: u64,
    epoch: Instant,
    spans: Vec<Span>,
    op: Option<(u32, u64)>,
    sampled: bool,
    op_commit_ns: u64,
    pending: Vec<Pending>,
    pub totals: Totals,
}

impl Trace {
    pub fn new(cluster: &Arc<Cluster>, wire_ns: f64, sample_every: u64) -> PgResult<Trace> {
        Ok(Trace {
            cluster: cluster.clone(),
            meta: cluster.metadata.read().clone(),
            subplans: cluster.session()?,
            workers: HashMap::new(),
            wire_ns,
            sample_every,
            epoch: Instant::now(),
            spans: Vec::new(),
            op: None,
            sampled: false,
            op_commit_ns: 0,
            pending: Vec::new(),
            totals: Totals::default(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let op = self.op.map_or(0, |(_, index)| index);
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` and record it as a child span of `parent`.
    fn timed<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.span(parent, name, start, end);
        (out, (end - start) as f64)
    }

    pub fn begin_op(&mut self, index: u64) {
        let now = self.now();
        self.op = Some((0, index));
        let id = self.span(0, "op", now, now);
        self.op = Some((id, index));
        self.sampled = index.is_multiple_of(self.sample_every);
        self.op_commit_ns = 0;
    }

    /// Close the operation's span, then replay what it sampled. `twopc` says
    /// whether the cluster's two-phase commit counter moved during it.
    pub fn end_op(&mut self, twopc: bool) {
        let (id, _) = self.op.expect("end_op after begin_op");
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        let op_ns = now - span.start_ns;
        if self.op_commit_ns > 0 {
            let t = &mut self.totals;
            let (commit, txn) = if twopc {
                (&mut t.twopc_commit_ns, &mut t.twopc_txn_ns)
            } else {
                (&mut t.delegated_commit_ns, &mut t.delegated_txn_ns)
            };
            *commit += self.op_commit_ns;
            *txn += op_ns;
        }
        for p in std::mem::take(&mut self.pending) {
            if self.replay(&p).is_none() {
                self.totals.replay_skipped += 1;
            }
        }
        self.op = None;
    }

    fn statement(
        &mut self,
        sql: Option<&str>,
        start: u64,
        end: u64,
        exchanges: u64,
        cost: &RunCost,
    ) {
        let (op, _) = self.op.expect("a statement runs inside an operation");
        let span = self.span(op, "stmt", start, end);
        self.totals.stmts += 1;
        self.totals.virtual_ms += cost.elapsed_ms;
        self.totals.virtual_net_ms += cost.net_ms;
        let Some(sql) = sql else { return };
        if sql == "COMMIT" {
            self.op_commit_ns += end - start;
        }
        if self.sampled {
            self.pending.push(Pending {
                sql: sql.to_string(),
                span,
                ns: end - start,
                exchanges,
            });
        }
    }

    /// `None` when the statement cannot be replayed through every layer.
    fn replay(&mut self, p: &Pending) -> Option<()> {
        let (stmt, parse_ns) = self.timed(p.span, "replay.sqlparse.parse", |_| {
            sqlparse::parse(black_box(&p.sql))
        });
        let stmt = stmt.ok()?;
        if matches!(
            stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) {
            return Some(());
        }
        let (_, hash_ns) = self.timed(p.span, "replay.planner.shape_hash", |_| {
            black_box(planner::cache::shape_hash(black_box(&stmt)))
        });
        let (_, deparse_ns) = self.timed(p.span, "replay.sqlparse.deparse", |_| {
            black_box(sqlparse::deparse(black_box(&stmt)))
        });
        let (plan, plan_ns) = self.timed(p.span, "replay.planner.plan", |t| {
            planner::plan_statement(&stmt, &t.meta, NodeId(0), &mut Subplans(&mut t.subplans))
        });
        let plan = plan.ok()??;
        if !plan.prep.is_empty() || plan.used_subplans {
            // the tasks read intermediate results that only the executor ships
            return None;
        }
        let mut exec = Vec::with_capacity(plan.tasks.len());
        for task in &plan.tasks {
            if !self.workers.contains_key(&task.node) {
                let session = self.cluster.node(task.node).ok()?.engine().session().ok()?;
                self.workers.insert(task.node, session);
            }
            if task.is_write {
                self.workers
                    .get_mut(&task.node)?
                    .execute_stmt(&Statement::Begin)
                    .ok()?;
            }
            let (result, ns) = self.timed(p.span, "replay.pgmini.exec", |t| {
                t.workers
                    .get_mut(&task.node)
                    .expect("inserted above")
                    .execute_stmt(&task.stmt)
            });
            if task.is_write {
                self.workers
                    .get_mut(&task.node)?
                    .execute_stmt(&Statement::Rollback)
                    .ok()?;
            }
            result.ok()?;
            exec.push(ns);
        }
        let t = &mut self.totals;
        t.parse_ns.add(parse_ns);
        t.shape_hash_ns.add(hash_ns);
        t.deparse_ns.add(deparse_ns);
        t.plan_ns.add(plan_ns);
        t.tasks.add(exec.len() as f64);
        for ns in &exec {
            t.exec_ns.add(*ns);
        }
        // the executor runs a statement's tasks on up to `executor_threads` lanes
        let lanes = exec
            .len()
            .clamp(1, self.cluster.config.executor_threads.max(1));
        let on_path = exec.iter().sum::<f64>() / lanes as f64;
        t.coord_self_ns
            .add(p.ns as f64 - parse_ns - on_path - p.exchanges as f64 * self.wire_ns);
        Some(())
    }

    /// One JSON object per line: id, parent, name, op, start_ns, end_ns.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// The connection every arm drives. Without a trace it only forwards.
pub struct Client {
    pub inner: Box<dyn SqlRunner>,
    pub trace: Option<Trace>,
}

impl Client {
    fn traced<T>(
        &mut self,
        sql: Option<&str>,
        call: impl FnOnce(&mut dyn SqlRunner) -> PgResult<T>,
    ) -> PgResult<T> {
        let Some(t) = &mut self.trace else {
            return call(self.inner.as_mut());
        };
        let exchanges = &t.cluster.metrics.pipeline_exchanges;
        let before = exchanges.load(Ordering::Relaxed);
        let start = t.now();
        let result = call(self.inner.as_mut());
        let end = t.now();
        let opened = exchanges.load(Ordering::Relaxed) - before;
        let cost = self.inner.last_cost();
        t.statement(sql, start, end, opened, &cost);
        result
    }
}

impl SqlRunner for Client {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.traced(Some(sql), |r| r.run(sql))
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        self.traced(None, |r| r.copy(table, columns, rows))
    }

    fn last_cost(&mut self) -> RunCost {
        self.inner.last_cost()
    }
}

/// Answers every statement with an empty result: what is left is the cost of
/// generating the operation stream.
pub struct NullRunner;

impl SqlRunner for NullRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        black_box(sql);
        Ok(QueryResult::Empty)
    }

    fn copy(&mut self, _table: &str, _columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        Ok(black_box(rows).len() as u64)
    }

    fn last_cost(&mut self) -> RunCost {
        RunCost::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_windows_are_replayed_whole() {
        assert_eq!(sample_every(12_500), 16);
        assert_eq!(sample_every(650), 6);
        assert_eq!(sample_every(125), 1);
        assert_eq!(sample_every(5), 1);
    }

    #[test]
    fn a_sum_with_no_sample_has_mean_zero() {
        let mut s = Sum::default();
        assert_eq!(s.mean(), 0.0);
        s.add(2.0);
        s.add(4.0);
        assert_eq!((s.n, s.mean()), (2, 3.0));
    }
}
