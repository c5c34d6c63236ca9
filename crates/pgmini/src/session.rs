//! Sessions: the connection + statement dispatch layer.
//!
//! A `Session` models one backend (connection) of the engine. It owns the
//! transaction state, routes statements through the extension hooks (the
//! interception points of §3.1), and accounts simulated cost per statement.

use crate::cost::{SimCost, BASE_PLAN_MS};
use crate::dml;
use crate::engine::Engine;
use crate::error::{ErrorCode, PgError, PgResult};
use crate::exec::ExecCtx;
use crate::expr::{bind, datum_expr, eval, missing_param, RowScope};
use crate::plancache::{self, StmtPlan};
use crate::lock::{CancelFlag, DistTxnId, LockKey, LockMode, CANCEL_NONE};
use crate::txn::{Xid, INVALID_XID};
use crate::types::{Datum, Row};
use crate::wal::WalRecord;
use sqlparse::ast::{Expr, SelectItem, Statement};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT output.
    Rows { columns: Vec<String>, rows: Vec<Row> },
    /// INSERT/UPDATE/DELETE/COPY row count.
    Affected(u64),
    /// DDL, SET, transaction control.
    Empty,
}

impl QueryResult {
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    pub fn into_rows(self) -> Vec<Row> {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        }
    }

    pub fn columns(&self) -> &[String] {
        match self {
            QueryResult::Rows { columns, .. } => columns,
            _ => &[],
        }
    }

    pub fn affected(&self) -> u64 {
        match self {
            QueryResult::Affected(n) => *n,
            _ => 0,
        }
    }

    /// First column of the first row (convenience for scalar queries).
    pub fn scalar(&self) -> Option<&Datum> {
        self.rows().first().and_then(|r| r.first())
    }
}

/// One backend connection to an engine.
pub struct Session {
    engine: Arc<Engine>,
    id: u64,
    xid: Option<Xid>,
    /// Inside an explicit BEGIN..COMMIT block?
    explicit_txn: bool,
    /// A statement in the current explicit transaction failed; everything
    /// until ROLLBACK errors with "current transaction is aborted".
    txn_failed: bool,
    cancel: CancelFlag,
    dist_id: Option<DistTxnId>,
    settings: HashMap<String, Datum>,
    last_cost: SimCost,
    stmt_counter: u64,
    /// Distributed snapshot token: when set, statement snapshots evaluate
    /// visibility against the shared commit clock (`TxnManager::snapshot_at`)
    /// instead of this engine's latest local snapshot.
    snapshot_token: Option<u64>,
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>) -> Session {
        let id = engine.session_seq.fetch_add(1, Ordering::Relaxed);
        Session {
            engine,
            id,
            xid: None,
            explicit_txn: false,
            txn_failed: false,
            cancel: Arc::new(AtomicU8::new(CANCEL_NONE)),
            dist_id: None,
            settings: HashMap::new(),
            last_cost: SimCost::ZERO,
            stmt_counter: 0,
            snapshot_token: None,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Simulated cost of the last statement.
    pub fn last_cost(&self) -> SimCost {
        self.last_cost
    }

    /// Add externally-incurred cost (the distributed layer charges network
    /// time to the session this way).
    pub fn add_cost(&mut self, cost: &SimCost) {
        self.last_cost.add(cost);
    }

    pub fn in_transaction(&self) -> bool {
        self.xid.is_some()
    }

    /// Inside an explicit `BEGIN` … `COMMIT` block.
    pub fn in_transaction_block(&self) -> bool {
        self.explicit_txn
    }

    pub fn current_xid(&self) -> Option<Xid> {
        self.xid
    }

    pub fn setting(&self, name: &str) -> Option<&Datum> {
        self.settings.get(name)
    }

    /// Attach a distributed transaction id (Citus's
    /// `assign_distributed_transaction_id`); lock-graph nodes on this engine
    /// are merged across the cluster through it.
    pub fn assign_dist_txn_id(&mut self, dist: DistTxnId) {
        self.dist_id = Some(dist);
        if let Some(xid) = self.xid {
            self.engine.locks.assign_dist_id(xid, dist);
        }
    }

    /// Pin (or clear) the distributed snapshot token used by subsequent
    /// statements. The distributed layer sets this on worker connections
    /// right before forwarding a fan-out task.
    pub fn set_snapshot_token(&mut self, token: Option<u64>) {
        self.snapshot_token = token;
    }

    pub fn snapshot_token(&self) -> Option<u64> {
        self.snapshot_token
    }

    // ---------------- statement execution ----------------

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> PgResult<QueryResult> {
        let stmt = sqlparse::parse(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Parse and execute a multi-statement script; returns the last result.
    pub fn execute_script(&mut self, sql: &str) -> PgResult<QueryResult> {
        let stmts = sqlparse::parse_many(sql)?;
        let mut last = QueryResult::Empty;
        for s in &stmts {
            last = self.execute_stmt(s)?;
        }
        Ok(last)
    }

    /// Execute with `$n` parameters. They are bound into the statement up
    /// front — a `$n` is a literal slot lifted by the client — so extension
    /// hooks and the planner see the statement a client inlining the values
    /// would have sent.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Datum]) -> PgResult<QueryResult> {
        let mut stmt = sqlparse::parse(sql)?;
        sqlparse::shape::bind_params(&mut stmt, |n| params.get(n.checked_sub(1)?).map(datum_expr))
            .map_err(missing_param)?;
        self.dispatch(&stmt, true)
    }

    /// Execute a parsed statement (through hooks).
    pub fn execute_stmt(&mut self, stmt: &Statement) -> PgResult<QueryResult> {
        self.dispatch(stmt, true)
    }

    /// Execute bypassing extension hooks (the extension's own "local
    /// execution" path; also prevents hook recursion).
    pub fn execute_local(&mut self, stmt: &Statement) -> PgResult<QueryResult> {
        self.dispatch(stmt, false)
    }

    /// Run `body` as one statement of this session, for work that arrives
    /// outside the SQL grammar (the distributed COPY data path): it starts
    /// with a fresh statement cost, an aborted transaction block refuses it,
    /// and its failure aborts the block.
    pub fn run_as_statement<T>(
        &mut self,
        body: impl FnOnce(&mut Session) -> PgResult<T>,
    ) -> PgResult<T> {
        if self.txn_failed {
            return Err(PgError::new(
                ErrorCode::InvalidTransactionState,
                "current transaction is aborted, commands ignored until end of transaction block",
            ));
        }
        self.last_cost = SimCost::ZERO;
        let result = body(self);
        if result.is_err() && self.explicit_txn {
            self.fail_txn();
        }
        result
    }

    /// Convenience: run a query and return its rows.
    pub fn query(&mut self, sql: &str) -> PgResult<Vec<Row>> {
        Ok(self.execute(sql)?.into_rows())
    }

    fn dispatch(&mut self, stmt: &Statement, use_hooks: bool) -> PgResult<QueryResult> {
        // cancellation that arrived between statements: it dooms the current
        // transaction, but COMMIT/ROLLBACK must still run so the transaction
        // (here and on any node that shares its fate) can clean up — exactly
        // like PostgreSQL processing a pending cancel interrupt
        let pending_cancel = self.cancel.load(Ordering::SeqCst);
        if pending_cancel != CANCEL_NONE {
            self.cancel.store(CANCEL_NONE, Ordering::SeqCst);
            if pending_cancel == crate::lock::CANCEL_FENCE {
                // the transaction was force-aborted under us by a metadata
                // fence: engine-side state (txn status, locks) is already
                // gone, so drop the session half and surface the retryable
                // serialization failure. A plain ROLLBACK stays silent.
                self.rollback_current();
                if !matches!(stmt, Statement::Rollback) {
                    return Err(PgError::new(
                        ErrorCode::SerializationFailure,
                        "could not serialize access due to a concurrent metadata change \
                         (transaction fenced; retry)",
                    ));
                }
                return Ok(QueryResult::Empty);
            }
            if matches!(stmt, Statement::Commit | Statement::Rollback) {
                if self.explicit_txn && self.xid.is_some() {
                    self.txn_failed = true;
                }
            } else {
                self.fail_txn();
                return Err(PgError::new(
                    ErrorCode::QueryCanceled,
                    "canceling statement due to cancel request",
                ));
            }
        }
        // a failed transaction block accepts only COMMIT/ROLLBACK, which
        // leave the block whether they fail or not
        if matches!(stmt, Statement::Commit | Statement::Rollback) {
            self.stmt_counter += 1;
            self.last_cost = SimCost::ZERO;
            return self.dispatch_inner(stmt, use_hooks);
        }
        self.run_as_statement(|s| {
            s.stmt_counter += 1;
            s.dispatch_inner(stmt, use_hooks)
        })
    }

    fn fail_txn(&mut self) {
        if self.explicit_txn && self.xid.is_some() {
            self.txn_failed = true;
        } else if let Some(_xid) = self.xid {
            // implicit transaction: roll it back immediately
            self.rollback_current();
        }
    }

    fn dispatch_inner(&mut self, stmt: &Statement, use_hooks: bool) -> PgResult<QueryResult> {
        if use_hooks {
            if let Some(r) = self.extension_first(stmt) {
                return r;
            }
        }
        match stmt {
            Statement::Begin => {
                if self.explicit_txn {
                    return Ok(QueryResult::Empty); // WARNING in PG; no-op here
                }
                self.ensure_xid()?;
                self.explicit_txn = true;
                Ok(QueryResult::Empty)
            }
            Statement::Commit => {
                if self.txn_failed {
                    self.rollback_current();
                    return Ok(QueryResult::Empty); // PG reports ROLLBACK
                }
                self.commit_current()?;
                Ok(QueryResult::Empty)
            }
            Statement::Rollback => {
                self.rollback_current();
                Ok(QueryResult::Empty)
            }
            Statement::PrepareTransaction(gid) => {
                self.prepare_transaction(gid)?;
                Ok(QueryResult::Empty)
            }
            Statement::CommitPrepared(gid) => {
                self.finish_prepared(gid, true)?;
                Ok(QueryResult::Empty)
            }
            Statement::RollbackPrepared(gid) => {
                self.finish_prepared(gid, false)?;
                Ok(QueryResult::Empty)
            }
            Statement::Set { name, value } => {
                self.settings.insert(name.clone(), crate::expr::literal_datum(value));
                Ok(QueryResult::Empty)
            }
            Statement::Vacuum { table } => {
                let n = match table {
                    Some(t) => self.engine.vacuum_table(t)?,
                    None => self.engine.vacuum_all()?,
                };
                Ok(QueryResult::Affected(n))
            }
            Statement::CreateTable(_)
            | Statement::CreateIndex(_)
            | Statement::CreateRollup(_)
            | Statement::DropRollup { .. }
            | Statement::DropTable { .. }
            | Statement::Truncate { .. }
            | Statement::Copy(_) => self.run_utility(stmt),
            Statement::Explain { inner, .. } => self.run_explain(inner),
            Statement::Select(sel) => {
                // UDF call path: FROM-less SELECT invoking registered UDFs
                if sel.from.is_empty() {
                    if let Some(r) = self.try_udf_select(sel)? {
                        return Ok(r);
                    }
                }
                self.run_planned(stmt, sel.for_update)
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                self.run_planned(stmt, true)
            }
        }
    }

    /// The installed extension's answer to `stmt`, when it takes the
    /// statement: its planner hook sees queries and DML, its utility hook
    /// everything else but transaction control, which never leaves the
    /// engine.
    fn extension_first(&mut self, stmt: &Statement) -> Option<PgResult<QueryResult>> {
        let ext = self.engine.hooks.installed()?;
        match stmt {
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::PrepareTransaction(_)
            | Statement::CommitPrepared(_)
            | Statement::RollbackPrepared(_) => None,
            Statement::Select(_)
            | Statement::Insert(_)
            | Statement::Update(_)
            | Statement::Delete(_) => ext.planner_hook(self, stmt),
            _ => ext.utility_hook(self, stmt),
        }
    }

    // ---------------- transaction control ----------------

    /// Allocate an xid for the current statement/transaction if none yet.
    pub fn ensure_xid(&mut self) -> PgResult<Xid> {
        if let Some(xid) = self.xid {
            return Ok(xid);
        }
        let xid = self.engine.txns.begin();
        self.engine.locks.register_txn(xid, self.cancel.clone(), self.dist_id);
        self.engine.wal.append(WalRecord::Begin { xid });
        self.xid = Some(xid);
        Ok(xid)
    }

    /// Commit the current transaction (runs extension callbacks).
    pub fn commit_current(&mut self) -> PgResult<()> {
        let Some(xid) = self.xid else {
            self.explicit_txn = false;
            return Ok(());
        };
        // a force-aborted (fenced) transaction must never commit: its writes
        // were already rolled back engine-side
        if self.engine.txns.status(xid) == crate::txn::TxStatus::Aborted {
            self.rollback_current();
            return Err(PgError::new(
                ErrorCode::SerializationFailure,
                "could not commit: transaction was aborted by a concurrent metadata \
                 change (retry)",
            ));
        }
        if let Some(ext) = self.engine.hooks.installed() {
            if let Err(e) = ext.pre_commit(self) {
                self.rollback_current();
                return Err(e);
            }
        }
        self.engine.txns.commit(xid);
        self.engine.wal.append(WalRecord::Commit { xid });
        self.engine.locks.release_all(xid);
        self.xid = None;
        self.explicit_txn = false;
        self.txn_failed = false;
        self.dist_id = None;
        if let Some(ext) = self.engine.hooks.installed() {
            ext.post_commit(self);
        }
        Ok(())
    }

    /// Abort the current transaction.
    pub fn rollback_current(&mut self) {
        // aborting consumes any pending cancellation
        self.cancel.store(CANCEL_NONE, Ordering::SeqCst);
        if let Some(xid) = self.xid.take() {
            self.engine.txns.abort(xid);
            self.engine.wal.append(WalRecord::Abort { xid });
            self.engine.locks.release_all(xid);
        }
        self.explicit_txn = false;
        self.txn_failed = false;
        self.dist_id = None;
        if let Some(ext) = self.engine.hooks.installed() {
            ext.post_abort(self);
        }
    }

    /// First phase of 2PC: make the transaction's fate externally decidable.
    pub fn prepare_transaction(&mut self, gid: &str) -> PgResult<()> {
        let Some(xid) = self.xid else {
            return Err(PgError::new(
                ErrorCode::InvalidTransactionState,
                "PREPARE TRANSACTION requires an active transaction",
            ));
        };
        self.engine.txns.prepare(xid, gid)?;
        self.engine.wal.append(WalRecord::Prepare { xid, gid: gid.to_string() });
        // locks stay held by the prepared xid; the session moves on
        self.engine.locks.detach_session(xid);
        self.xid = None;
        self.explicit_txn = false;
        self.txn_failed = false;
        self.dist_id = None;
        Ok(())
    }

    fn finish_prepared(&mut self, gid: &str, commit: bool) -> PgResult<()> {
        let xid = self.engine.txns.finish_prepared(gid, commit)?;
        self.engine.wal.append(if commit {
            WalRecord::CommitPrepared { gid: gid.to_string() }
        } else {
            WalRecord::AbortPrepared { gid: gid.to_string() }
        });
        self.engine.locks.release_all(xid);
        Ok(())
    }

    // ---------------- statement bodies ----------------

    fn make_ctx(&mut self) -> ExecCtx<'_> {
        let xid = self.xid.unwrap_or(INVALID_XID);
        let snap = match self.snapshot_token {
            Some(token) => self.engine.txns.snapshot_at(xid, token),
            None => self.engine.txns.snapshot(xid),
        };
        let seed = self.id.wrapping_mul(0x9E37_79B9).wrapping_add(self.stmt_counter);
        let mut ctx = ExecCtx::new(&self.engine, snap, xid, seed);
        ctx.cost.add_cpu(BASE_PLAN_MS);
        ctx
    }

    /// Run `body` on a new executor context; its cost joins the statement's
    /// whether it succeeds or not.
    fn with_ctx<T>(&mut self, body: impl FnOnce(&mut ExecCtx) -> PgResult<T>) -> PgResult<T> {
        let mut ctx = self.make_ctx();
        let result = body(&mut ctx);
        let cost = ctx.cost;
        self.last_cost.add(&cost);
        result
    }

    /// Run `body` in the open transaction, or in an implicit one that
    /// commits when `body` succeeds and rolls back when it fails.
    fn run_in_transaction<T>(
        &mut self,
        body: impl FnOnce(&mut Session, Xid) -> PgResult<T>,
    ) -> PgResult<T> {
        let implicit = self.xid.is_none();
        let xid = self.ensure_xid()?;
        let result = body(self, xid);
        if implicit {
            match &result {
                Ok(_) => self.commit_current()?,
                Err(_) => self.rollback_current(),
            }
        }
        result
    }

    /// Plan (or fetch the cached plan of) a SELECT / INSERT / UPDATE /
    /// DELETE and run it. `writes` statements run inside a transaction, an
    /// implicit one when none is open.
    fn run_planned(&mut self, stmt: &Statement, writes: bool) -> PgResult<QueryResult> {
        let run = |s: &mut Session| {
            s.with_ctx(|ctx| {
                let plan = plancache::prepare(ctx, stmt)?;
                plancache::run(ctx, &plan)
            })
        };
        if writes {
            self.run_in_transaction(|s, _| run(s))
        } else {
            run(self)
        }
    }

    fn run_utility(&mut self, stmt: &Statement) -> PgResult<QueryResult> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.engine.ddl_create_table(ct)?;
                Ok(QueryResult::Empty)
            }
            Statement::CreateIndex(ci) => {
                self.engine.ddl_create_index(ci)?;
                Ok(QueryResult::Empty)
            }
            Statement::CreateRollup(_) | Statement::DropRollup { .. } => Err(PgError::unsupported(
                "ROLLUP tables require the citrus extension",
            )),
            Statement::DropTable { names, if_exists } => {
                for n in names {
                    // exclusive lock: wait out readers/writers
                    match self.engine.table_meta(n) {
                        Ok(meta) => self.run_in_transaction(|s, xid| {
                            let table = LockKey::Table(meta.id);
                            s.engine.locks.acquire(xid, table, LockMode::Exclusive)?;
                            s.engine.ddl_drop_table(n, *if_exists)
                        })?,
                        Err(_) => self.engine.ddl_drop_table(n, *if_exists)?,
                    }
                }
                Ok(QueryResult::Empty)
            }
            Statement::Truncate { tables } => {
                self.run_in_transaction(|s, xid| {
                    for t in tables {
                        let meta = s.engine.table_meta(t)?;
                        s.engine.locks.acquire(xid, LockKey::Table(meta.id), LockMode::Exclusive)?;
                        s.engine.truncate_table(t)?;
                    }
                    Ok(())
                })?;
                Ok(QueryResult::Empty)
            }
            Statement::Copy(_) => Err(PgError::unsupported(
                "COPY .. FROM STDIN carries no rows through execute(); use the session's copy API",
            )),
            other => Err(PgError::internal(format!("unexpected utility statement {other:?}"))),
        }
    }

    fn run_explain(&mut self, inner: &Statement) -> PgResult<QueryResult> {
        if !matches!(inner, Statement::Select(_)) {
            return Err(PgError::unsupported("EXPLAIN is supported for SELECT only"));
        }
        let mut ctx = self.make_ctx();
        let prepared = plancache::prepare(&mut ctx, inner)?;
        let StmtPlan::Select(plan) = &*prepared else {
            return Err(PgError::internal("SELECT planned as something else"));
        };
        let mut lines = Vec::new();
        {
            let cat = self.engine.catalog.read();
            plan.input.describe(&cat, &mut lines, 0);
        }
        if plan.finish.agg.is_some() {
            lines.insert(0, "HashAggregate".to_string());
        }
        if !plan.finish.order_by.is_empty() {
            lines.insert(0, "Sort".to_string());
        }
        Ok(QueryResult::Rows {
            columns: vec!["QUERY PLAN".to_string()],
            rows: lines.into_iter().map(|l| vec![Datum::text(l)]).collect(),
        })
    }

    /// FROM-less SELECT whose projection calls registered UDFs.
    fn try_udf_select(&mut self, sel: &sqlparse::ast::Select) -> PgResult<Option<QueryResult>> {
        let udfs: Vec<_> = (sel.projection.iter())
            .map(|item| match item {
                SelectItem::Expr { expr: Expr::Func(f), .. } => self.engine.udf(&f.name),
                _ => None,
            })
            .collect();
        if udfs.iter().all(Option::is_none) {
            return Ok(None);
        }
        let mut columns = Vec::new();
        let mut row = Vec::new();
        let scope = RowScope::default();
        let ectx = crate::expr::EvalCtx::default();
        for (item, udf) in sel.projection.iter().zip(udfs) {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(PgError::unsupported("wildcard in UDF select"));
            };
            match (expr, udf) {
                (Expr::Func(f), Some(udf)) => {
                    let args: Vec<Datum> = f
                        .args
                        .iter()
                        .map(|a| {
                            let b = bind(a, &scope)?;
                            eval(&b, &vec![], &ectx)
                        })
                        .collect::<PgResult<_>>()?;
                    columns.push(alias.clone().unwrap_or_else(|| f.name.clone()));
                    row.push(udf(self, &args)?);
                }
                (other, _) => {
                    let b = bind(other, &scope)?;
                    columns.push(alias.clone().unwrap_or_else(|| "?column?".to_string()));
                    row.push(eval(&b, &vec![], &ectx)?);
                }
            }
        }
        Ok(Some(QueryResult::Rows { columns, rows: vec![row] }))
    }

    // ---------------- COPY API ----------------

    /// Bulk-load rows into one of this engine's tables (the `COPY .. FROM
    /// STDIN` data path; no extension hook sees it). The distributed layer's
    /// COPY partitions rows into shard batches and loads each with this.
    pub fn copy_rows(
        &mut self,
        table: &str,
        columns: &[String],
        rows: Vec<Row>,
    ) -> PgResult<u64> {
        self.run_in_transaction(|s, _| s.with_ctx(|ctx| dml::exec_copy(ctx, table, columns, rows)))
    }

    /// Parse CSV text (comma-separated, `\N` = NULL) and bulk-load it.
    pub fn copy_text(&mut self, table: &str, columns: &[String], data: &str) -> PgResult<u64> {
        let meta = self.engine.table_meta(table)?;
        let target: Vec<usize> = if columns.is_empty() {
            (0..meta.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
                .collect::<PgResult<_>>()?
        };
        let mut rows = Vec::new();
        for line in data.lines() {
            if line.is_empty() {
                continue;
            }
            let fields = split_csv(line);
            if fields.len() != target.len() {
                return Err(PgError::new(
                    ErrorCode::InvalidText,
                    format!("COPY expected {} fields, found {}", target.len(), fields.len()),
                ));
            }
            let row: Row = fields
                .into_iter()
                .map(|f| match f {
                    None => Datum::Null,
                    Some(text) => Datum::text(text),
                })
                .collect();
            rows.push(row);
        }
        self.copy_rows(table, columns, rows)
    }

    /// Cancel flag shared with the lock manager (tests & the distributed
    /// deadlock detector use this).
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }
}

/// Split one CSV line; `\N` is NULL, `""` quoting supported.
fn split_csv(line: &str) -> Vec<Option<String>> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    let mut quoted = false;
    loop {
        match chars.next() {
            None => {
                out.push(finish_field(field, quoted));
                break;
            }
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if field.is_empty() && !quoted => {
                in_quotes = true;
                quoted = true;
            }
            Some(',') if !in_quotes => {
                out.push(finish_field(std::mem::take(&mut field), quoted));
                quoted = false;
            }
            Some(c) => field.push(c),
        }
    }
    out
}

fn finish_field(field: String, quoted: bool) -> Option<String> {
    if !quoted && field == "\\N" {
        None
    } else {
        Some(field)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.xid.is_some() {
            self.rollback_current();
        }
        if let Some(ext) = self.engine.hooks.installed() {
            ext.session_closed(self.id);
        }
        self.engine.connection_closed();
    }
}
