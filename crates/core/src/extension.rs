//! The citrus extension: the object installed into every node's engine
//! through the pgmini hook surface (§3.1).
//!
//! * the **planner hook** intercepts SELECT/DML on citrus tables, runs the
//!   four-tier distributed planner, and drives the adaptive executor;
//! * the **utility hook** intercepts DDL, TRUNCATE, VACUUM, and EXPLAIN;
//! * the **transaction callbacks** implement single-node delegation and
//!   two-phase commit with durable commit records (§3.7);
//! * **UDFs** (`create_distributed_table`, `create_reference_table`,
//!   `assign_distributed_transaction_id`, ...) are the metadata RPCs.

use crate::cluster::Cluster;
use crate::cost::DistCost;
use crate::executor::{self, SessionState};
use crate::metadata::NodeId;
use crate::planner::{self, DistPlan, PlannerKind, SubplanExecutor};
use netsim::pipeline::WireRound;
use parking_lot::Mutex;
use pgmini::cost::{SimCost, NET_RTT_MS};
use pgmini::engine::Engine;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::hooks::Extension;
use pgmini::session::{QueryResult, Session};
use pgmini::types::{Datum, Row};
use sqlparse::ast::{Expr, Insert, InsertSource, Statement};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Name of the commit-records catalog (a real table, so commit records are
/// exactly as durable as the local transaction that writes them).
pub const COMMIT_RECORDS_TABLE: &str = "pg_dist_transaction";

/// Queryable stat relation: per-shape execution telemetry (tier, calls,
/// virtual elapsed, plan-cache hits). Refreshed from the metrics registry
/// whenever a SELECT references it.
pub const STAT_STATEMENTS_TABLE: &str = "citus_stat_statements";

/// Queryable stat relation: one row per extension-tracked session.
pub const STAT_ACTIVITY_TABLE: &str = "citus_stat_activity";

/// Queryable relation over the durable move journal: one row per shard-group
/// move (phase, per-move rows_moved / catchup_rows). Refreshed from
/// `citrus_shard_moves` whenever a SELECT references it.
pub const REBALANCE_STATUS_TABLE: &str = "citus_rebalance_status";

/// Virtual ms one full distributed planning pass costs the coordinator
/// (table classification, tier cascade, shard pruning, rewrite): about 4x
/// the local `base_plan_ms`.
const DIST_PLAN_MS: f64 = 0.2;

/// Virtual ms a plan-cache hit costs instead: only the shard-pruning step of
/// the cached tier is recomputed (§3.5.1).
const CACHED_PLAN_MS: f64 = 0.02;

/// The extension instance installed on one node.
pub struct CitrusExtension {
    cluster: Weak<Cluster>,
    pub node: NodeId,
    sessions: Mutex<HashMap<u64, SessionState>>,
    /// Distributed transaction numbers currently in flight from this node
    /// (2PC recovery must not roll back prepared txns that are still active).
    active_txn_numbers: Mutex<std::collections::HashSet<u64>>,
    /// Distributed plan cache keyed by normalized statement shape (§3.5.1);
    /// entries are invalidated by metadata generation.
    plan_cache: planner::cache::PlanCache,
}

impl CitrusExtension {
    /// Install the extension into an engine: hooks, UDFs, and the commit
    /// records catalog.
    pub fn install(cluster: &Arc<Cluster>, engine: &Arc<Engine>, node: NodeId) -> Arc<Self> {
        let ext = Arc::new(CitrusExtension {
            cluster: Arc::downgrade(cluster),
            node,
            sessions: Mutex::new(HashMap::new()),
            active_txn_numbers: Mutex::new(std::collections::HashSet::new()),
            plan_cache: planner::cache::PlanCache::new(planner::cache::MAX_ENTRIES),
        });
        engine.hooks.install(ext.clone());
        // every node's commits draw timestamps from the one cluster clock,
        // so snapshot tokens cut the commit order identically everywhere
        engine.txns.set_commit_clock(cluster.commit_clock.clone());
        Self::create_catalogs(engine);
        Self::register_udfs(cluster, engine, &ext);
        ext
    }

    /// Install onto a restored/promoted engine, replacing the cluster's
    /// extension slot for that node (HA failover, backup restore).
    pub fn install_restored(
        cluster: &Arc<Cluster>,
        engine: &Arc<Engine>,
        node: NodeId,
    ) -> Arc<Self> {
        let ext = Self::install(cluster, engine, node);
        cluster.replace_extension(node, ext.clone());
        // a restored/promoted coordinator rebuilds the rollup registry from
        // its durable catalog; stream hints die with the old engine Arc
        if node == NodeId(0) {
            let _ = crate::rollup::reload_registry(cluster);
        }
        ext
    }

    fn create_catalogs(engine: &Arc<Engine>) {
        let ddls = [
            format!(
                "CREATE TABLE IF NOT EXISTS {COMMIT_RECORDS_TABLE} (number bigint PRIMARY KEY)"
            ),
            format!(
                "CREATE TABLE IF NOT EXISTS {STAT_STATEMENTS_TABLE} (queryid text PRIMARY KEY, \
                 query text, tier text, calls bigint, total_ms float, cache_hits bigint, \
                 retries bigint)"
            ),
            format!(
                "CREATE TABLE IF NOT EXISTS {STAT_ACTIVITY_TABLE} (pid bigint PRIMARY KEY, \
                 tier text, elapsed_ms float, txn bigint)"
            ),
            // durable move journal + cleanup records (§3.4 crash safety);
            // populated only on the coordinator, but created everywhere so a
            // promoted standby can serve them
            format!(
                "CREATE TABLE IF NOT EXISTS {} (move_id bigint PRIMARY KEY, \
                 anchor_table text, bucket bigint, from_node bigint, to_node bigint, \
                 phase text, rows_moved bigint, catchup_rows bigint)",
                crate::movejournal::SHARD_MOVES_TABLE
            ),
            format!(
                "CREATE TABLE IF NOT EXISTS {} (record_id bigint PRIMARY KEY, \
                 move_id bigint, node_id bigint, object_name text)",
                crate::movejournal::CLEANUP_RECORDS_TABLE
            ),
            format!(
                "CREATE TABLE IF NOT EXISTS {REBALANCE_STATUS_TABLE} (move_id bigint PRIMARY KEY, \
                 table_name text, bucket bigint, from_node bigint, to_node bigint, \
                 phase text, rows_moved bigint, catchup_rows bigint)"
            ),
            // rollup definitions + changefeed cursors (coordinator state,
            // created everywhere so a promoted standby can serve them)
            format!(
                "CREATE TABLE IF NOT EXISTS {} (name text PRIMARY KEY, source text, \
                 definition text)",
                crate::rollup::ROLLUPS_TABLE
            ),
            format!(
                "CREATE TABLE IF NOT EXISTS {} (cursor_id text PRIMARY KEY, \
                 rollup text, shard bigint, node bigint, seq bigint)",
                crate::changefeed::CHANGEFEED_CURSORS_TABLE
            ),
        ];
        for ddl in ddls {
            if let Ok(Statement::CreateTable(ct)) = sqlparse::parse(&ddl) {
                let _ = engine.ddl_create_table(&ct);
            }
        }
    }

    fn register_udfs(cluster: &Arc<Cluster>, engine: &Arc<Engine>, _ext: &Arc<Self>) {
        let weak = Arc::downgrade(cluster);
        engine.register_udf("assign_distributed_transaction_id", move |session, args| {
            if args.len() != 3 {
                return Err(PgError::new(
                    ErrorCode::InvalidParameter,
                    "assign_distributed_transaction_id(origin, number, timestamp)",
                ));
            }
            let d = pgmini::lock::DistTxnId {
                origin_node: args[0].as_i64()? as u32,
                number: args[1].as_i64()? as u64,
                timestamp: args[2].as_i64()? as u64,
            };
            session.assign_dist_txn_id(d);
            Ok(Datum::Null)
        });
        let weak2 = weak.clone();
        engine.register_udf("create_distributed_table", move |session, args| {
            let cluster = weak2.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let table = args
                .first()
                .ok_or_else(|| PgError::new(ErrorCode::InvalidParameter, "table name required"))?
                .as_str()?
                .to_string();
            let column = args
                .get(1)
                .ok_or_else(|| {
                    PgError::new(ErrorCode::InvalidParameter, "distribution column required")
                })?
                .as_str()?
                .to_string();
            let colocate_with = match args.get(2) {
                Some(Datum::Text(s)) if !s.is_empty() && &**s != "default" => Some(&**s),
                _ => None,
            };
            crate::table_mgmt::create_distributed_table(
                &cluster,
                session,
                &table,
                &column,
                colocate_with,
            )?;
            Ok(Datum::Null)
        });
        let weak3 = weak.clone();
        engine.register_udf("create_reference_table", move |session, args| {
            let cluster = weak3.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let table = args
                .first()
                .ok_or_else(|| PgError::new(ErrorCode::InvalidParameter, "table name required"))?
                .as_str()?
                .to_string();
            crate::table_mgmt::create_reference_table(&cluster, session, &table)?;
            Ok(Datum::Null)
        });
        let weak4 = weak.clone();
        engine.register_udf("citus_add_node", move |_session, _args| {
            let cluster = weak4.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let id = cluster.add_worker()?;
            Ok(Datum::Int(id.0 as i64))
        });
        let weak5 = weak.clone();
        engine.register_udf("rebalance_table_shards", move |_session, _args| {
            let cluster = weak5.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let reports = crate::rebalancer::rebalance(
                &cluster,
                &crate::rebalancer::RebalanceStrategy::ByShardCount,
            )?;
            let rows_moved: u64 = reports.iter().map(|r| r.rows_moved).sum();
            let catchup_rows: u64 = reports.iter().map(|r| r.catchup_rows).sum();
            // per-move detail is queryable from citus_rebalance_status
            Ok(Datum::text(format!(
                "moves={} rows_moved={rows_moved} catchup_rows={catchup_rows}",
                reports.len()
            )))
        });
        let weak_r = weak.clone();
        engine.register_udf("citrus_refresh_rollup", move |_session, args| {
            let cluster = weak_r.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            match args.first() {
                Some(Datum::Text(name)) => crate::rollup::refresh(&cluster, name)?,
                _ => crate::rollup::refresh_all(&cluster)?,
            }
            Ok(Datum::Null)
        });
        let weak6 = weak.clone();
        engine.register_udf("citus_create_restore_point", move |_session, args| {
            let cluster = weak6.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let name = args
                .first()
                .ok_or_else(|| PgError::new(ErrorCode::InvalidParameter, "name required"))?
                .as_str()?
                .to_string();
            crate::backup::create_restore_point(&cluster, &name)?;
            Ok(Datum::Null)
        });
    }

    pub fn cluster(&self) -> PgResult<Arc<Cluster>> {
        self.cluster
            .upgrade()
            .ok_or_else(|| PgError::internal("cluster has been dropped"))
    }

    // ---------------- session state bookkeeping ----------------

    fn take_state(&self, sid: u64) -> SessionState {
        self.sessions.lock().remove(&sid).unwrap_or_default()
    }

    fn put_state(&self, sid: u64, state: SessionState) {
        self.sessions.lock().insert(sid, state);
    }

    /// Distributed cost of the session's last statement (consumed).
    pub fn take_last_dist_cost(&self, sid: u64) -> Option<DistCost> {
        self.sessions.lock().get_mut(&sid).and_then(|s| s.last_dist.take())
    }

    /// Record a cost computed outside the planner-hook path (procedures).
    pub fn record_external_cost(&self, sid: u64, cost: DistCost) {
        self.sessions.lock().entry(sid).or_default().last_dist = Some(cost);
    }

    /// Start accumulating all statement costs for `sid` (procedure bodies).
    pub fn begin_cost_capture(&self, sid: u64) {
        self.sessions.lock().entry(sid).or_default().capture = Some(DistCost::default());
    }

    /// Stop capturing and return the accumulated cost.
    pub fn end_cost_capture(&self, sid: u64) -> DistCost {
        self.sessions
            .lock()
            .get_mut(&sid)
            .and_then(|s| s.capture.take())
            .unwrap_or_default()
    }

    /// INSERT..SELECT strategy of the session's last statement.
    pub fn last_insert_select_strategy(
        &self,
        sid: u64,
    ) -> Option<crate::insert_select::InsertSelectStrategy> {
        self.sessions.lock().get(&sid).and_then(|s| s.last_insert_select)
    }

    /// In-flight distributed transaction numbers from this node.
    pub fn active_txn_numbers(&self) -> std::collections::HashSet<u64> {
        self.active_txn_numbers.lock().clone()
    }

    // ---------------- distributed execution ----------------

    /// Plan + execute a statement. `Ok(None)` means "not distributed".
    fn plan_and_execute(
        &self,
        session: &mut Session,
        stmt: &Statement,
        state: &mut SessionState,
    ) -> PgResult<Option<QueryResult>> {
        let cluster = self.cluster()?;
        // INSERT .. SELECT over citrus tables has its own three strategies
        if let Statement::Insert(ins) = stmt {
            if let sqlparse::ast::InsertSource::Query(_) = &ins.source {
                let meta = cluster.metadata.read_recursive();
                if meta.is_citrus_table(&ins.table) {
                    drop(meta);
                    return crate::insert_select::execute(self, &cluster, session, state, ins)
                        .map(Some);
                }
            }
        }
        let mut planning_ms = DIST_PLAN_MS;
        state.last_cache_hit = false;
        state.last_retries = 0;
        let shape = planner::cache::shape_hash(stmt);
        let plan = {
            let meta = cluster.metadata.read_recursive();
            // plan-cache fast path: a known statement shape re-runs only its
            // single-shard tier (shard pruning + rewrite), skipping table
            // classification and the tier cascade (§3.5.1)
            let cache_key = if cluster.config.plan_cache && cacheable_shape(stmt) {
                Some(shape)
            } else {
                None
            };
            let mut cached = None;
            if let Some(key) = cache_key {
                if let Some(tier) = self.plan_cache.lookup(key, meta.generation(), |t| Some(*t)) {
                    cached = match tier {
                        planner::cache::CachedTier::FastPath => {
                            planner::try_fast_path(stmt, &meta)?
                        }
                        planner::cache::CachedTier::Router => planner::try_router(stmt, &meta)?,
                    };
                    if cached.is_some() {
                        planning_ms = CACHED_PLAN_MS;
                        state.last_cache_hit = true;
                    }
                }
            }
            match cached {
                Some(p) => Some(p),
                None => {
                    let mut env = PlannerEnv { ext: self, session, state };
                    let p = planner::plan_statement(stmt, &meta, self.node, &mut env)?;
                    if let (Some(key), Some(pl)) = (cache_key, p.as_ref()) {
                        if let Some(tier) = cacheable_tier(pl) {
                            self.plan_cache.insert(key, meta.generation(), tier);
                        }
                    }
                    p
                }
            }
        };
        let Some(plan) = plan else { return Ok(None) };
        // distributed snapshot isolation: pin a commit-clock token at the
        // first distributed read; it stays stable for the rest of an
        // explicit transaction (writes keep latest-snapshot semantics)
        if cluster.config.snapshot_isolation && !plan.is_write && state.snapshot_token.is_none() {
            state.snapshot_token = Some(cluster.commit_clock.now());
        }
        // distributed planning is coordinator CPU the statement serially
        // waits on; a cache hit pays only the pruning recomputation
        state.stmt_cost.add_node(self.node, &SimCost { cpu_ms: planning_ms, ..SimCost::ZERO });
        state.stmt_cost.elapsed_ms += planning_ms;
        if let Some(root) = &mut state.trace {
            root.set("tier", plan.kind.as_str());
            root.set("cache", if state.last_cache_hit { "hit" } else { "miss" });
            root.set("planning_ms", crate::trace::fmt_ms(planning_ms));
            root.set("tasks", plan.tasks.len());
            if !plan.prep.is_empty() {
                root.set("subplans", plan.prep.len());
            }
        }
        let cache_hit = state.last_cache_hit;
        let result = self.execute_plan_with_txn(session, state, &plan);
        if !session.in_transaction() {
            state.snapshot_token = None;
        }
        if result.is_ok() {
            // planner bookkeeping runs on *both* the cached and the planned
            // path — a cache hit still executes through its tier, and must
            // count toward citus_stat_statements tier totals
            cluster.metrics.record_statement(
                shape,
                || sqlparse::deparse(stmt),
                plan.kind,
                cache_hit,
                state.stmt_cost.elapsed_ms,
                state.last_retries,
            );
        }
        result.map(Some)
    }

    /// Run one distributed statement of `session` with the bookkeeping every
    /// statement shares: a fresh cost record, a trace root when `trace`, and
    /// a procedure body's cost capture. `Ok(None)`: the statement was not
    /// distributed after all.
    fn statement(
        &self,
        cluster: &Arc<Cluster>,
        session: &mut Session,
        trace: bool,
        sql: impl FnOnce() -> String,
        run: impl FnOnce(&mut Session, &mut SessionState) -> PgResult<Option<QueryResult>>,
    ) -> PgResult<Option<QueryResult>> {
        let sid = session.id();
        let mut state = self.take_state(sid);
        state.stmt_cost = DistCost::default();
        if trace {
            state.trace = Some(crate::trace::Span::new("statement").with("sql", sql()));
        }
        let result = run(session, &mut state);
        let stmt_cost = std::mem::take(&mut state.stmt_cost);
        if let Some(cap) = &mut state.capture {
            cap.add(&stmt_cost);
        }
        if let Some(mut root) = state.trace.take() {
            match &result {
                // not distributed after all: nothing worth recording
                Ok(None) => {}
                outcome => {
                    match outcome {
                        Ok(Some(QueryResult::Rows { rows, .. })) => root.set("rows", rows.len()),
                        Ok(Some(QueryResult::Affected(n))) => root.set("affected", n),
                        Err(e) => root.set("error", format!("{:?}", e.code)),
                        _ => {}
                    }
                    root.set("elapsed_ms", crate::trace::fmt_ms(stmt_cost.elapsed_ms));
                    state.last_trace = Some(root.clone());
                    cluster.tracer.record_statement(root);
                }
            }
        }
        state.last_dist = Some(stmt_cost);
        self.put_state(sid, state);
        result
    }

    /// Distributed COPY into `table` (§3.8): one write statement of
    /// `session`, run inside its transaction. Returns the rows loaded.
    pub(crate) fn copy(
        &self,
        session: &mut Session,
        table: &str,
        columns: &[String],
        rows: Vec<Row>,
    ) -> PgResult<u64> {
        let cluster = self.cluster()?;
        if !cluster.metadata.read_recursive().is_citrus_table(table) {
            // plain local table: the engine's own COPY
            return session.copy_rows(table, columns, rows);
        }
        let sql = || sqlparse::deparse(&crate::copy::statement(table, columns));
        let loaded = session.run_as_statement(|session| {
            self.statement(&cluster, session, cluster.tracer.enabled(), sql, |session, state| {
                crate::copy::execute(self, session, state, table, columns, rows).map(Some)
            })
        })?;
        Ok(loaded.map_or(0, |r| r.affected()))
    }

    /// Plan-cache hit/miss counters and size for this node's extension.
    pub fn plan_cache_stats(&self) -> planner::cache::PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Execute a plan. In autocommit mode a write of more than one task runs
    /// in an implicit transaction, so it commits all or nothing (through 2PC
    /// when it wrote on more than one node).
    pub fn execute_plan_with_txn(
        &self,
        session: &mut Session,
        state: &mut SessionState,
        plan: &DistPlan,
    ) -> PgResult<QueryResult> {
        let cluster = self.cluster()?;
        let autocommit_wrap = !session.in_transaction() && plan.is_write && plan.tasks.len() > 1;
        if autocommit_wrap {
            session.ensure_xid()?;
        }
        let result = executor::execute_plan(&cluster, session, state, plan, self.node);
        state.last_planner = Some(plan.kind);
        match result {
            Ok(out) => {
                if autocommit_wrap {
                    // the commit path runs the 2PC callbacks, which need the
                    // session state to be visible in the map
                    self.put_state(session.id(), std::mem::take(state));
                    let commit = session.commit_current();
                    *state = self.take_state(session.id());
                    commit?;
                }
                if plan.is_write {
                    Ok(QueryResult::Affected(out.affected))
                } else {
                    Ok(QueryResult::Rows { columns: out.columns, rows: out.rows })
                }
            }
            Err(e) => {
                if autocommit_wrap {
                    self.put_state(session.id(), std::mem::take(state));
                    session.rollback_current();
                    *state = self.take_state(session.id());
                }
                Err(e)
            }
        }
    }

    /// Execute a SELECT through the full distributed pipeline, returning its
    /// rows (subplans / intermediate results / INSERT..SELECT source).
    pub fn run_select_distributed(
        &self,
        session: &mut Session,
        sel: &sqlparse::ast::Select,
        state: &mut SessionState,
    ) -> PgResult<Vec<Row>> {
        let stmt = Statement::Select(Box::new(sel.clone()));
        // nest the inner planning pass under its own `subplan` span so it
        // doesn't append a second set of planner fields to the parent root
        let saved = state.trace.take();
        if saved.is_some() {
            state.trace = Some(crate::trace::Span::new("subplan"));
        }
        let result = match self.plan_and_execute(session, &stmt, state) {
            Ok(Some(r)) => Ok(r.into_rows()),
            // not distributed: run locally (reference/local data)
            Ok(None) => session.execute_local(&stmt).map(|r| r.into_rows()),
            Err(e) => Err(e),
        };
        if let Some(mut root) = saved {
            if let Some(sub) = state.trace.take() {
                if sub.field("tier").is_some() || !sub.children().is_empty() {
                    root.child(sub);
                }
            }
            state.trace = Some(root);
        }
        result
    }

    /// The planner tier used by the session's last distributed statement.
    pub fn last_planner_kind(&self, sid: u64) -> Option<PlannerKind> {
        self.sessions.lock().get(&sid).and_then(|s| s.last_planner)
    }

    /// Completed trace of the session's last distributed statement (tracing
    /// must be enabled on the cluster, or the statement run via
    /// `EXPLAIN ANALYZE`).
    pub fn last_trace(&self, sid: u64) -> Option<crate::trace::Span> {
        self.sessions.lock().get(&sid).and_then(|s| s.last_trace.clone())
    }

    // ---------------- 2PC ----------------

    fn do_pre_commit(&self, session: &mut Session, state: &mut SessionState) -> PgResult<()> {
        let cluster = self.cluster()?;
        state.commit_cost = DistCost::default();
        // the commit protocol is a pipeline sync point: whatever exchange the
        // transaction left open is closed by the commit round trips below
        state.pipeline.sync();
        let (write_keys, read_keys) = state.txn_conn_keys();
        // first-phase round: read-only COMMITs, then the delegated COMMIT or
        // every PREPARE TRANSACTION, all on the wire before any reply is
        // awaited
        let mut round = WireRound::new();
        // close read-only remote transactions
        let mut remote_reads = false;
        for key in read_keys {
            remote_reads |= key.0 != self.node;
            if let Ok(c) = state.send(&mut round, key, &Statement::Commit) {
                state.commit_cost.add_node(key.0, &c);
            }
        }
        if write_keys.is_empty() {
            // remote read-only participants close with one fanned-out COMMIT
            // round trip; an all-local transaction never touches the wire and
            // its commit cost books through the session itself
            if remote_reads {
                state.commit_cost.net_ms += NET_RTT_MS;
                state.commit_cost.elapsed_ms += NET_RTT_MS;
            }
            return Ok(());
        }
        // commit-protocol tracing: an explicit COMMIT never passes the
        // planner hook, so it gets its own root span; an autocommit wrap
        // appends the protocol's phases to the in-flight statement span
        if cluster.tracer.enabled() && state.trace.is_none() {
            state.trace = Some(crate::trace::Span::new("commit"));
        }
        if write_keys.len() == 1 && !state.local_writes {
            // single-node delegation (§3.7.1): plain COMMIT on that worker.
            // A transaction that also wrote through local execution cannot
            // delegate — its local half commits with the session, so the
            // remote half needs a prepared transaction to stay atomic.
            let node = write_keys[0].0;
            let c = state.send(&mut round, write_keys[0], &Statement::Commit)?;
            cluster.metrics.delegated_commits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Some(root) = &mut state.trace {
                root.child(
                    crate::trace::Span::new("commit.delegated")
                        .with("node", executor::node_label(&cluster, node)),
                );
            }
            let drtt = if node == self.node { 0.0 } else { NET_RTT_MS };
            state.commit_cost.add_node(node, &c);
            state.commit_cost.net_ms += drtt;
            state.commit_cost.elapsed_ms += drtt + c.total_ms();
            return Ok(());
        }
        // two-phase commit (§3.7.2)
        let d = state.dist_txn.ok_or_else(|| {
            PgError::internal("multi-node write without a distributed transaction id")
        })?;
        self.active_txn_numbers.lock().insert(d.number);
        let mut prepared: Vec<(executor::ConnKey, String)> = Vec::new();
        let mut failure: Option<PgError> = None;
        // abort round, used only on failure: ROLLBACK for the participant
        // that refused, ROLLBACK PREPARED for those already prepared
        let mut abort_round = WireRound::new();
        for (i, key) in write_keys.iter().enumerate() {
            let gid = format_gid(d.origin_node, d.number, i);
            match state.send(&mut round, *key, &Statement::PrepareTransaction(gid.clone())) {
                Ok(c) => {
                    state.commit_cost.add_node(key.0, &c);
                    if let Some(root) = &mut state.trace {
                        root.child(
                            crate::trace::Span::new("2pc.prepare")
                                .with("node", executor::node_label(&cluster, key.0))
                                .with("gid", &gid),
                        );
                    }
                    prepared.push((*key, gid));
                }
                Err(e) => {
                    // the remote transaction may still be open: roll it back
                    // now so the pooled connection is reusable
                    let _ = state.send(&mut abort_round, *key, &Statement::Rollback);
                    failure = Some(e);
                    break;
                }
            }
        }
        // prepare round trips fan out in parallel: the round is one RTT of
        // latency, followed by the durable commit record
        state.commit_cost.net_ms += NET_RTT_MS;
        state.commit_cost.elapsed_ms += NET_RTT_MS;
        if let Some(e) = failure {
            // roll back everything: prepared ones via ROLLBACK PREPARED, the
            // rest via plain ROLLBACK (post_abort will catch stragglers)
            for (key, gid) in prepared {
                let _ = state.send(&mut abort_round, key, &Statement::RollbackPrepared(gid));
            }
            self.active_txn_numbers.lock().remove(&d.number);
            return Err(e);
        }
        // one durable commit record for the whole transaction, written
        // inside the committing local transaction and deleted only by
        // recovery; the restore-point lock serialises this against
        // consistent backups (§3.9)
        {
            let _guard = cluster.commit_record_lock.lock();
            session.execute_local(&commit_record_insert(d.number))?;
        }
        let local = session.last_cost();
        state.commit_cost.add_node(self.node, &local);
        state.commit_cost.elapsed_ms += local.total_ms();
        if let Some(root) = &mut state.trace {
            root.child(crate::trace::Span::new("2pc.record").with("number", d.number));
        }
        if cluster.config.snapshot_isolation {
            // distributed snapshot ordering: draw ONE commit timestamp for
            // the whole transaction and publish it for every prepared gid
            // before any COMMIT PREPARED goes out. A token >= this timestamp
            // then sees the commit on every node at once — still-prepared
            // participants through the registry, applied ones through their
            // recorded commit_ts (same value, consumed by finish_prepared).
            let commit_ts = cluster.commit_clock.next();
            cluster
                .commit_clock
                .publish_all(prepared.iter().map(|(_, gid)| gid.as_str()), commit_ts);
            // the session's own local half (local execution) must commit at
            // the same instant, not at a later fresh draw
            if let Some(xid) = session.current_xid() {
                session.engine().txns.stage_commit_ts(xid, commit_ts);
            }
        }
        cluster.metrics.twopc_commits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        state.pending_prepared =
            prepared.into_iter().map(|((node, _), gid)| (node, gid)).collect();
        Ok(())
    }

    fn do_post_commit(&self, state: &mut SessionState) {
        let cluster = match self.cluster() {
            Ok(c) => c,
            Err(_) => return,
        };
        // second phase: COMMIT PREPARED, best effort (recovery finishes any
        // that fail, §3.7.2)
        let pending = std::mem::take(&mut state.pending_prepared);
        // second-phase round: every COMMIT PREPARED goes out before any
        // reply is awaited, so a remote one costs the commit one RTT of
        // latency (a delegated or read-only COMMIT paid its only round in
        // pre-commit)
        if pending.iter().any(|(node, _)| *node != self.node) {
            state.commit_cost.net_ms += NET_RTT_MS;
            state.commit_cost.elapsed_ms += NET_RTT_MS;
        }
        let mut round = WireRound::new();
        for (node, gid) in pending {
            let node_name = executor::node_label(&cluster, node);
            let commit = Statement::CommitPrepared(gid.clone());
            let committed = match state.conns.keys().find(|(n, _)| *n == node).copied() {
                Some(key) => state.send(&mut round, key, &commit).is_ok(),
                None => cluster
                    .connect(node)
                    .and_then(|mut conn| conn.execute_in(&mut round, &commit))
                    .is_ok(),
            };
            if let Some(root) = &mut state.trace {
                root.child(
                    crate::trace::Span::new("2pc.commit_prepared")
                        .with("node", node_name)
                        .with("gid", &gid)
                        .with("ok", committed),
                );
            }
        }
        self.end_transaction(&cluster, state);
        // publish the commit protocol's cost: explicit COMMIT statements
        // never pass the planner hook, so this is their only cost channel;
        // autocommit wraps fold it into the statement cost instead
        let ccost = std::mem::take(&mut state.commit_cost);
        state.stmt_cost.add(&ccost);
        finish_commit_trace(&cluster, state, "elapsed_ms", crate::trace::fmt_ms(ccost.elapsed_ms));
        // an all-local commit has no distributed cost; publishing None lets
        // ClientSession fall back to the session's own commit cost, matching
        // single-node accounting (the MX fast path depends on this)
        let distributed =
            ccost.net_ms > 0.0 || ccost.elapsed_ms > 0.0 || !ccost.per_node.is_empty();
        state.last_dist = if distributed { Some(ccost) } else { None };
    }

    fn do_post_abort(&self, state: &mut SessionState) {
        // abort any open remote transactions
        let keys: Vec<executor::ConnKey> = state
            .conns
            .iter()
            .filter(|(_, c)| c.in_txn_block)
            .map(|(k, _)| *k)
            .collect();
        let mut round = WireRound::new();
        for key in keys {
            let _ = state.send(&mut round, key, &Statement::Rollback);
        }
        let Ok(cluster) = self.cluster() else { return };
        self.end_transaction(&cluster, state);
        finish_commit_trace(&cluster, state, "aborted", true.to_string());
    }

    /// What every transaction end resets, committed or aborted: the
    /// transaction's distributed, connection, snapshot and temp-table state.
    fn end_transaction(&self, cluster: &Arc<Cluster>, state: &mut SessionState) {
        if let Some(d) = state.dist_txn.take() {
            self.active_txn_numbers.lock().remove(&d.number);
        }
        state.pending_prepared.clear();
        state.affinity.clear();
        state.local_writes = false;
        state.snapshot_token = None;
        state.pipeline.sync();
        let _ = executor::cleanup_temp_tables(cluster, state);
    }
}

/// A commit-rooted trace (explicit COMMIT or ROLLBACK) finishes at the
/// transaction's end with one closing field; a statement-rooted one is
/// finished by the planner hook.
fn finish_commit_trace(c: &Cluster, state: &mut SessionState, key: &'static str, value: String) {
    if let Some(mut root) = state.trace.take_if(|r| r.label() == "commit") {
        root.set(key, value);
        state.last_trace = Some(root.clone());
        c.tracer.record_statement(root);
    }
}

/// `INSERT INTO pg_dist_transaction (number) VALUES (<number>)`, built as
/// the AST the parser would produce: one per distributed transaction.
fn commit_record_insert(number: u64) -> Statement {
    Statement::Insert(Box::new(Insert {
        table: COMMIT_RECORDS_TABLE.to_string(),
        columns: vec!["number".to_string()],
        source: InsertSource::Values(vec![vec![Expr::int(number as i64)]]),
        on_conflict: None,
    }))
}

/// Statement kinds worth hashing for the plan cache: CRUD only (DDL and
/// utility statements are rare and metadata-mutating).
fn cacheable_shape(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Select(_) | Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
    )
}

/// Which tier to record for a freshly-built plan, if any. Only single-task
/// shard-group plans are cached: the tier re-run on a hit recomputes the
/// shard bucket from the statement's constants, which is exactly the
/// per-execution part. Reference-table plans (group `None`) depend on
/// placement sets, and subplan/prep plans carry per-execution state — both
/// replan fully every time.
fn cacheable_tier(plan: &DistPlan) -> Option<planner::cache::CachedTier> {
    if plan.used_subplans || !plan.prep.is_empty() {
        return None;
    }
    match plan.kind {
        planner::PlannerKind::FastPath => Some(planner::cache::CachedTier::FastPath),
        planner::PlannerKind::Router
            if plan.tasks.len() == 1 && plan.tasks[0].group.is_some() =>
        {
            Some(planner::cache::CachedTier::Router)
        }
        _ => None,
    }
}

/// The gid of participant `i` of distributed transaction `number` begun on
/// node `origin`: `citrus_{origin}_{number}_{i}`.
fn format_gid(origin: u32, number: u64, i: usize) -> String {
    format!("citrus_{origin}_{number}_{i}")
}

/// The origin node and transaction number of a gid [`format_gid`] made;
/// `None` for any other gid.
pub fn parse_gid(gid: &str) -> Option<(u32, u64)> {
    let mut parts = gid.strip_prefix("citrus_")?.split('_');
    let origin = parts.next()?.parse().ok()?;
    let number = parts.next()?.parse().ok()?;
    let _: usize = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some((origin, number))
}

impl Extension for CitrusExtension {
    fn planner_hook(
        &self,
        session: &mut Session,
        stmt: &Statement,
    ) -> Option<PgResult<QueryResult>> {
        let cluster = self.cluster().ok()?;
        // stat relations: refresh their local backing tables, then let the
        // local engine run the query with full SQL power (filters, joins,
        // aggregates over the telemetry)
        {
            let tables = planner::rewrite::collect_tables(stmt);
            if matches!(stmt, Statement::Select(_))
                && tables.iter().any(|t| {
                    t == STAT_STATEMENTS_TABLE
                        || t == STAT_ACTIVITY_TABLE
                        || t == REBALANCE_STATUS_TABLE
                })
            {
                if let Err(e) = self.refresh_stat_relations(&cluster, &tables) {
                    return Some(Err(e));
                }
                return None;
            }
            // staleness-bounded rollup reads: a SELECT touching a registered
            // rollup drains its changefeed first (no-op when none exist, and
            // refresh-internal statements skip via try_lock)
            if self.node == NodeId(0) && matches!(stmt, Statement::Select(_)) {
                crate::rollup::maybe_refresh_on_read(&cluster, &tables);
            }
            // cheap pre-filter: reference to at least one citrus table?
            let meta = cluster.metadata.read_recursive();
            if !tables.iter().any(|t| meta.is_citrus_table(t)) {
                return None;
            }
        }
        let sql = || sqlparse::deparse(stmt);
        self.statement(&cluster, session, cluster.tracer.enabled(), sql, |session, state| {
            self.plan_and_execute(session, stmt, state)
        })
        .transpose()
    }

    fn utility_hook(
        &self,
        session: &mut Session,
        stmt: &Statement,
    ) -> Option<PgResult<QueryResult>> {
        let cluster = self.cluster().ok()?;
        let sid = session.id();
        match stmt {
            Statement::CreateIndex(_)
            | Statement::DropTable { .. }
            | Statement::Truncate { .. }
            | Statement::Vacuum { .. } => {
                let handled = {
                    let meta = cluster.metadata.read_recursive();
                    crate::ddl::touches_citrus(stmt, &meta)
                };
                if !handled {
                    return None;
                }
                let mut state = self.take_state(sid);
                let r = crate::ddl::propagate(self, &cluster, session, &mut state, stmt);
                self.put_state(sid, state);
                Some(r)
            }
            Statement::Explain { options, inner } => {
                let is_citrus = {
                    let meta = cluster.metadata.read_recursive();
                    planner::rewrite::collect_tables(inner)
                        .iter()
                        .any(|t| meta.is_citrus_table(t))
                };
                if !is_citrus {
                    if options.distributed {
                        return Some(Err(PgError::unsupported(
                            "EXPLAIN (DISTRIBUTED) on a statement that touches no distributed table",
                        )));
                    }
                    return None;
                }
                if options.analyze {
                    return Some(self.explain_analyze(&cluster, session, inner));
                }
                let mut state = self.take_state(sid);
                let r = self.explain(session, inner, &mut state);
                self.put_state(sid, state);
                Some(r)
            }
            Statement::CreateRollup(cr) => {
                if self.node != NodeId(0) {
                    return Some(Err(PgError::unsupported(
                        "CREATE ROLLUP must run on the coordinator",
                    )));
                }
                Some(crate::rollup::create(&cluster, cr).map(|_| QueryResult::Empty))
            }
            Statement::DropRollup { name, if_exists } => {
                if self.node != NodeId(0) {
                    return Some(Err(PgError::unsupported(
                        "DROP ROLLUP must run on the coordinator",
                    )));
                }
                Some(crate::rollup::drop_rollup(&cluster, name, *if_exists).map(|_| QueryResult::Empty))
            }
            _ => None,
        }
    }

    fn pre_commit(&self, session: &mut Session) -> PgResult<()> {
        let sid = session.id();
        let mut state = self.take_state(sid);
        let r = self.do_pre_commit(session, &mut state);
        self.put_state(sid, state);
        r
    }

    fn post_commit(&self, session: &mut Session) {
        let sid = session.id();
        let mut state = self.take_state(sid);
        self.do_post_commit(&mut state);
        self.put_state(sid, state);
    }

    fn post_abort(&self, session: &mut Session) {
        let sid = session.id();
        let mut state = self.take_state(sid);
        self.do_post_abort(&mut state);
        self.put_state(sid, state);
    }

    fn session_closed(&self, sid: u64) {
        // the `sessions` lock is released before the state drops: closing a
        // pooled loopback connection closes a session of this same engine,
        // which re-enters here
        let state = self.sessions.lock().remove(&sid);
        drop(state);
    }
}

impl CitrusExtension {
    /// Distributed EXPLAIN (§3.5): renders the plan — tier, shard pruning,
    /// task list — without executing.
    fn explain(
        &self,
        session: &mut Session,
        inner: &Statement,
        state: &mut SessionState,
    ) -> PgResult<QueryResult> {
        let cluster = self.cluster()?;
        let plan = {
            let meta = cluster.metadata.read_recursive();
            let mut env = PlannerEnv { ext: self, session, state };
            planner::plan_statement(inner, &meta, self.node, &mut env)?
        };
        let Some(plan) = plan else {
            return Err(PgError::internal("explain on non-distributed statement"));
        };
        let lines = render_distributed_plan(&cluster, inner, &plan)?;
        Ok(plan_rows(lines))
    }

    /// `EXPLAIN ANALYZE`: execute through the full distributed pipeline with
    /// span tracing forced on for this statement, then render the trace.
    fn explain_analyze(
        &self,
        cluster: &Arc<Cluster>,
        session: &mut Session,
        inner: &Statement,
    ) -> PgResult<QueryResult> {
        let sql = || sqlparse::deparse(inner);
        let ran = self.statement(cluster, session, true, sql, |session, state| {
            self.plan_and_execute(session, inner, state)
        })?;
        if ran.is_none() {
            return Err(PgError::internal("explain on non-distributed statement"));
        }
        let root = self
            .last_trace(session.id())
            .ok_or_else(|| PgError::internal("trace vanished during analyze"))?;
        Ok(plan_rows(root.render().lines().map(str::to_string).collect()))
    }

    /// Rebuild the stat relations' backing tables from the live registries.
    /// Runs on a throwaway engine session with hooks skipped, so a client
    /// SELECT over them never recurses into the planner hook.
    fn refresh_stat_relations(
        &self,
        cluster: &Arc<Cluster>,
        tables: &[String],
    ) -> PgResult<()> {
        let engine = cluster.node(self.node)?.engine();
        let mut s = engine.session()?;
        if tables.iter().any(|t| t == STAT_STATEMENTS_TABLE) {
            s.execute_local(&sqlparse::parse(&format!(
                "DELETE FROM {STAT_STATEMENTS_TABLE}"
            ))?)?;
            for (key, e) in cluster.metrics.statement_entries() {
                s.execute_local(&sqlparse::parse(&format!(
                    "INSERT INTO {STAT_STATEMENTS_TABLE} \
                     (queryid, query, tier, calls, total_ms, cache_hits, retries) \
                     VALUES ('{key:016x}', {}, '{}', {}, {:.3}, {}, {})",
                    sqlparse::quote_literal(&e.query),
                    e.tier.as_str(),
                    e.calls,
                    e.total_ms,
                    e.cache_hits,
                    e.retries,
                ))?)?;
            }
        }
        if tables.iter().any(|t| t == STAT_ACTIVITY_TABLE) {
            s.execute_local(&sqlparse::parse(&format!(
                "DELETE FROM {STAT_ACTIVITY_TABLE}"
            ))?)?;
            let mut rows: Vec<(u64, Option<PlannerKind>, f64, Option<u64>)> = self
                .sessions
                .lock()
                .iter()
                .map(|(sid, st)| {
                    (
                        *sid,
                        st.last_planner,
                        st.last_dist.as_ref().map(|d| d.elapsed_ms).unwrap_or(0.0),
                        st.dist_txn.map(|d| d.number),
                    )
                })
                .collect();
            rows.sort_by_key(|r| r.0);
            for (pid, tier, elapsed, txn) in rows {
                let tier = tier.map(PlannerKind::as_str).unwrap_or("-");
                let txn = txn.map(|n| n.to_string()).unwrap_or_else(|| "NULL".to_string());
                s.execute_local(&sqlparse::parse(&format!(
                    "INSERT INTO {STAT_ACTIVITY_TABLE} (pid, tier, elapsed_ms, txn) \
                     VALUES ({pid}, '{tier}', {elapsed:.3}, {txn})"
                ))?)?;
            }
        }
        if tables.iter().any(|t| t == REBALANCE_STATUS_TABLE) {
            s.execute_local(&sqlparse::parse(&format!(
                "DELETE FROM {REBALANCE_STATUS_TABLE}"
            ))?)?;
            for rec in crate::movejournal::all(cluster)? {
                s.execute_local(&sqlparse::parse(&format!(
                    "INSERT INTO {REBALANCE_STATUS_TABLE} \
                     (move_id, table_name, bucket, from_node, to_node, phase, \
                      rows_moved, catchup_rows) \
                     VALUES ({}, {}, {}, {}, {}, '{}', {}, {})",
                    rec.move_id,
                    sqlparse::quote_literal(&rec.anchor_table),
                    rec.bucket,
                    rec.from.0,
                    rec.to.0,
                    rec.phase.as_str(),
                    rec.rows_moved,
                    rec.catchup_rows,
                ))?)?;
            }
        }
        Ok(())
    }
}

/// Render the distributed plan the way `EXPLAIN (DISTRIBUTED)` shows it.
fn render_distributed_plan(
    cluster: &Arc<Cluster>,
    inner: &Statement,
    plan: &DistPlan,
) -> PgResult<Vec<String>> {
    let meta = cluster.metadata.read_recursive();
    // candidate shards of every referenced distributed table vs. the shards
    // the plan actually touches: the difference is what pruning removed
    let mut tables = planner::rewrite::collect_tables(inner);
    tables.sort();
    tables.dedup();
    let total: usize = tables
        .iter()
        .filter_map(|t| meta.table(t))
        .map(|dt| dt.shards.len())
        .sum();
    let mut touched: Vec<_> = plan.tasks.iter().flat_map(|t| t.shards.iter().copied()).collect();
    touched.sort();
    touched.dedup();
    let mut lines = vec![
        format!("Custom Scan (Citrus Adaptive) via {}", plan.kind.as_str()),
        format!("  Task Count: {}", plan.tasks.len()),
        format!(
            "  Shards: {} of {} ({} pruned)",
            touched.len(),
            total,
            total.saturating_sub(touched.len())
        ),
    ];
    if tables.iter().filter_map(|t| meta.table(t)).any(|dt| dt.columnar) {
        lines.push(
            "  Vectorized: columnar shards run batched scan\u{2192}filter\u{2192}aggregate kernels"
                .to_string(),
        );
    }
    match &plan.merge {
        crate::planner::Merge::GroupAgg(_) => {
            lines.push("  Merge: partial aggregation on coordinator".to_string())
        }
        crate::planner::Merge::Concat { sort, .. } if !sort.is_empty() => {
            lines.push("  Merge: re-sort on coordinator".to_string())
        }
        _ => {}
    }
    if !plan.prep.is_empty() {
        lines.push(format!("  Subplans: {} (intermediate results)", plan.prep.len()));
    }
    lines.push("  Tasks Shown: All".to_string());
    for task in &plan.tasks {
        let node = cluster.node(task.node)?.name.clone();
        let shards: Vec<String> = task.shards.iter().map(|s| format!("s{}", s.0)).collect();
        lines.push(format!("  ->  Task on {node} (shards {})", shards.join("+")));
        lines.push(format!("        {}", sqlparse::deparse(&task.stmt)));
    }
    Ok(lines)
}

/// Wrap EXPLAIN output lines as a single-column result.
fn plan_rows(lines: Vec<String>) -> QueryResult {
    QueryResult::Rows {
        columns: vec!["QUERY PLAN".to_string()],
        rows: lines.into_iter().map(|l| vec![Datum::text(l)]).collect(),
    }
}

/// Planner environment: gives the planner subplan execution and join-order
/// statistics over the live cluster.
struct PlannerEnv<'a> {
    ext: &'a CitrusExtension,
    session: &'a mut Session,
    state: &'a mut SessionState,
}

impl SubplanExecutor for PlannerEnv<'_> {
    fn run_distributed_subquery(
        &mut self,
        sel: &sqlparse::ast::Select,
    ) -> PgResult<Vec<Row>> {
        self.ext.run_select_distributed(self.session, sel, self.state)
    }

    fn as_join_order_env(
        &mut self,
    ) -> Option<&mut dyn crate::planner::join_order::JoinOrderEnv> {
        Some(self)
    }
}

impl crate::planner::join_order::JoinOrderEnv for PlannerEnv<'_> {
    fn table_row_count(&mut self, table: &str) -> PgResult<u64> {
        let cluster = self.ext.cluster()?;
        let meta = cluster.metadata.read_recursive();
        let dt = meta.require_table(table)?;
        let mut total = 0u64;
        for sid in &dt.shards {
            let shard = meta.shard(*sid)?;
            let Some(&node) = shard.placements.first() else { continue };
            let engine = cluster.node(node)?.engine();
            if let Ok(m) = engine.table_meta(&shard.physical_name()) {
                if let Ok(store) = engine.store(m.id) {
                    total += store.live_estimate();
                }
            }
        }
        Ok(total)
    }

    fn table_column_names(&mut self, table: &str) -> PgResult<Vec<String>> {
        // the shell table on the coordinating node keeps the schema
        let cluster = self.ext.cluster()?;
        let engine = cluster.node(self.ext.node)?.engine();
        Ok(engine.table_meta(table)?.column_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_record_statements_are_what_the_parser_builds() {
        let gid = &format_gid(0, 7, 1);
        assert_eq!(gid, "citrus_0_7_1");
        assert_eq!(parse_gid(gid), Some((0, 7)));
        // gids this extension did not make are not parsed
        assert_eq!(parse_gid("citrus_x_5_0"), None);
        assert_eq!(parse_gid("g1"), None);
        let insert = format!("INSERT INTO {COMMIT_RECORDS_TABLE} (number) VALUES (7)");
        assert_eq!(commit_record_insert(7), sqlparse::parse(&insert).unwrap());
    }
}
