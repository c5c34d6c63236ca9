//! The cluster: nodes (engines), shared metadata, and inter-node connections.
//!
//! Mirrors the deployment model of §3.2: one coordinator (node 0), workers
//! added via `add_worker`, clients connecting to the coordinator (or to any
//! node once metadata syncing / MX mode is enabled). Each node is a full
//! pgmini engine with the citrus extension installed — including the
//! coordinator, which can also hold shards ("Citus 0+1").

use crate::extension::CitrusExtension;
use crate::metadata::{Metadata, NodeId};
use crate::planner::Task;
use netsim::fault::{FaultDecision, FaultInjector, FaultOp, FaultPhase, FaultPlan};
use netsim::pipeline::WireRound;
use netsim::VirtualClock;
use parking_lot::{Mutex, RwLock};
use pgmini::cost::SimCost;
use pgmini::engine::{Engine, EngineConfig};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::Statement;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shards per distributed table (Citus's `citus.shard_count`).
    pub shard_count: u32,
    /// Template for per-node engines.
    pub engine: EngineConfig,
    /// Real-time interval of the distributed deadlock detector daemon.
    pub deadlock_detection_interval: std::time::Duration,
    /// Real-time interval of the 2PC recovery daemon.
    pub recovery_interval: std::time::Duration,
    /// Real OS threads the adaptive executor fans independent read tasks
    /// across (§3.6). `1` keeps the fan-out inline on the session thread;
    /// results are deterministic and identical at any setting. Defaults to
    /// `min(available cores, 16)`.
    pub executor_threads: usize,
    /// Cache distributed plans by normalized statement shape so repeated
    /// CRUD skips the planner (Citus's prepared-statement fast path,
    /// §3.5.1). Invalidation is by metadata generation.
    pub plan_cache: bool,
    /// Real microseconds each wire round (see [`netsim::pipeline::WireRound`])
    /// blocks the executing thread, modelling wire time that parallel
    /// fan-out can overlap. `0` (default) keeps the fabric purely
    /// virtual-time; benches set it to measure wall-clock wire cost honestly.
    pub real_rtt_us: u64,
    /// Record a deterministic span tree per distributed statement (see
    /// [`crate::trace`]). Metrics counters are always on; span trees are
    /// gated here because they clone statement text and task detail.
    pub tracing: bool,
    /// Pipelined statement batching (see [`netsim::pipeline`]): a
    /// statement's per-worker task stream is one wire exchange, consecutive
    /// same-worker statements inside a transaction ride one open exchange
    /// instead of paying a round trip each, and each protocol step is one
    /// wire round. Off forces the legacy one-RTT-per-message wire model (the
    /// differential suites compare both).
    pub pipeline: bool,
    /// Execute tasks whose placement lives on the coordinating node directly
    /// in the client's backend instead of over a loopback connection —
    /// Citus's local execution, the worker half of MX mode. Off forces every
    /// task through the connection fabric.
    pub local_execution: bool,
    /// Distributed snapshot isolation (opt-in; §3.7.4 accepts its absence —
    /// this goes beyond the paper). The coordinator issues a commit-clock
    /// token at distributed-read start, piggybacks it on every fan-out task,
    /// and workers evaluate visibility against the token instead of their
    /// local latest snapshot; 2PC publishes one decided timestamp for all
    /// participants, so a multi-node commit becomes visible atomically.
    pub snapshot_isolation: bool,
    /// Generation-fence MX-pinned transactions against concurrent metadata
    /// changes (DDL propagation, shard moves): a pinned transaction is
    /// stamped with the metadata generation it planned against; a
    /// mid-transaction bump that touched one of its tables aborts it with a
    /// retryable 40001, a bump elsewhere escalates it to the coordinator
    /// path, and metadata changes may force-abort local blockers instead of
    /// waiting forever. Off reverts to the pre-fence behaviour (kept so the
    /// anomaly demonstrators can show the hang / lost write it prevents).
    pub mx_fencing: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shard_count: 32,
            engine: EngineConfig::default(),
            // the paper polls every 2s; tests shrink this
            deadlock_detection_interval: std::time::Duration::from_millis(100),
            recovery_interval: std::time::Duration::from_millis(200),
            executor_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16),
            plan_cache: true,
            real_rtt_us: 0,
            tracing: false,
            pipeline: true,
            local_execution: true,
            snapshot_isolation: false,
            mx_fencing: true,
        }
    }
}

/// Backend slots per node reserved for superuser and maintenance work: the
/// shared connection limit is `max_connections - CONNECTION_RESERVE`.
pub const CONNECTION_RESERVE: u32 = 10;

/// One server in the cluster. The engine is swappable so HA failover can
/// promote a standby in place.
pub struct Node {
    pub id: NodeId,
    pub name: String,
    engine: RwLock<Arc<Engine>>,
    active: AtomicBool,
}

impl Node {
    pub fn engine(&self) -> Arc<Engine> {
        self.engine.read().clone()
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Mark failed (connections to it start erroring).
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// Swap in a promoted standby engine.
    pub fn replace_engine(&self, engine: Arc<Engine>) {
        *self.engine.write() = engine;
    }
}

/// The distributed cluster.
pub struct Cluster {
    pub config: ClusterConfig,
    nodes: RwLock<Vec<Arc<Node>>>,
    pub metadata: RwLock<Metadata>,
    pub clock: VirtualClock,
    /// Distributed transaction number sequence (per cluster; real Citus has
    /// one per coordinator node, disambiguated by origin node id).
    txn_number: AtomicU64,
    /// Outgoing internal connections per target node (the shared connection
    /// limit of §3.6.1, tracked in "shared memory").
    conn_counts: Mutex<HashMap<NodeId, u32>>,
    /// MX mode: metadata synced, any node coordinates (§3.2.1).
    mx_enabled: AtomicBool,
    /// Serialises 2PC commit-record writes against restore-point creation
    /// (§3.9: the restore point blocks writes to the commit records table).
    pub commit_record_lock: Mutex<()>,
    /// Extension instance per node (index = NodeId).
    extensions: RwLock<Vec<Arc<CitrusExtension>>>,
    /// Fault injector consulted at every fabric choke point; swapped in by
    /// [`Cluster::install_faults`], inert by default.
    faults: RwLock<Arc<FaultInjector>>,
    /// Total read-task retries performed by the adaptive executor.
    task_retries: AtomicU64,
    /// Journal ids of shard moves currently driven by a live coordinator
    /// session. The move-recovery pass must not treat their journal records
    /// as crashed (the 2PC analogue: in-flight transaction numbers shield
    /// commit records from the recovery daemon).
    active_moves: Mutex<std::collections::HashSet<u64>>,
    /// Cluster-wide commit clock, shared by every node engine (installed
    /// into each `TxnManager` at node creation). Commit timestamps drawn
    /// from it totally order commits across nodes; snapshot tokens are
    /// readings of it.
    pub commit_clock: Arc<pgmini::txn::CommitClock>,
    /// Per-statement span trees and maintenance-daemon events (§ trace).
    pub tracer: crate::trace::Tracer,
    /// Always-on counters + virtual-time histograms backing the stat
    /// relations (`citus_stat_statements`, `citus_stat_activity`).
    pub metrics: crate::metrics::Metrics,
    /// Registered incrementally maintained rollups + changefeed stream hints
    /// (§ rollup). Lives on the cluster so it survives crash/promote engine
    /// replacement.
    pub rollups: crate::rollup::Rollups,
}

impl Cluster {
    /// Create a cluster with just a coordinator (the smallest Citus cluster
    /// is a single server).
    pub fn new(config: ClusterConfig) -> Arc<Cluster> {
        let tracer = crate::trace::Tracer::new(config.tracing);
        let cluster = Arc::new(Cluster {
            config,
            nodes: RwLock::new(Vec::new()),
            metadata: RwLock::new(Metadata::new()),
            clock: VirtualClock::new(),
            txn_number: AtomicU64::new(1),
            conn_counts: Mutex::new(HashMap::new()),
            mx_enabled: AtomicBool::new(false),
            commit_record_lock: Mutex::new(()),
            extensions: RwLock::new(Vec::new()),
            faults: RwLock::new(Arc::new(FaultInjector::none())),
            task_retries: AtomicU64::new(0),
            active_moves: Mutex::new(std::collections::HashSet::new()),
            commit_clock: Arc::new(pgmini::txn::CommitClock::default()),
            tracer,
            metrics: crate::metrics::Metrics::default(),
            rollups: crate::rollup::Rollups::default(),
        });
        cluster.add_node_internal("coordinator");
        cluster
    }

    /// Default-configured cluster.
    pub fn new_default() -> Arc<Cluster> {
        Cluster::new(ClusterConfig::default())
    }

    fn add_node_internal(self: &Arc<Self>, name: &str) -> Arc<Node> {
        let mut nodes = self.nodes.write();
        let id = NodeId(nodes.len() as u32);
        let mut cfg = self.config.engine.clone();
        cfg.name = name.to_string();
        let engine = Engine::new(cfg);
        let node = Arc::new(Node {
            id,
            name: name.to_string(),
            engine: RwLock::new(engine.clone()),
            active: AtomicBool::new(true),
        });
        nodes.push(node.clone());
        drop(nodes);
        let ext = CitrusExtension::install(self, &engine, id);
        self.extensions.write().push(ext);
        node
    }

    /// Add a worker node (the `citus_add_node` UDF path). Existing reference
    /// tables are replicated onto it.
    pub fn add_worker(self: &Arc<Self>) -> PgResult<NodeId> {
        let n = self.nodes.read().len();
        let node = self.add_node_internal(&format!("worker-{n}"));
        crate::table_mgmt::replicate_reference_tables_to(self, node.id)?;
        Ok(node.id)
    }

    /// Swap the extension registered for a node (failover/restore).
    pub fn replace_extension(&self, id: NodeId, ext: Arc<CitrusExtension>) {
        let mut exts = self.extensions.write();
        if let Some(slot) = exts.get_mut(id.0 as usize) {
            *slot = ext;
        }
    }

    /// The extension instance installed on a node.
    pub fn extension(&self, id: NodeId) -> PgResult<Arc<CitrusExtension>> {
        self.extensions
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| PgError::internal(format!("no extension for node {}", id.0)))
    }

    pub fn node(&self, id: NodeId) -> PgResult<Arc<Node>> {
        self.nodes
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| PgError::internal(format!("unknown node {}", id.0)))
    }

    /// Which node owns this engine (pointer identity)?
    pub fn node_of_engine(&self, engine: &Arc<Engine>) -> Option<NodeId> {
        self.nodes
            .read()
            .iter()
            .find(|n| Arc::ptr_eq(&n.engine(), engine))
            .map(|n| n.id)
    }

    pub fn nodes(&self) -> Vec<Arc<Node>> {
        self.nodes.read().clone()
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.read().iter().map(|n| n.id).collect()
    }

    /// Nodes eligible for shard placement: workers when any exist, otherwise
    /// the coordinator itself acts as a worker ("Citus 0+1").
    pub fn worker_ids(&self) -> Vec<NodeId> {
        let nodes = self.nodes.read();
        if nodes.len() > 1 {
            nodes.iter().skip(1).map(|n| n.id).collect()
        } else {
            vec![NodeId(0)]
        }
    }

    pub fn coordinator(&self) -> Arc<Node> {
        self.nodes.read()[0].clone()
    }

    /// Client session to the coordinator.
    pub fn session(self: &Arc<Self>) -> PgResult<ClientSession> {
        self.session_on(NodeId(0))
    }

    /// Client session to any node. Non-coordinator nodes require MX mode
    /// (metadata syncing) to coordinate distributed queries.
    pub fn session_on(self: &Arc<Self>, node: NodeId) -> PgResult<ClientSession> {
        let n = self.node(node)?;
        if !n.is_active() {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                format!("node {} is down", n.name),
            ));
        }
        let inner = n.engine().session()?;
        Ok(ClientSession { inner, cluster: self.clone(), node })
    }

    /// Allocate a distributed transaction number.
    pub fn next_txn_number(&self) -> u64 {
        self.txn_number.fetch_add(1, Ordering::SeqCst)
    }

    pub fn enable_mx(&self) {
        self.mx_enabled.store(true, Ordering::SeqCst);
    }

    pub fn mx_enabled(&self) -> bool {
        self.mx_enabled.load(Ordering::SeqCst)
    }

    /// Shared connection limit for a target node.
    pub fn connection_limit(&self) -> u32 {
        self.config.engine.max_connections.saturating_sub(CONNECTION_RESERVE)
    }

    /// Current tracked internal connections to `node`.
    pub fn connections_to(&self, node: NodeId) -> u32 {
        *self.conn_counts.lock().get(&node).unwrap_or(&0)
    }

    /// Try to reserve a connection slot to `node` (the shared counter of
    /// §3.6.1). Returns false when at the limit.
    pub fn try_reserve_connection(&self, node: NodeId) -> bool {
        let mut counts = self.conn_counts.lock();
        let c = counts.entry(node).or_insert(0);
        if *c >= self.connection_limit() {
            return false;
        }
        *c += 1;
        true
    }

    pub fn release_connection(&self, node: NodeId) {
        let mut counts = self.conn_counts.lock();
        if let Some(c) = counts.get_mut(&node) {
            *c = c.saturating_sub(1);
        }
    }

    /// Arm a deterministic fault schedule: every fabric operation from now
    /// on consults `plan` (see [`netsim::fault`]). The returned injector is
    /// also reachable via [`Cluster::faults`] for event-log inspection.
    pub fn install_faults(&self, plan: FaultPlan, seed: u64) -> Arc<FaultInjector> {
        let inj = Arc::new(FaultInjector::new(plan, seed));
        *self.faults.write() = inj.clone();
        inj
    }

    /// Disarm fault injection.
    pub fn clear_faults(&self) {
        *self.faults.write() = Arc::new(FaultInjector::none());
    }

    /// The active fault injector (inert unless `install_faults` was called).
    pub fn faults(&self) -> Arc<FaultInjector> {
        self.faults.read().clone()
    }

    /// Honour one fault decision against `node`: charge latency to the
    /// virtual clock, crash the node if asked, and surface the failure.
    fn apply_fault(&self, node: &Arc<Node>, d: &FaultDecision, what: &str) -> PgResult<()> {
        if d.latency_ms > 0.0 {
            self.clock.advance_micros((d.latency_ms * 1000.0) as u64);
        }
        if d.crash {
            node.set_active(false);
        }
        if d.disrupts() {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                format!("injected fault: {what} to node {} failed", node.name),
            ));
        }
        Ok(())
    }

    /// Consult the fault plan at a protocol choke point outside the
    /// connection fabric — the rebalancer calls this at every move phase
    /// boundary — and honour the decision (charge latency, crash the node,
    /// surface the failure).
    pub fn fault_point(
        &self,
        node: NodeId,
        op: FaultOp,
        tag: &str,
        scope: &str,
        phase: FaultPhase,
    ) -> PgResult<()> {
        let d = self.faults().decide_scoped(node.0, op, tag, phase, scope);
        if d == FaultDecision::default() {
            return Ok(());
        }
        let node = self.node(node)?;
        self.apply_fault(&node, &d, tag)
    }

    /// Shield a journaled move from the recovery pass while its coordinator
    /// session is still driving it.
    pub(crate) fn note_move_active(&self, move_id: u64) {
        self.active_moves.lock().insert(move_id);
    }

    /// The driving session is gone (done or errored): recovery may now claim
    /// the journal record.
    pub(crate) fn note_move_finished(&self, move_id: u64) {
        self.active_moves.lock().remove(&move_id);
    }

    /// Journal ids of moves currently driven by live sessions.
    pub fn active_move_ids(&self) -> std::collections::HashSet<u64> {
        self.active_moves.lock().clone()
    }

    pub(crate) fn note_task_retries(&self, n: u64) {
        self.task_retries.fetch_add(n, Ordering::SeqCst);
    }

    /// Total read-task retries the adaptive executor has performed.
    pub fn task_retry_count(&self) -> u64 {
        self.task_retries.load(Ordering::SeqCst)
    }

    /// The nodes' local plan caches (generic plans of shard statements,
    /// `pgmini::plancache`), summed: the worker-side counterpart of each
    /// extension's `plan_cache_stats`.
    pub fn shard_plan_cache_stats(&self) -> pgmini::plancache::ShapeCacheStats {
        self.nodes()
            .iter()
            .map(|n| n.engine().plan_cache_stats())
            .fold(Default::default(), pgmini::plancache::ShapeCacheStats::merged)
    }

    /// Open an internal connection to a node (workers talk to each other and
    /// to the coordinator over the same path).
    pub fn connect(self: &Arc<Self>, to: NodeId) -> PgResult<WorkerConn> {
        self.connect_scoped(to, "")
    }

    /// Open an internal connection on behalf of a scoped work unit (the
    /// executor passes each task's shard-set scope so fault rules can target
    /// one task deterministically; see [`netsim::fault`]).
    pub fn connect_scoped(self: &Arc<Self>, to: NodeId, scope: &str) -> PgResult<WorkerConn> {
        let node = self.node(to)?;
        let d =
            self.faults().decide_scoped(to.0, FaultOp::Connect, "connect", FaultPhase::Before, scope);
        self.apply_fault(&node, &d, "connect")?;
        if !node.is_active() {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                format!("could not connect to node {}", node.name),
            ));
        }
        if !self.try_reserve_connection(to) {
            return Err(PgError::new(
                ErrorCode::TooManyConnections,
                format!("shared connection limit reached for node {}", node.name),
            ));
        }
        let engine = node.engine();
        let session = match engine.session() {
            Ok(s) => s,
            Err(e) => {
                self.release_connection(to);
                return Err(e);
            }
        };
        Ok(WorkerConn {
            node: to,
            cluster: self.clone(),
            engine,
            session,
            in_txn_block: false,
            used_for_writes: false,
            fault_scope: scope.to_string(),
            snapshot_token: None,
        })
    }
}

/// An internal connection from a coordinating node to a worker node. Every
/// message over it belongs to a [`WireRound`]; the round's first message
/// pays the round trip.
pub struct WorkerConn {
    pub node: NodeId,
    cluster: Arc<Cluster>,
    /// Engine this connection was opened against; a promoted standby is a
    /// different engine, which invalidates the connection like a broken
    /// socket would.
    engine: Arc<Engine>,
    session: Session,
    /// An explicit transaction block is open on the remote side.
    pub in_txn_block: bool,
    /// The remote transaction performed writes (2PC candidate).
    pub used_for_writes: bool,
    /// Scope string passed to the fault injector for operations on this
    /// connection (the executor sets it to the current task's shard set;
    /// `""` for unscoped fabric work).
    pub fault_scope: String,
    /// Distributed snapshot token to evaluate reads under (piggybacked on
    /// the task by the executor; `None` = the worker's latest snapshot).
    pub snapshot_token: Option<u64>,
}

/// Stable tag naming a statement's kind, used to address fault-injection
/// rules at specific protocol steps (`"prepare_transaction"`, …).
pub fn stmt_tag(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "select",
        Statement::Insert(_) => "insert",
        Statement::Update(_) => "update",
        Statement::Delete(_) => "delete",
        Statement::CreateTable(_) => "create_table",
        Statement::CreateIndex(_) => "create_index",
        Statement::CreateRollup(_) => "create_rollup",
        Statement::DropRollup { .. } => "drop_rollup",
        Statement::DropTable { .. } => "drop_table",
        Statement::Truncate { .. } => "truncate",
        Statement::Copy(_) => "copy",
        Statement::Begin => "begin",
        Statement::Commit => "commit",
        Statement::Rollback => "rollback",
        Statement::PrepareTransaction(_) => "prepare_transaction",
        Statement::CommitPrepared(_) => "commit_prepared",
        Statement::RollbackPrepared(_) => "rollback_prepared",
        Statement::Vacuum { .. } => "vacuum",
        Statement::Set { .. } => "set",
        Statement::Explain { .. } => "explain",
    }
}

impl WorkerConn {
    /// Execute a statement remotely in a wire round of its own. Returns the
    /// result and the *remote* service cost (the RTT is returned separately
    /// in `net_ms`).
    pub fn execute_stmt(&mut self, stmt: &Statement) -> PgResult<(QueryResult, SimCost)> {
        self.execute_in(&mut WireRound::new(), stmt)
    }

    /// Execute a statement remotely as one message of `round`.
    pub fn execute_in(
        &mut self,
        round: &mut WireRound,
        stmt: &Statement,
    ) -> PgResult<(QueryResult, SimCost)> {
        let token = self.snapshot_token;
        self.message(round, stmt_tag(stmt), |session| {
            session.set_snapshot_token(token);
            session.execute_stmt(stmt)
        })
    }

    /// Execute one executor task as a message of `round`: for this message
    /// only, fault rules see the task's `scope` and the statement evaluates
    /// under the snapshot `token`. A COPY batch streams its rows.
    pub fn execute_task(
        &mut self,
        round: &mut WireRound,
        task: &Task,
        scope: &str,
        token: Option<u64>,
    ) -> PgResult<(QueryResult, SimCost)> {
        scope.clone_into(&mut self.fault_scope);
        self.snapshot_token = token;
        let out = match task.copy_batch() {
            Some((copy, rows)) => self
                .copy_rows(round, &copy.table, &copy.columns, rows.to_vec())
                .map(|(n, cost)| (QueryResult::Affected(n), cost)),
            None => self.execute_in(round, &task.stmt),
        };
        self.fault_scope.clear();
        self.snapshot_token = None;
        out
    }

    /// Attach the coordinator's distributed transaction id to the remote
    /// session as one message of `round` — what the
    /// `assign_distributed_transaction_id` UDF does for SQL callers, without
    /// the SQL text. It is still a message (fault rules address it as a
    /// `"select"`, the statement kind Citus sends).
    pub fn assign_dist_txn_id(
        &mut self,
        round: &mut WireRound,
        d: pgmini::lock::DistTxnId,
    ) -> PgResult<()> {
        self.message(round, "select", |session| {
            session.assign_dist_txn_id(d);
            Ok(())
        })
        .map(|_| ())
    }

    /// One message to the remote session. Fault interception happens here,
    /// in two windows: a *before* fault means the request never reached the
    /// node; an *after* fault means the node ran it but the reply was lost —
    /// the caller sees a connection failure either way and cannot tell which
    /// (the 2PC in-doubt window of §3.7.2).
    fn message<T>(
        &mut self,
        round: &mut WireRound,
        tag: &str,
        run: impl FnOnce(&mut Session) -> PgResult<T>,
    ) -> PgResult<(T, SimCost)> {
        self.intercept(tag, FaultPhase::Before)?;
        self.check_alive()?;
        self.wire_delay(round);
        let out = run(&mut self.session)?;
        let cost = self.session.last_cost();
        self.intercept(tag, FaultPhase::After)?;
        Ok((out, cost))
    }

    /// The one place a round trip is paid: the first message of a round —
    /// every message with `pipeline` off — counts in `Metrics::wire_rounds`
    /// and blocks the calling thread for the configured real wire time (off
    /// by default; benches opt in to measure wall-clock wire cost).
    fn wire_delay(&self, round: &mut WireRound) {
        let first = round.send();
        if first || !self.cluster.config.pipeline {
            self.cluster.metrics.wire_rounds.fetch_add(1, Ordering::Relaxed);
            let us = self.cluster.config.real_rtt_us;
            if us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
        }
    }

    /// Consult the fault injector for one window of this connection's
    /// current operation.
    fn intercept(&self, tag: &str, phase: FaultPhase) -> PgResult<()> {
        let d = self.cluster.faults().decide_scoped(
            self.node.0,
            FaultOp::Statement,
            tag,
            phase,
            &self.fault_scope,
        );
        if d == FaultDecision::default() {
            return Ok(());
        }
        let node = self.cluster.node(self.node)?;
        let what = match phase {
            FaultPhase::Before => format!("sending {tag}"),
            FaultPhase::After => format!("reply for {tag}"),
        };
        self.cluster.apply_fault(&node, &d, &what)
    }

    fn check_alive(&self) -> PgResult<()> {
        let node = self.cluster.node(self.node)?;
        if !node.is_active() || !Arc::ptr_eq(&node.engine(), &self.engine) {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                "connection to node lost",
            ));
        }
        Ok(())
    }

    /// Execute SQL text remotely (convenience; statements normally travel as
    /// deparsed rewritten ASTs).
    pub fn execute(&mut self, sql: &str) -> PgResult<(QueryResult, SimCost)> {
        let stmt = sqlparse::parse(sql)?;
        self.execute_stmt(&stmt)
    }

    /// COPY rows into a table on the remote node as one message of `round`.
    pub fn copy_rows(
        &mut self,
        round: &mut WireRound,
        table: &str,
        columns: &[String],
        rows: Vec<Row>,
    ) -> PgResult<(u64, SimCost)> {
        self.message(round, "copy", |session| {
            session.run_as_statement(|s| s.copy_rows(table, columns, rows))
        })
    }

    /// Direct access to the remote session (transaction control, UDFs).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        if self.in_txn_block {
            // abort any open remote transaction
            let _ = self.session.execute_stmt(&Statement::Rollback);
        }
        self.cluster.release_connection(self.node);
    }
}

/// A client-facing session: a pgmini session on one node, plus access to the
/// distributed statistics the extension records for it.
pub struct ClientSession {
    inner: Session,
    cluster: Arc<Cluster>,
    node: NodeId,
}

impl ClientSession {
    pub fn execute(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.inner.execute(sql)
    }

    pub fn execute_script(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.inner.execute_script(sql)
    }

    pub fn execute_with_params(&mut self, sql: &str, params: &[pgmini::types::Datum]) -> PgResult<QueryResult> {
        self.inner.execute_with_params(sql, params)
    }

    pub fn query(&mut self, sql: &str) -> PgResult<Vec<Row>> {
        self.inner.query(sql)
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.inner
    }

    /// Distributed cost of the last statement (falls back to a local-only
    /// cost view when the statement never left this node).
    pub fn last_dist_cost(&mut self) -> crate::cost::DistCost {
        let ext = self.cluster.extension(self.node).ok();
        if let Some(d) = ext.and_then(|e| e.take_last_dist_cost(self.inner.id())) {
            return d;
        }
        let local = self.inner.last_cost();
        let mut d = crate::cost::DistCost { elapsed_ms: local.total_ms(), ..Default::default() };
        d.add_node(self.node, &local);
        d
    }

    /// Distributed COPY: fan rows out to shards (§3.8), inside the session's
    /// transaction.
    pub fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        self.cluster.extension(self.node)?.copy(&mut self.inner, table, columns, rows)
    }
}

/// A tenant-facing MX routed session (§3.2.1, metadata syncing made real
/// for traffic): each statement is routed to the node that owns its data,
/// so fast-path transactions plan and execute *on that worker* — zero
/// coordinator round trips — and only cross-shard shapes, DDL, and UDFs
/// escalate to the coordinator. Every node runs the full extension, so
/// `citus_stat_statements` and per-statement costs book on the executing
/// node.
///
/// An explicit transaction pins to the node its first statement routes to
/// (`BEGIN` is deferred and travels with that statement); the whole block
/// then runs there — in MX mode any node can coordinate, so even a
/// cross-shard statement inside the block stays on the pinned node.
pub struct MxSession {
    cluster: Arc<Cluster>,
    /// Lazily-opened client session per node, with the engine it was opened
    /// against. A promoted standby is a different engine — the cached
    /// session is then as dead as a broken socket and is reopened.
    sessions: HashMap<NodeId, (Arc<Engine>, ClientSession)>,
    /// Node executing the current explicit transaction block.
    pinned: Option<NodeId>,
    /// `BEGIN` seen but not yet sent anywhere.
    pending_begin: bool,
    /// Node that executed the last statement (cost attribution).
    last: NodeId,
    /// The last statement ran on no node (a deferred `BEGIN`, or the end of
    /// an empty block): its cost record is empty.
    ran_nowhere: bool,
    /// Statements that ran on a non-coordinator node.
    pub routed: u64,
    /// Statements that escalated to the coordinator.
    pub escalated: u64,
    /// Metadata generation the open pinned transaction planned against
    /// (stamped when the block pins; refreshed on a non-conflicting bump).
    txn_generation: Option<u64>,
    /// Tables the open pinned transaction has referenced — the fence's
    /// conflict set.
    txn_tables: Vec<String>,
    /// The open transaction already escalated once for a non-conflicting
    /// metadata bump (the escalation is counted per transaction, not per
    /// statement).
    escalated_midtxn: bool,
}

impl Cluster {
    /// Open a tenant-facing routed session. Enables MX mode (metadata
    /// syncing) — routed sessions are exactly what the mode exists for.
    pub fn mx_session(self: &Arc<Self>) -> MxSession {
        self.enable_mx();
        MxSession {
            cluster: self.clone(),
            sessions: HashMap::new(),
            pinned: None,
            pending_begin: false,
            last: NodeId(0),
            ran_nowhere: false,
            routed: 0,
            escalated: 0,
            txn_generation: None,
            txn_tables: Vec::new(),
            escalated_midtxn: false,
        }
    }
}

impl MxSession {
    /// Where the current statement runs: the pinned transaction node if a
    /// block is open, else wherever the router says its data lives, else
    /// the coordinator.
    fn target_for(&self, stmt: &Statement) -> NodeId {
        if let Some(n) = self.pinned {
            return n;
        }
        crate::planner::route_node(stmt, &self.cluster.metadata.read()).unwrap_or(NodeId(0))
    }

    /// Is the cached session for `node` still usable (node up, engine not
    /// swapped by failover)?
    fn cached_live(&self, node: NodeId) -> bool {
        match self.sessions.get(&node) {
            Some((engine, _)) => self
                .cluster
                .node(node)
                .map(|n| n.is_active() && Arc::ptr_eq(&n.engine(), engine))
                .unwrap_or(false),
            None => false,
        }
    }

    /// Session to `node`, reopening if the cached one went stale.
    fn session_for(&mut self, node: NodeId) -> PgResult<&mut ClientSession> {
        if !self.cached_live(node) {
            self.sessions.remove(&node);
        }
        let slot = match self.sessions.entry(node) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert((self.cluster.node(node)?.engine(), self.cluster.session_on(node)?))
            }
        };
        Ok(&mut slot.1)
    }

    pub fn execute(&mut self, sql: &str) -> PgResult<QueryResult> {
        let stmt = sqlparse::parse(sql)?;
        self.execute_stmt(&stmt)
    }

    pub fn execute_stmt(&mut self, stmt: &Statement) -> PgResult<QueryResult> {
        match stmt {
            Statement::Begin => {
                // defer: the transaction starts on whatever node the first
                // routed statement lands on
                self.pending_begin = true;
                self.ran_nowhere = true;
                return Ok(QueryResult::Empty);
            }
            Statement::Commit | Statement::Rollback => {
                if self.pending_begin {
                    // empty block: BEGIN was never sent anywhere
                    self.pending_begin = false;
                    self.ran_nowhere = true;
                    return Ok(QueryResult::Empty);
                }
                if matches!(stmt, Statement::Commit) {
                    // last fence window: a conflicting bump that landed after
                    // the final statement must not commit (rollback is always
                    // safe — it only releases locks)
                    self.fence_check(None)?;
                }
                let was_pinned = self.pinned.is_some();
                let node = self.pinned.take().unwrap_or(self.last);
                self.clear_txn_fence();
                let live = self.cached_live(node);
                let Some((_, sess)) = self.sessions.get_mut(&node).filter(|_| live) else {
                    if !was_pinned || matches!(stmt, Statement::Rollback) {
                        // stray txn control, or the transaction died with
                        // its node — nothing left to roll back
                        return Ok(QueryResult::Empty);
                    }
                    return Err(PgError::new(
                        ErrorCode::ConnectionFailure,
                        format!("node {} lost before commit", node.0),
                    ));
                };
                self.last = node;
                self.ran_nowhere = false;
                // a SerializationFailure here means the engine fenced the
                // transaction off (force-abort already counted at the
                // deciding site); the guard rolled it back cleanly
                return sess.session_mut().execute_stmt(stmt);
            }
            _ => {}
        }
        if self.pinned.is_some() {
            // per-statement fence window: detect metadata bumps that landed
            // since the transaction stamped its generation
            self.fence_check(Some(stmt))?;
        }
        let node = self.target_for(stmt);
        let tables = || crate::planner::rewrite::collect_tables(stmt);
        let result = self.run_on(node, tables, |sess| sess.session_mut().execute_stmt(stmt))?;
        if node == NodeId(0) {
            self.escalated += 1;
        } else {
            self.routed += 1;
        }
        if let Err(e) = &result {
            if e.code == ErrorCode::SerializationFailure && self.pinned == Some(node) {
                // the engine fenced the pinned transaction off mid-statement
                // (force-abort by a blocked metadata change, counted at the
                // deciding site): the remote transaction is already rolled
                // back, so unpin — the retry re-resolves its route against
                // fresh metadata
                self.pinned = None;
                self.clear_txn_fence();
            }
        }
        result
    }

    /// Run one statement, `run`, on `node`'s session; `tables` lists what it
    /// touches. A deferred `BEGIN` travels with it and pins the block there.
    /// The outer error: the statement never ran (no session, or `BEGIN`
    /// failed).
    fn run_on<T>(
        &mut self,
        node: NodeId,
        tables: impl FnOnce() -> Vec<String>,
        run: impl FnOnce(&mut ClientSession) -> PgResult<T>,
    ) -> PgResult<PgResult<T>> {
        let begin = self.pending_begin;
        // stamp before executing so a bump racing the first statement is
        // caught by the next fence window, not silently absorbed
        let stamp = (begin && self.cluster.config.mx_fencing)
            .then(|| self.cluster.metadata.read().generation());
        let result = {
            let sess = self.session_for(node)?;
            if begin {
                sess.session_mut().execute_stmt(&Statement::Begin)?;
            }
            run(sess)
        };
        self.pending_begin = false;
        if begin {
            self.pinned = Some(node);
            self.txn_generation = stamp;
            self.txn_tables = tables();
            self.escalated_midtxn = false;
        } else if self.pinned == Some(node) {
            for t in tables() {
                if !self.txn_tables.contains(&t) {
                    self.txn_tables.push(t);
                }
            }
        }
        self.last = node;
        self.ran_nowhere = false;
        Ok(result)
    }

    /// Forget the open transaction's fence state (commit/rollback/abort).
    fn clear_txn_fence(&mut self) {
        self.txn_generation = None;
        self.txn_tables.clear();
        self.escalated_midtxn = false;
    }

    /// Generation-fence window for the open pinned transaction. `stmt` is
    /// the statement about to run (its tables join the conflict set); `None`
    /// at commit. A bump that touched one of the transaction's tables rolls
    /// the remote transaction back (locks released cleanly) and surfaces a
    /// retryable 40001; a bump elsewhere escalates the session to the
    /// coordinator path for the rest of the block and refreshes the stamp.
    fn fence_check(&mut self, stmt: Option<&Statement>) -> PgResult<()> {
        if !self.cluster.config.mx_fencing {
            return Ok(());
        }
        let (Some(node), Some(stamp)) = (self.pinned, self.txn_generation) else {
            return Ok(());
        };
        if let Some(s) = stmt {
            for t in crate::planner::rewrite::collect_tables(s) {
                if !self.txn_tables.contains(&t) {
                    self.txn_tables.push(t);
                }
            }
        }
        let (gen_now, conflict) = {
            let meta = self.cluster.metadata.read();
            let g = meta.generation();
            if g == stamp {
                return Ok(());
            }
            (g, self.txn_tables.iter().any(|t| meta.changed_since(t, stamp)))
        };
        if conflict {
            if self.cached_live(node) {
                if let Some((_, sess)) = self.sessions.get_mut(&node) {
                    let _ = sess.session_mut().execute_stmt(&Statement::Rollback);
                }
            }
            self.pinned = None;
            self.clear_txn_fence();
            self.cluster.metrics.mx_generation_aborts.fetch_add(1, Ordering::Relaxed);
            if self.cluster.tracer.enabled() {
                self.cluster.tracer.record_daemon(
                    crate::trace::Span::new("mx_fence_abort")
                        .with("node", node.0)
                        .with("generation", gen_now),
                );
            }
            return Err(PgError::new(
                ErrorCode::SerializationFailure,
                "could not serialize access due to a concurrent metadata change \
                 (MX transaction fenced; retry)",
            ));
        }
        // the bump is elsewhere: the pinned node keeps the transaction (any
        // node coordinates in MX mode) but gives up fast-path trust — the
        // rest of the block replans through the full coordinator path
        if !self.escalated_midtxn {
            self.escalated_midtxn = true;
            self.cluster.metrics.mx_midtxn_escalations.fetch_add(1, Ordering::Relaxed);
            if self.cluster.tracer.enabled() {
                self.cluster.tracer.record_daemon(
                    crate::trace::Span::new("mx_midtxn_escalation")
                        .with("node", node.0)
                        .with("from_generation", stamp)
                        .with("to_generation", gen_now),
                );
            }
        }
        self.txn_generation = Some(gen_now);
        Ok(())
    }

    /// Distributed COPY, driven from the pinned node or the coordinator.
    pub fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        let node = self.pinned.unwrap_or(NodeId(0));
        self.run_on(node, || vec![table.to_string()], |sess| sess.copy(table, columns, rows))?
    }

    /// Node that executed the last statement.
    pub fn last_node(&self) -> NodeId {
        self.last
    }

    /// Distributed cost of the last statement, as booked on the node that
    /// executed it; empty when it ran on no node.
    pub fn last_dist_cost(&mut self) -> crate::cost::DistCost {
        match self.sessions.get_mut(&self.last) {
            Some((_, s)) if !self.ran_nowhere => s.last_dist_cost(),
            _ => crate::cost::DistCost::default(),
        }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_starts_with_coordinator_only() {
        let c = Cluster::new_default();
        assert_eq!(c.node_ids().len(), 1);
        assert_eq!(c.worker_ids(), vec![NodeId(0)], "0+1: coordinator acts as worker");
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        assert_eq!(c.node_ids().len(), 3);
        assert_eq!(c.worker_ids(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn shared_connection_limit_enforced() {
        let mut cfg = ClusterConfig::default();
        cfg.engine.max_connections = 12;
        let c = Cluster::new(cfg);
        let w = c.add_worker().unwrap();
        let c1 = c.connect(w).unwrap();
        let c2 = c.connect(w).unwrap();
        let err = c.connect(w).map(|_| ()).unwrap_err();
        assert_eq!(err.code, ErrorCode::TooManyConnections);
        drop(c1);
        // a fresh connect succeeds (and releases its slot when dropped)
        assert!(c.connect(w).is_ok());
        drop(c2);
        assert_eq!(c.connections_to(w), 0);
    }

    #[test]
    fn connections_to_down_nodes_fail() {
        let c = Cluster::new_default();
        let w = c.add_worker().unwrap();
        c.node(w).unwrap().set_active(false);
        let err = c.connect(w).map(|_| ()).unwrap_err();
        assert_eq!(err.code, ErrorCode::ConnectionFailure);
        assert!(c.session_on(w).map(|_| ()).is_err());
        c.node(w).unwrap().set_active(true);
        assert!(c.connect(w).is_ok());
    }

    #[test]
    fn worker_conn_executes_remotely() {
        let c = Cluster::new_default();
        let w = c.add_worker().unwrap();
        let mut conn = c.connect(w).unwrap();
        conn.execute("CREATE TABLE t (a bigint)").unwrap();
        conn.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let (r, cost) = conn.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], pgmini::types::Datum::Int(2));
        assert!(cost.total_ms() > 0.0);
        // the table lives on the worker, not the coordinator
        let mut s = c.session().unwrap();
        assert!(s.execute("SELECT * FROM t").is_err());
    }

    #[test]
    fn dropping_conn_rolls_back_remote_txn() {
        let c = Cluster::new_default();
        let w = c.add_worker().unwrap();
        {
            let mut conn = c.connect(w).unwrap();
            conn.execute("CREATE TABLE t (a bigint)").unwrap();
            conn.execute("BEGIN").unwrap();
            conn.execute("INSERT INTO t VALUES (1)").unwrap();
            conn.in_txn_block = true;
        }
        let mut conn = c.connect(w).unwrap();
        let (r, _) = conn.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], pgmini::types::Datum::Int(0));
    }
}
