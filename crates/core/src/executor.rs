//! The adaptive executor (§3.6).
//!
//! Executes a [`DistPlan`]: runs prep steps (broadcast / repartition
//! intermediate results), fans the per-shard tasks out over worker
//! connections, and applies the coordinator merge step.
//!
//! Connection management follows the paper: within a transaction at most one
//! *real* connection per worker exists and co-located shard groups stick to
//! it (placement affinity); query parallelism is modelled by the virtual
//! **slow-start scheduler** — the executor may use one connection per worker
//! immediately and gains one more per 10 ms tick, capped by the shared
//! connection limit — which yields each statement's elapsed virtual time.
//!
//! A statement's tasks go through two phases with one record between them.
//! The **run phase** ([`run_tasks`]) executes every task — in the client's
//! own backend (local execution), over a session connection (writes and
//! in-transaction statements, where placement affinity and remote
//! transaction blocks live), or, for independent reads outside a
//! transaction, fanned out over **real OS threads**
//! ([`ClusterConfig::executor_threads`]) — and each way leaves the same
//! [`TaskOutcome`] in task order. The **account phase** ([`account_tasks`])
//! folds those outcomes once, in task order, into per-node costs, schedule
//! durations, wire targets, retry counts and trace spans — so rows, costs,
//! retry counts, and virtual-clock advances are identical at any thread
//! count, and `executor_threads = 1` is the same code with only the
//! session's own thread claiming work.

use crate::cluster::{Cluster, WorkerConn};
use crate::cost::DistCost;
use crate::metadata::NodeId;
use crate::planner::join_order::PrepStep;
use crate::planner::{merge, DistPlan, Merge, Task};
use crate::trace::Span;
use netsim::makespan;
use netsim::pipeline::WireRound;
use parking_lot::Mutex;
use pgmini::cost::{SimCost, CONNECT_MS, CORES, NET_RTT_MS, NET_TUPLE_MS};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::QueryResult;
use pgmini::types::Row;
use sqlparse::ast::{ColumnDef, CreateTable, Statement, TypeName};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Result of executing a distributed plan.
pub struct ExecutorOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub affected: u64,
}

/// Per-(node, slot) key of a pooled connection.
pub type ConnKey = (NodeId, u32);

/// Distributed per-session state held by the extension.
#[derive(Default)]
pub struct SessionState {
    pub conns: HashMap<ConnKey, WorkerConn>,
    next_slot: u32,
    /// (colocation id, bucket) → connection that touched it this transaction.
    pub affinity: HashMap<(u32, usize), ConnKey>,
    pub dist_txn: Option<pgmini::lock::DistTxnId>,
    /// gids to COMMIT PREPARED in the post-commit callback: (node, gid).
    pub pending_prepared: Vec<(NodeId, String)>,
    /// Accumulated cost of the statement being executed.
    pub stmt_cost: DistCost,
    /// Cost of the last completed statement.
    pub last_dist: Option<DistCost>,
    /// Temp tables created for intermediate results: (node, table).
    pub temp_tables: Vec<(NodeId, String)>,
    /// Planner tier of the last distributed statement (EXPLAIN/tests).
    pub last_planner: Option<crate::planner::PlannerKind>,
    /// Cost accumulated by the commit protocol (1PC delegation / 2PC).
    pub commit_cost: DistCost,
    /// When set, statement costs also accumulate here (procedure bodies).
    pub capture: Option<DistCost>,
    /// Virtual connection-pool size per node: lanes opened by slow start
    /// persist across statements ("Citus caches connections", §3.2.1).
    pub virtual_lanes: HashMap<NodeId, usize>,
    /// Strategy of the last INSERT..SELECT (tests/diagnostics).
    pub last_insert_select: Option<crate::insert_select::InsertSelectStrategy>,
    /// Root span of the statement currently executing (tracing enabled).
    pub trace: Option<crate::trace::Span>,
    /// Completed trace of the last distributed statement.
    pub last_trace: Option<crate::trace::Span>,
    /// The last statement's plan came from the plan cache.
    pub last_cache_hit: bool,
    /// Read-task retries the last statement performed.
    pub last_retries: u64,
    /// The current transaction performed writes via local execution (in the
    /// client's own backend, no connection). The commit protocol must then
    /// treat the coordinating node as a 2PC participant: it cannot delegate
    /// the commit decision to a single remote worker.
    pub local_writes: bool,
    /// Cross-statement pipelined-batching state: the open wire exchange of
    /// this session's transaction (see [`netsim::pipeline`]).
    pub pipeline: netsim::pipeline::SessionPipeline,
    /// Distributed snapshot token pinned for this session's current
    /// read/transaction (`ClusterConfig::snapshot_isolation`); piggybacked
    /// on every fan-out read task and cleared at transaction end.
    pub snapshot_token: Option<u64>,
}

impl SessionState {
    /// Take a pooled connection for `node`, preferring the affinity binding
    /// for `group`. Returns `None` when a new connection must be opened.
    fn checkout(&mut self, node: NodeId, group: Option<(u32, usize)>) -> Option<(ConnKey, WorkerConn)> {
        if let Some(g) = group {
            if let Some(key) = self.affinity.get(&g).copied() {
                if let Some(conn) = self.conns.remove(&key) {
                    return Some((key, conn));
                }
            }
        }
        // any pooled connection to that node
        let key = self.conns.keys().find(|(n, _)| *n == node).copied()?;
        self.conns.remove(&key).map(|c| (key, c))
    }

    fn checkin(&mut self, key: ConnKey, conn: WorkerConn, group: Option<(u32, usize)>) {
        if let Some(g) = group {
            self.affinity.insert(g, key);
        }
        self.conns.insert(key, conn);
    }

    fn new_key(&mut self, node: NodeId) -> ConnKey {
        self.next_slot += 1;
        (node, self.next_slot)
    }

    /// Connections with open transaction blocks, split by write usage.
    pub fn txn_conn_keys(&self) -> (Vec<ConnKey>, Vec<ConnKey>) {
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for (k, c) in &self.conns {
            if c.in_txn_block {
                if c.used_for_writes {
                    writes.push(*k);
                } else {
                    reads.push(*k);
                }
            }
        }
        writes.sort();
        reads.sort();
        (writes, reads)
    }

    /// Send one transaction-control message over the pooled connection `key`
    /// as part of `round`; returns the remote service cost. The commit
    /// protocol sends every message of a phase through here.
    ///
    /// A connection failure drops the connection — a broken socket never
    /// goes back to the pool, and dropping aborts whatever its remote block
    /// still holds. Any other outcome ends the remote block and returns the
    /// connection. The one exception is a refused `PREPARE TRANSACTION`: the
    /// connection stays, block open, for the `ROLLBACK` the caller answers
    /// it with.
    pub fn send(
        &mut self,
        round: &mut WireRound,
        key: ConnKey,
        stmt: &Statement,
    ) -> PgResult<SimCost> {
        let mut conn = self
            .conns
            .remove(&key)
            .ok_or_else(|| PgError::internal("pooled connection vanished"))?;
        let result = conn.execute_in(round, stmt);
        let refused_prepare = result.is_err() && matches!(stmt, Statement::PrepareTransaction(_));
        if refused_prepare {
            self.conns.insert(key, conn);
        } else if result.as_ref().is_err_and(is_connection_failure) {
            self.affinity.retain(|_, k| *k != key);
        } else {
            conn.in_txn_block = false;
            conn.used_for_writes = false;
            self.conns.insert(key, conn);
        }
        result.map(|(_, cost)| cost)
    }
}

/// Acquire (or open) a connection for a task, honouring affinity and the
/// shared connection limit. Also opens the remote transaction block when the
/// local session is in a transaction: `BEGIN` and the transaction-id
/// assignment go out in `round`, the round of the statement that needs the
/// block (libpq pipeline mode — nothing waits for their replies).
fn task_conn(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    node: NodeId,
    group: Option<(u32, usize)>,
    in_txn: bool,
    round: &mut WireRound,
    cost: &mut DistCost,
) -> PgResult<(ConnKey, WorkerConn)> {
    let (key, mut conn) = match state.checkout(node, group) {
        Some(pooled) => pooled,
        None => {
            let c = cluster.connect(node)?;
            cost.net_ms += CONNECT_MS;
            (state.new_key(node), c)
        }
    };
    if in_txn && !conn.in_txn_block {
        conn.execute_in(round, &Statement::Begin)?;
        if let Some(d) = state.dist_txn {
            conn.assign_dist_txn_id(round, d)?;
        }
        conn.in_txn_block = true;
        cost.net_ms += NET_RTT_MS;
        cost.add_node(node, &SimCost::ZERO);
    }
    Ok((key, conn))
}

/// Virtual slow-start schedule for one node's task durations. Returns
/// (node makespan in ms, lanes used).
///
/// Lane 0 exists immediately; a new lane may open each `slow_start_ms`
/// (n = 1 + floor(t / interval)), each opening costs `connect_ms`, capped at
/// `max_lanes`. Mirrors §3.6.1: sub-millisecond tasks never trigger extra
/// connections, long analytical tasks fan out.
pub fn slow_start_schedule(
    durations: &[f64],
    slow_start_ms: f64,
    connect_ms: f64,
    max_lanes: usize,
    cores: u32,
    existing_lanes: usize,
) -> (f64, usize) {
    if durations.is_empty() {
        return (0.0, existing_lanes);
    }
    let max_lanes = max_lanes.max(1);
    // lane -> time it becomes free; cached connections are free immediately
    let mut lanes: Vec<f64> = vec![0.0; existing_lanes.clamp(1, max_lanes)];
    for &d in durations {
        // earliest available existing lane
        let (best_idx, best_free) = lanes
            .iter()
            .copied()
            .enumerate()
            .fold((0, f64::INFINITY), |best, (i, t)| if t < best.1 { (i, t) } else { best });
        let finish_existing = best_free + d;
        // a (k+1)-th lane becomes permissible at t = (k - cached)·interval
        // (n(t) grows by one per tick beyond the cached pool), and takes
        // connect_ms to establish
        if lanes.len() < max_lanes {
            let fresh = lanes.len().saturating_sub(existing_lanes.max(1)) + 1;
            let start_new = fresh as f64 * slow_start_ms + connect_ms;
            let finish_new = start_new + d;
            if finish_new < finish_existing {
                lanes.push(finish_new);
                continue;
            }
        }
        lanes[best_idx] = finish_existing;
    }
    let used = lanes.len();
    (makespan::node_makespan(&lanes, cores), used)
}

/// Execute a distributed plan on behalf of `session`.
pub fn execute_plan(
    cluster: &Arc<Cluster>,
    session: &mut pgmini::session::Session,
    state: &mut SessionState,
    plan: &DistPlan,
    self_node: NodeId,
) -> PgResult<ExecutorOutput> {
    let out = execute_plan_inner(cluster, session, state, plan, self_node);
    if out.is_err() {
        // mid-batch fault fallback: the open pipelined exchange died with
        // the statement; whatever the client replays next pays its own
        // round trip (per-statement replay semantics)
        state.pipeline.sync();
    }
    out
}

/// The per-statement facts every task run needs, fixed before the first task
/// starts.
struct StmtCtx<'a> {
    cluster: &'a Arc<Cluster>,
    self_node: NodeId,
    in_txn: bool,
    /// Snapshot token piggybacked on read tasks (writes always run against
    /// the worker's latest snapshot — update chains need current versions).
    token: Option<u64>,
}

impl StmtCtx<'_> {
    /// Local execution: the task's placement lives on the coordinating node,
    /// so it runs in the client's own backend instead of over a connection.
    fn is_local(&self, task: &Task) -> bool {
        self.cluster.config.local_execution && task.node == self.self_node
    }

    /// The one node every non-local task targets, if there is exactly one.
    fn sole_remote(&self, tasks: &[Task]) -> Option<u32> {
        let mut remote = tasks.iter().filter(|t| !self.is_local(t)).map(|t| t.node);
        let first = remote.next()?;
        remote.all(|n| n == first).then_some(first.0)
    }
}

/// One task's execution, however it ran: in the client's backend, on a
/// fan-out thread, over a session connection, or failed over to a surviving
/// placement. The run phase ([`run_tasks`]) produces one per task, in task
/// order; the account phase ([`account_tasks`]) is its only reader.
struct TaskOutcome {
    result: QueryResult,
    /// Service cost on `target`.
    cost: SimCost,
    /// The node that served the task (failover may move it off `task.node`).
    target: NodeId,
    retries: u64,
    /// Virtual backoff this task accrued; applied to the clock and cost
    /// deterministically by the fan-out's post-pass, not at retry time.
    backoff_ms: f64,
    /// Ran in the client's own backend, without a connection.
    local: bool,
}

fn execute_plan_inner(
    cluster: &Arc<Cluster>,
    session: &mut pgmini::session::Session,
    state: &mut SessionState,
    plan: &DistPlan,
    self_node: NodeId,
) -> PgResult<ExecutorOutput> {
    let mut cost = DistCost::default();

    // 1. prep steps (intermediate results)
    for step in &plan.prep {
        run_prep_step(cluster, session, state, step, self_node, &mut cost)?;
    }

    // 2. transaction bookkeeping
    let in_txn = session.in_transaction();
    if in_txn && state.dist_txn.is_none() {
        let d = pgmini::lock::DistTxnId {
            origin_node: self_node.0,
            number: cluster.next_txn_number(),
            timestamp: cluster.clock.tick(),
        };
        state.dist_txn = Some(d);
        session.assign_dist_txn_id(d);
    }
    let token = if plan.is_write { None } else { state.snapshot_token };
    let ctx = StmtCtx { cluster, self_node, in_txn, token };
    // a statement whose single remote target still has the transaction's
    // pipelined exchange open rides it: no new round trip
    let sole_remote = ctx.sole_remote(&plan.tasks);
    let riding = cluster.config.pipeline
        && in_txn
        && sole_remote.is_some_and(|n| state.pipeline.rides(n));

    // 3. run phase: every task executes and leaves one outcome, in task order
    let fault_base = cluster.faults().events_len();
    let scopes: Vec<String> = plan.tasks.iter().map(task_scope).collect();
    let outcomes = run_tasks(&ctx, session, state, plan, &scopes, riding, &mut cost)?;

    // 4. account phase: everything derived from the outcomes, in one fold
    let traced_from = state.trace.is_some().then_some(fault_base);
    let tasks = account_tasks(&ctx, outcomes, &scopes, traced_from, &mut cost);
    cluster.note_task_retries(tasks.retries);
    state.last_retries = tasks.retries;
    let copy = plan.tasks.iter().any(|t| t.copy_batch().is_some());
    let schedule = schedule_nodes(cluster, state, &tasks.node_durations, copy);

    // 5. merge
    let merged = merge::apply(&plan.merge, tasks.results)?;
    cost.add_node(self_node, &SimCost { cpu_ms: merged.cpu_ms, ..SimCost::ZERO });

    // 6. network latency
    let wire = account_wire(&ctx, state, sole_remote, riding, &tasks.remote_targets);
    cost.net_ms += wire.stmt_rtt;
    // on top of the prep steps' temp-table loads, which ran first
    cost.elapsed_ms += schedule.elapsed_ms + merged.cpu_ms + wire.stmt_rtt;

    if let Some(root) = &mut state.trace {
        trace_statement(root, tasks.spans, wire, schedule.pools, &plan.merge, &merged);
    }

    // 7. statement-scoped temp tables are dropped when not in a transaction
    if !in_txn {
        cleanup_temp_tables(cluster, state)?;
    }
    state.stmt_cost.add(&cost);

    Ok(ExecutorOutput { columns: merged.columns, rows: merged.rows, affected: merged.affected })
}

/// Run phase: execute every task of the plan, one [`TaskOutcome`] per task in
/// task order.
///
/// Idempotent read tasks outside a transaction block survive connection
/// failures: they re-try with capped exponential backoff on the virtual
/// clock, failing over to a surviving placement when the target node is
/// down. Writes and in-transaction reads never re-try — a lost reply
/// leaves the remote effect in doubt, which only 2PC recovery may settle.
fn run_tasks(
    ctx: &StmtCtx,
    session: &mut pgmini::session::Session,
    state: &mut SessionState,
    plan: &DistPlan,
    scopes: &[String],
    riding: bool,
    cost: &mut DistCost,
) -> PgResult<Vec<TaskOutcome>> {
    let work = plan.tasks.iter().zip(scopes.iter().map(String::as_str));
    // read fan-out: threaded when configured, inline otherwise — one code
    // path, deterministic outcomes either way. Tasks whose placement lives
    // on this node run inline in the client's backend (local execution);
    // only a read's remote tasks enter the fan-out (no task of a write or an
    // in-transaction statement does).
    let retryable = !ctx.in_txn && !plan.is_write;
    let fan: Vec<(&Task, &str)> =
        work.clone().filter(|(t, _)| retryable && !ctx.is_local(t)).collect();
    let mut fanned = fan_out_read_tasks(ctx, state, &fan, cost)?.into_iter();
    // session-thread path: writes and in-transaction statements, where
    // placement affinity binds shard groups to connections and a lost
    // reply must surface immediately (never re-tried). The statement is one
    // wire round however many workers its tasks land on (`account_wire`
    // charges the same); riding the transaction's open exchange, it pays
    // none
    let mut round = if riding { WireRound::riding() } else { WireRound::new() };
    let mut outcomes = Vec::with_capacity(plan.tasks.len());
    for (task, scope) in work {
        outcomes.push(if !ctx.is_local(task) {
            if retryable {
                fanned.next().ok_or_else(|| PgError::internal("a remote task left no outcome"))?
            } else {
                run_conn_task(ctx, state, task, scope, &mut round, cost)?
            }
        } else {
            match run_local_task(ctx, session, task, scope) {
                Err(e) if retryable && is_connection_failure(&e) => {
                    // the local replica died under the read: the failed
                    // local attempt counts as one retry, then the task
                    // re-enters the normal read-retry path, which fails
                    // over to a surviving placement (replicated shards)
                    // or surfaces the error once attempts run out
                    let mut outcome = fan_out_read_tasks(ctx, state, &[(task, scope)], cost)?
                        .pop()
                        .ok_or_else(|| PgError::internal("a retried task left no outcome"))?;
                    outcome.retries += 1;
                    outcome
                }
                ran => {
                    let outcome = ran?;
                    state.local_writes |= task.is_write && ctx.in_txn;
                    outcome
                }
            }
        });
    }
    Ok(outcomes)
}

/// Run one task over a session connection as a message of the statement's
/// `round`, binding the task's shard group to the connection for the rest of
/// the transaction.
fn run_conn_task(
    ctx: &StmtCtx,
    state: &mut SessionState,
    task: &Task,
    scope: &str,
    round: &mut WireRound,
    cost: &mut DistCost,
) -> PgResult<TaskOutcome> {
    let bind_group = if ctx.in_txn { task.group } else { None };
    let (key, mut conn) =
        task_conn(ctx.cluster, state, task.node, task.group, ctx.in_txn, round, cost)?;
    let out = conn.execute_task(round, task, scope, ctx.token);
    if task.is_write {
        conn.used_for_writes = true;
    }
    if out.as_ref().is_err_and(is_connection_failure) {
        // a broken connection never recovers: drop it (and any affinity
        // pointing at it) like a broken socket
        state.affinity.retain(|_, k| *k != key);
    } else {
        state.checkin(key, conn, bind_group);
    }
    let (result, served) = out?;
    let target = task.node;
    Ok(TaskOutcome { result, cost: served, target, retries: 0, backoff_ms: 0.0, local: false })
}

/// What a statement derives from its task outcomes.
struct TaskAccount {
    /// Task results in task order, for the merge step.
    results: Vec<QueryResult>,
    /// Per node, the virtual duration of each task it served, in task order:
    /// the input of the slow-start schedule.
    node_durations: HashMap<NodeId, Vec<f64>>,
    /// Actual remote target per remote task, in task order (failover may
    /// move a task off `task.node`) — drives the wire-exchange accounting.
    remote_targets: Vec<u32>,
    retries: u64,
    /// `task` trace spans with their scoped fault events; empty unless the
    /// statement is traced.
    spans: Vec<Span>,
}

/// Account phase: fold the outcomes once, in task order, into everything the
/// statement derives from them. This is the only place a task's cost is
/// booked, so rows, costs, retry counts and traces cannot depend on which
/// thread — or which of the run phase's paths — produced an outcome, and
/// floating-point sums always accumulate in task order. `traced_from` is the
/// fault-log position the statement's tasks started at (`None` = untraced).
fn account_tasks(
    ctx: &StmtCtx,
    outcomes: Vec<TaskOutcome>,
    scopes: &[String],
    traced_from: Option<usize>,
    cost: &mut DistCost,
) -> TaskAccount {
    let config = &ctx.cluster.config;
    // legacy (pipeline off): every remote task pays its own round trip
    // inside its duration, on top of the statement's
    let task_rtt = if config.pipeline { 0.0 } else { NET_RTT_MS };
    let events = traced_from.map(|base| ctx.cluster.faults().events_since(base));
    let mut account = TaskAccount {
        results: Vec::with_capacity(outcomes.len()),
        node_durations: HashMap::new(),
        remote_targets: Vec::new(),
        retries: 0,
        spans: Vec::new(),
    };
    for (index, (outcome, scope)) in outcomes.into_iter().zip(scopes).enumerate() {
        let remote = outcome.target != ctx.self_node;
        if remote {
            account.remote_targets.push(outcome.target.0);
        }
        account.retries += outcome.retries;
        cost.add_node(outcome.target, &outcome.cost);
        account
            .node_durations
            .entry(outcome.target)
            .or_default()
            .push(outcome.cost.total_ms() + if remote { task_rtt } else { 0.0 });
        if let Some(events) = &events {
            account.spans.push(task_span(ctx.cluster, index, &outcome, scope, events));
        }
        account.results.push(outcome.result);
    }
    account
}

/// Trace span of one task, with the fault events scoped to it. Everything
/// recorded is a deterministic function of the workload and fault seed,
/// independent of `executor_threads` (§6).
fn task_span(
    cluster: &Arc<Cluster>,
    index: usize,
    outcome: &TaskOutcome,
    scope: &str,
    events: &[netsim::fault::FaultEvent],
) -> Span {
    let mut span = Span::new("task")
        .with("index", index)
        .with("node", node_label(cluster, outcome.target))
        .with("shards", scope);
    if outcome.local {
        span.set("exec", "local");
    }
    if outcome.retries > 0 {
        span.set("retries", outcome.retries);
        span.set("backoff_ms", crate::trace::fmt_ms(outcome.backoff_ms));
    }
    span.set("service_ms", crate::trace::fmt_ms(outcome.cost.total_ms()));
    if outcome.cost.batches > 0 {
        span.set("vectorized", "true");
        span.set("batches", outcome.cost.batches);
    }
    let mut hits: Vec<_> = events.iter().filter(|e| e.scope == scope).collect();
    // arrival order varies across thread interleavings; sort by the
    // event's deterministic identity instead
    hits.sort_by(|a, b| {
        (&a.rule, &a.tag, a.phase as u8, a.node).cmp(&(&b.rule, &b.tag, b.phase as u8, b.node))
    });
    for e in hits {
        span.child(
            Span::new("fault")
                .with("rule", &e.rule)
                .with("tag", &e.tag)
                .with("phase", format!("{:?}", e.phase))
                .with("kind", format!("{:?}", e.kind)),
        );
    }
    span
}

/// Virtual elapsed time of a statement's task phase.
struct Schedule {
    elapsed_ms: f64,
    /// `pool` trace spans for slow-start growth, in NodeId order for
    /// determinism; empty unless the statement is traced.
    pools: Vec<Span>,
}

/// Slow-start schedule per node over the durations the account phase booked;
/// lanes a statement opens stay in the session's virtual pool. A COPY does
/// not slow-start: like Citus, it opens one connection per shard placement
/// at once, so each batch has its own lane (the node's cores still bound
/// them), and it leaves the pool as it found it.
/// Slow-start interval of the adaptive executor, in virtual ms (§3.6.1).
const SLOW_START_INTERVAL_MS: f64 = 10.0;

fn schedule_nodes(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    node_durations: &HashMap<NodeId, Vec<f64>>,
    copy: bool,
) -> Schedule {
    let limit = cluster.connection_limit() as usize;
    let mut node_times = Vec::with_capacity(node_durations.len());
    let mut grown: Vec<(NodeId, String)> = Vec::new();
    for (node, durations) in node_durations {
        let pooled = state.virtual_lanes.get(node).copied().unwrap_or(1);
        let existing = if copy { durations.len() } else { pooled };
        let (t, lanes) = slow_start_schedule(
            durations,
            SLOW_START_INTERVAL_MS,
            CONNECT_MS,
            limit,
            CORES,
            existing,
        );
        if !copy {
            state.virtual_lanes.insert(*node, lanes.max(existing));
        }
        if state.trace.is_some() && lanes > existing {
            grown.push((*node, format!("{existing}->{lanes}")));
        }
        node_times.push(t);
    }
    grown.sort();
    let pools = grown
        .into_iter()
        .map(|(node, lanes)| {
            Span::new("pool").with("node", node_label(cluster, node)).with("lanes", lanes)
        })
        .collect();
    Schedule { elapsed_ms: makespan::cluster_makespan(&node_times), pools }
}

/// A statement's wire exchanges: what it is charged and what its trace shows.
struct WireAccount {
    /// `pipelined` (rode the transaction's open exchange), `exchange`, or
    /// `local` (nothing left the node).
    label: &'static str,
    /// `batch` trace span of a pipelined statement with remote tasks:
    /// exchanges opened and tasks that shared one.
    batch: Option<Span>,
    /// Round-trip latency the statement pays.
    stmt_rtt: f64,
}

/// Network latency and the session's pipeline state. Pipelined: the
/// statement's per-worker task batches go out as one wire exchange each and
/// overlap — one RTT per statement — and a statement riding its
/// transaction's open exchange pays none. Legacy (pipeline off): per-task
/// RTTs entered the durations in the account phase, plus the same one
/// statement RTT.
fn account_wire(
    ctx: &StmtCtx,
    state: &mut SessionState,
    sole_remote: Option<u32>,
    riding: bool,
    remote_targets: &[u32],
) -> WireAccount {
    let any_remote = !remote_targets.is_empty();
    let mut batch = None;
    if ctx.cluster.config.pipeline {
        let planned = netsim::pipeline::plan_batches(remote_targets);
        let (exchanges, coalesced) = if riding {
            (0, remote_targets.len())
        } else {
            (planned.exchanges(), planned.coalesced())
        };
        let metrics = &ctx.cluster.metrics;
        metrics.pipeline_exchanges.fetch_add(exchanges as u64, Ordering::Relaxed);
        metrics.pipeline_coalesced.fetch_add(coalesced as u64, Ordering::Relaxed);
        if any_remote && state.trace.is_some() {
            batch =
                Some(Span::new("batch").with("exchanges", exchanges).with("coalesced", coalesced));
        }
        match sole_remote {
            // leave this worker's exchange open for the next statement
            Some(node) if riding || (ctx.in_txn && any_remote) => {
                state.pipeline.note_statement(node);
            }
            // multi-node fan-out is a sync point; purely-local statements
            // leave the open exchange untouched
            _ if any_remote => state.pipeline.sync(),
            _ => {}
        }
        if !ctx.in_txn {
            state.pipeline.sync();
        }
    }
    let (label, stmt_rtt) = if riding {
        ("pipelined", 0.0)
    } else if any_remote {
        ("exchange", NET_RTT_MS)
    } else {
        ("local", 0.0)
    };
    WireAccount { label, batch, stmt_rtt }
}

/// Trace assembly, in task order (never in completion order): task spans
/// with their scoped fault events, then the wire batch, pool growth, and the
/// merge step.
fn trace_statement(
    root: &mut Span,
    tasks: Vec<Span>,
    wire: WireAccount,
    pools: Vec<Span>,
    merge: &Merge,
    merged: &merge::Merged,
) {
    root.set("wire", wire.label);
    let merge_span = Span::new("merge")
        .with("kind", merge.label())
        .with("rows", merged.rows.len())
        .with("affected", merged.affected);
    for span in tasks.into_iter().chain(wire.batch).chain(pools).chain([merge_span]) {
        root.child(span);
    }
}

/// Display label for a node in trace spans (name when known).
pub(crate) fn node_label(cluster: &Arc<Cluster>, node: NodeId) -> String {
    cluster.node(node).map(|n| n.name.clone()).unwrap_or_else(|_| format!("node-{}", node.0))
}

/// Execute one task in the client's own backend — local execution, the
/// worker half of MX mode: the placement lives on the coordinating node, so
/// the statement never touches the connection fabric. Runs under the
/// session's own transaction (snapshot and locks shared with any local
/// writes), with the same fault windows a WorkerConn round has: a *before*
/// fault means the request never ran, an *after* fault loses the reply.
fn run_local_task(
    ctx: &StmtCtx,
    session: &mut pgmini::session::Session,
    task: &Task,
    scope: &str,
) -> PgResult<TaskOutcome> {
    use netsim::fault::{FaultOp, FaultPhase};
    let (cluster, self_node) = (ctx.cluster, ctx.self_node);
    let tag = crate::cluster::stmt_tag(&task.stmt);
    cluster.fault_point(self_node, FaultOp::Statement, tag, scope, FaultPhase::Before)?;
    if !cluster.node(self_node)?.is_active() {
        return Err(PgError::new(ErrorCode::ConnectionFailure, "local node is down"));
    }
    // worker-side placement fence: a rebalancer move may have switched this
    // task's placement away between planning and execution — a write landing
    // in the orphan source copy would be silently lost when the source is
    // dropped. Re-check fresh metadata before the write lands (a pure
    // metadata read: no virtual cost, so steady-state fencing is free).
    if task.is_write && cluster.config.mx_fencing {
        let meta = cluster.metadata.read_recursive();
        for sid in &task.shards {
            let placed = meta.shard(*sid).map(|s| s.placements.contains(&self_node));
            if !placed.unwrap_or(false) {
                return Err(PgError::new(
                    ErrorCode::SerializationFailure,
                    format!(
                        "shard {} was moved off this node by a concurrent rebalance \
                         (plan is stale; retry)",
                        sid.0
                    ),
                ));
            }
        }
    }
    let result = match task.copy_batch() {
        Some((copy, rows)) => QueryResult::Affected(session.run_as_statement(|s| {
            s.copy_rows(&copy.table, &copy.columns, rows.to_vec())
        })?),
        None => {
            // the local task evaluates under the same snapshot token its
            // remote siblings carry; the client session's own token state is
            // untouched
            let saved = session.snapshot_token();
            session.set_snapshot_token(ctx.token);
            let result = session.execute_local(&task.stmt);
            session.set_snapshot_token(saved);
            result?
        }
    };
    let cost = session.last_cost();
    cluster.fault_point(self_node, FaultOp::Statement, tag, scope, FaultPhase::After)?;
    cluster.metrics.local_exec_tasks.fetch_add(1, Ordering::Relaxed);
    Ok(TaskOutcome { result, cost, target: self_node, retries: 0, backoff_ms: 0.0, local: true })
}

/// Fault-injection scope naming one task: its shard set (`"s102008"`,
/// `"s102008+s102010"`). Stable across thread counts and retries, so scoped
/// fault rules pin to a task deterministically under parallelism. Built once
/// per task and shared by every run of it and by its trace span.
fn task_scope(task: &Task) -> String {
    let mut s = String::new();
    for sid in &task.shards {
        if !s.is_empty() {
            s.push('+');
        }
        s.push('s');
        s.push_str(&sid.0.to_string());
    }
    s
}

/// Shared connection pool for one statement's fan-out: per node, a stack of
/// connections with the session pool key they came from (`None` = freshly
/// dialled by a fan-out worker).
type FanOutPool = Mutex<HashMap<NodeId, Vec<(Option<ConnKey>, WorkerConn)>>>;

/// Where a read task stands when it pauses, resumes or gives up: attempt
/// counters plus the node it should try next.
struct TaskResume {
    attempt: u32,
    retries: u64,
    backoff_ms: f64,
    target: NodeId,
}

/// A read task run to its end: its outcome, or its error with the counters
/// of its last attempt.
type TaskEnd = Result<TaskOutcome, (PgError, TaskResume)>;

/// One pass of a read task: ended, or paused because finishing would mean
/// failing over to *another* node's engine (see `fan_out_read_tasks` —
/// cross-node work is replayed sequentially so each engine sees a
/// thread-count-independent access order).
enum TaskRun {
    Ended(TaskEnd),
    Deferred(TaskResume),
}

/// Execute one read task against the shared pool: checkout-or-dial, retry
/// with capped exponential backoff on connection failures, fail over to a
/// surviving placement when the target node is down. Runs to completion on
/// any thread; never touches the virtual clock or shared counters (the
/// post-pass owns those, in task order). The task pauses instead of
/// switching nodes. `round` is the wire round of the node batch the task
/// belongs to.
/// Times the executor re-attempts an idempotent read task after a connection
/// failure (writes are never retried).
pub const TASK_RETRIES: u32 = 2;
/// First retry backoff in virtual ms; doubles per attempt.
const RETRY_BACKOFF_MS: f64 = 10.0;
/// Cap on the exponential retry backoff, in virtual ms.
const RETRY_BACKOFF_CAP_MS: f64 = 80.0;

fn run_read_task(
    ctx: &StmtCtx,
    pool: &FanOutPool,
    task: &Task,
    scope: &str,
    resume: TaskResume,
    round: &mut WireRound,
) -> TaskRun {
    let TaskResume { mut attempt, mut retries, mut backoff_ms, target } = resume;
    loop {
        attempt += 1;
        let pooled = pool.lock().get_mut(&target).and_then(Vec::pop);
        let acquired = match pooled {
            Some(conn) => Ok(conn),
            None => ctx.cluster.connect_scoped(target, scope).map(|c| (None, c)),
        };
        let err = match acquired {
            Ok((origin, mut conn)) => {
                let out = conn.execute_task(round, task, scope, ctx.token);
                // a broken socket is never pooled again
                if !out.as_ref().is_err_and(is_connection_failure) {
                    pool.lock().entry(target).or_default().push((origin, conn));
                }
                match out {
                    Ok((result, cost)) => {
                        return TaskRun::Ended(Ok(TaskOutcome {
                            result,
                            cost,
                            target,
                            retries,
                            backoff_ms,
                            local: false,
                        }));
                    }
                    Err(e) => e,
                }
            }
            Err(e) => e,
        };
        if !is_connection_failure(&err) || attempt > TASK_RETRIES {
            return TaskRun::Ended(Err((err, TaskResume { attempt, retries, backoff_ms, target })));
        }
        retries += 1;
        // the batch's exchange died with the failure: the retry replays
        // per-statement and pays its own round trip
        *round = WireRound::new();
        backoff_ms += (RETRY_BACKOFF_MS * (1u64 << (attempt - 1).min(16)) as f64)
            .min(RETRY_BACKOFF_CAP_MS);
        if let Some(alt) = surviving_placement(ctx.cluster, task, target) {
            return TaskRun::Deferred(TaskResume { attempt, retries, backoff_ms, target: alt });
        }
    }
}

/// Fan independent read tasks out over the configured executor threads and
/// return their outcomes in task order.
///
/// Determinism contract — identical observable effects at any thread count:
/// * connection-establishment cost is pre-charged once per distinct node
///   whose session pool was empty (in task order), instead of per real dial;
/// * workers run every task to completion without touching shared state;
/// * a post-pass in task order applies backoff (virtual clock + net cost),
///   and — on failure — reports the lowest-indexed failing task's error with
///   exactly the retries a sequential run would have seen;
/// * the session pool is restored to the sequential steady state: original
///   pooled connections keep their keys, and nodes dialled fresh keep
///   exactly one new connection.
fn fan_out_read_tasks(
    ctx: &StmtCtx,
    state: &mut SessionState,
    tasks: &[(&Task, &str)],
    cost: &mut DistCost,
) -> PgResult<Vec<TaskOutcome>> {
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let cluster = ctx.cluster;
    // Phase 1 — parallelism is *across nodes*, never within one: tasks are
    // grouped by target node (first-appearance order) and each group runs
    // sequentially in task-index order. An engine's shared state (buffer
    // pool residency above all) then sees the same access sequence at any
    // thread count, which is what keeps traced per-task costs — who pays a
    // shared relation's cold misses — byte-identical at 1 and 8 threads.
    // A task that must fail over to another node's engine is deferred.
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for (i, (task, _)) in tasks.iter().enumerate() {
        match groups.iter_mut().find(|(n, _)| *n == task.node) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((task.node, vec![i])),
        }
    }
    // pre-charge connects: one per distinct node with no pooled connection,
    // in task order (what a sequential run would have dialled)
    for (node, _) in &groups {
        if !state.conns.keys().any(|(n, _)| n == node) {
            cost.net_ms += CONNECT_MS;
        }
    }
    // seed the shared pool from the session's idle connections
    let mut idle: HashMap<NodeId, Vec<(Option<ConnKey>, WorkerConn)>> = HashMap::new();
    for (key, conn) in state.conns.extract_if(|_, c| !c.in_txn_block) {
        idle.entry(key.0).or_default().push((Some(key), conn));
    }
    let pool: FanOutPool = Mutex::new(idle);

    // every thread — the session's own included, the only one at
    // `executor_threads = 1` — claims whole groups until none are left
    let threads = cluster.config.executor_threads.max(1).min(groups.len());
    let next_group = AtomicUsize::new(0);
    let runs: Mutex<Vec<(usize, TaskRun)>> = Mutex::new(Vec::with_capacity(tasks.len()));
    let run_groups = || {
        while let Some((_, idxs)) = groups.get(next_group.fetch_add(1, Ordering::Relaxed)) {
            let mut round = WireRound::new();
            for &i in idxs {
                let (task, scope) = tasks[i];
                let fresh =
                    TaskResume { attempt: 0, retries: 0, backoff_ms: 0.0, target: task.node };
                let run = run_read_task(ctx, &pool, task, scope, fresh, &mut round);
                runs.lock().push((i, run));
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(run_groups);
        }
        run_groups();
    });
    let mut runs = runs.into_inner();
    runs.sort_unstable_by_key(|(i, _)| *i);

    // Phase 2 — deferred cross-node failovers replay sequentially in task
    // order, so the surviving node's engine also sees a deterministic order;
    // a task resumed on a survivor that fails over again resumes again.
    let ends: Vec<TaskEnd> = runs
        .into_iter()
        .map(|(i, mut run)| loop {
            match run {
                TaskRun::Ended(end) => break end,
                TaskRun::Deferred(resume) => {
                    let (task, scope) = tasks[i];
                    run = run_read_task(ctx, &pool, task, scope, resume, &mut WireRound::new());
                }
            }
        })
        .collect();

    // restore the session pool to the sequential steady state: original
    // connections return under their keys; a node dialled fresh keeps exactly
    // one (what a sequential run would have dialled); extras drop, releasing
    // their slots
    for (node, conns) in pool.into_inner() {
        let (keyed, fresh): (Vec<_>, Vec<_>) =
            conns.into_iter().partition(|(origin, _)| origin.is_some());
        let kept = if keyed.is_empty() { fresh.into_iter().take(1).collect() } else { keyed };
        for (origin, conn) in kept {
            let key = origin.unwrap_or_else(|| state.new_key(node));
            state.conns.insert(key, conn);
        }
    }

    // deterministic post-pass, in task order, replaying the sequential
    // account: tasks before the first failure completed (their retries and
    // backoff count), the failing task gave up after its own, and later
    // tasks never ran
    let mut outcomes = Vec::with_capacity(ends.len());
    let (mut retries, mut backoff_ms, mut failure) = (0u64, 0.0f64, None);
    for end in ends {
        match end {
            Ok(outcome) => {
                retries += outcome.retries;
                backoff_ms += outcome.backoff_ms;
                outcomes.push(outcome);
            }
            Err((err, at)) => {
                retries += at.retries;
                backoff_ms += at.backoff_ms;
                failure = Some(err);
                break;
            }
        }
    }
    cluster.clock.advance_micros((backoff_ms * 1000.0) as u64);
    cost.net_ms += backoff_ms;
    match failure {
        // the statement ends here, so its retries are noted here; a
        // statement that goes on notes them in its account phase
        Some(err) => {
            cluster.note_task_retries(retries);
            Err(err)
        }
        None => Ok(outcomes),
    }
}

/// Another active node holding every shard this task touches, if the current
/// target is down. Only replicated shards (reference tables) have one; hash
/// shards are single-placement, so their reads re-try the original node and
/// surface the failure once attempts run out.
fn surviving_placement(
    cluster: &Arc<Cluster>,
    task: &crate::planner::Task,
    current: NodeId,
) -> Option<NodeId> {
    let node_up =
        |n: NodeId| cluster.node(n).map(|nd| nd.is_active()).unwrap_or(false);
    if node_up(current) || task.shards.is_empty() {
        // a transient fault on a live node: re-trying in place is right
        return None;
    }
    let meta = cluster.metadata.read_recursive();
    let mut candidates: Option<Vec<NodeId>> = None;
    for sid in &task.shards {
        let placements = meta.shard(*sid).ok()?.placements.clone();
        candidates = Some(match candidates {
            None => placements,
            Some(prev) => prev.into_iter().filter(|n| placements.contains(n)).collect(),
        });
    }
    candidates?.into_iter().find(|n| *n != current && node_up(*n))
}

/// Drop all temp tables recorded in the session state.
pub fn cleanup_temp_tables(cluster: &Arc<Cluster>, state: &mut SessionState) -> PgResult<()> {
    let temps = std::mem::take(&mut state.temp_tables);
    for (node, table) in temps {
        // direct engine access: temp cleanup is maintenance, not query work
        let engine = cluster.node(node)?.engine();
        let _ = engine.ddl_drop_table(&table, true);
    }
    Ok(())
}

/// Execute one prep step: run its inner (distributed) select via the
/// extension, then create and load the temp tables.
fn run_prep_step(
    cluster: &Arc<Cluster>,
    session: &mut pgmini::session::Session,
    state: &mut SessionState,
    step: &PrepStep,
    self_node: NodeId,
    cost: &mut DistCost,
) -> PgResult<()> {
    let (select, columns) = match step {
        PrepStep::Broadcast { select, columns, .. } => (select, columns),
        PrepStep::Repartition { select, columns, .. } => (select, columns),
    };
    // run the source select through the full distributed pipeline; as a
    // statement of its own it drops the session's temp tables when it ends,
    // so the ones earlier steps loaded are set aside meanwhile
    let ext = cluster.extension(self_node)?;
    let earlier = std::mem::take(&mut state.temp_tables);
    let rows = ext.run_select_distributed(session, select, state);
    state.temp_tables.splice(0..0, earlier);
    let rows = rows?;
    let defs: Vec<ColumnDef> = columns
        .iter()
        .zip(infer_column_types(&rows, columns.len()))
        .map(|(name, ty)| ColumnDef {
            name: name.clone(),
            ty,
            not_null: false,
            primary_key: false,
            unique: false,
            default: None,
            references: None,
        })
        .collect();

    match step {
        PrepStep::Broadcast { temp_table, nodes, .. } => {
            for node in nodes {
                create_and_load(cluster, state, *node, temp_table, &defs, rows.clone(), cost)?;
            }
        }
        PrepStep::Repartition { temp_prefix, partition_col, bucket_nodes, .. } => {
            // hash-partition rows over equal ranges, like shard pruning does
            let n = bucket_nodes.len().max(1);
            let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n];
            for row in rows {
                let h = crate::metadata::dist_hash(&row[*partition_col]);
                buckets[crate::metadata::bucket_of(h, n)].push(row);
            }
            for (i, (node, bucket_rows)) in bucket_nodes.iter().zip(buckets).enumerate() {
                let table = format!("{temp_prefix}_{i}");
                create_and_load(cluster, state, *node, &table, &defs, bucket_rows, cost)?;
            }
        }
    }
    Ok(())
}

fn create_and_load(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    node: NodeId,
    table: &str,
    columns: &[ColumnDef],
    rows: Vec<Row>,
    cost: &mut DistCost,
) -> PgResult<()> {
    let (key, mut conn) =
        task_conn(cluster, state, node, None, false, &mut WireRound::new(), cost)?;
    let create = Statement::CreateTable(Box::new(CreateTable {
        name: table.to_string(),
        if_not_exists: false,
        columns: columns.to_vec(),
        constraints: Vec::new(),
        using: None,
    }));
    // the CREATE TABLE and the COPY travel as one wire round, which moves
    // the intermediate rows: its round trip and their transfer elapse
    // before the statement's tasks can start
    let wire_ms = NET_RTT_MS + rows.len() as f64 * NET_TUPLE_MS;
    let mut round = WireRound::new();
    let loaded = conn.execute_in(&mut round, &create).and_then(|(_, create_cost)| {
        let (_, copy_cost) = conn.copy_rows(&mut round, table, &[], rows)?;
        Ok((create_cost, copy_cost))
    });
    state.checkin(key, conn, None);
    let (create_cost, copy_cost) = loaded?;
    cost.net_ms += wire_ms;
    cost.add_node(node, &create_cost);
    cost.add_node(node, &copy_cost);
    cost.elapsed_ms += wire_ms + create_cost.total_ms() + copy_cost.total_ms();
    state.temp_tables.push((node, table.to_string()));
    Ok(())
}

/// Infer temp-table column types from materialised rows (Text when unknown).
fn infer_column_types(rows: &[Row], arity: usize) -> Vec<TypeName> {
    let mut types = vec![None; arity];
    for row in rows {
        for (i, d) in row.iter().enumerate().take(arity) {
            if types[i].is_none() {
                types[i] = d.type_name();
            }
        }
        if types.iter().all(Option::is_some) {
            break;
        }
    }
    types.into_iter().map(|t| t.unwrap_or(TypeName::Text)).collect()
}

/// Coordinator decides task errors for connection failures should roll back
/// distributed transactions; surfaced as a helper for the HA tests.
pub fn is_connection_failure(e: &PgError) -> bool {
    e.code == ErrorCode::ConnectionFailure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_single_short_tasks_use_one_lane() {
        // 32 tasks of 0.5ms each: all finish before the first 10ms tick
        let durations = vec![0.5; 32];
        let (t, lanes) = slow_start_schedule(&durations, 10.0, 15.0, 100, 16, 1);
        assert_eq!(lanes, 1, "short tasks never open extra connections");
        assert!((t - 16.0).abs() < 1e-9);
    }

    #[test]
    fn slow_start_long_tasks_fan_out() {
        // 8 tasks of 100ms: lanes open as ticks pass
        let durations = vec![100.0; 8];
        let (t, lanes) = slow_start_schedule(&durations, 10.0, 15.0, 100, 16, 1);
        assert!(lanes > 1, "long tasks must fan out");
        assert!(t < 800.0, "parallelism beats serial: {t}");
    }

    #[test]
    fn slow_start_respects_shared_limit() {
        let durations = vec![100.0; 32];
        let (_, lanes) = slow_start_schedule(&durations, 10.0, 15.0, 3, 16, 1);
        assert!(lanes <= 3);
    }

    #[test]
    fn slow_start_respects_cores_in_makespan() {
        // 32 long tasks on a 4-core node: even with 32 lanes the node can
        // only run 4 at full speed
        let durations = vec![50.0; 32];
        let (t, _) = slow_start_schedule(&durations, 1.0, 0.0, 100, 4, 1);
        assert!(t >= 32.0 * 50.0 / 4.0 - 1e-6);
    }

    #[test]
    fn infer_types_from_rows() {
        use pgmini::types::Datum;
        let rows = vec![
            vec![Datum::Null, Datum::from_text("x")],
            vec![Datum::Int(5), Datum::Null],
        ];
        assert_eq!(infer_column_types(&rows, 2), vec![TypeName::Int, TypeName::Text]);
        assert_eq!(infer_column_types(&[], 2), vec![TypeName::Text, TypeName::Text]);
    }
}
