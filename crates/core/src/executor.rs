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
//! Independent read tasks outside a transaction additionally fan out over
//! **real OS threads** ([`ClusterConfig::executor_threads`]): workers pull
//! tasks from a shared queue, execute them over pooled-or-fresh connections,
//! and a deterministic post-pass on the session thread folds outcomes back
//! in *task order* — so rows, costs, retry counts, and virtual-clock
//! advances are identical at any thread count, and `executor_threads = 1`
//! is simply the degenerate case of the same code path. Writes and
//! in-transaction statements stay on the session thread, where placement
//! affinity and remote transaction blocks live.

use crate::cluster::{Cluster, WorkerConn};
use crate::cost::DistCost;
use crate::metadata::NodeId;
use crate::planner::join_order::PrepStep;
use crate::planner::{merge, DistPlan, Merge, SortCol, Task};
use netsim::makespan;
use netsim::pipeline::WireRound;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::QueryResult;
use pgmini::types::{Row, SortKey};
use sqlparse::ast::{ColumnDef, CreateTable, Statement, TypeName};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Result of executing a distributed plan.
pub struct ExecutorOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub affected: u64,
    pub cost: DistCost,
    /// Peak virtual connections used on any single node (slow-start stats).
    pub peak_connections: usize,
    /// Read-task attempts that failed with a connection error and were
    /// re-tried (on the same node or a surviving placement).
    pub retries: u64,
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
    ) -> PgResult<pgmini::cost::SimCost> {
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
#[allow(clippy::too_many_arguments)]
fn task_conn(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    node: NodeId,
    group: Option<(u32, usize)>,
    in_txn: bool,
    dist_txn: Option<pgmini::lock::DistTxnId>,
    round: &mut WireRound,
    cost: &mut DistCost,
) -> PgResult<(ConnKey, WorkerConn, bool)> {
    let (key, mut conn, fresh) = match state.checkout(node, group) {
        Some((k, c)) => (k, c, false),
        None => {
            let c = cluster.connect(node)?;
            cost.net_ms += c.connect_cost_ms();
            (state.new_key(node), c, true)
        }
    };
    if in_txn && !conn.in_txn_block {
        conn.execute_in(round, &Statement::Begin)?;
        if let Some(d) = dist_txn {
            conn.assign_dist_txn_id(round, d)?;
        }
        conn.in_txn_block = true;
        cost.net_ms += conn.rtt_ms();
        cost.add_node(node, &pgmini::cost::SimCost::ZERO);
    }
    Ok((key, conn, fresh))
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
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, t)| (i, *t))
            .expect("lane 0 exists");
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

    // 3. run tasks, recording per-node durations for the virtual schedule.
    // Idempotent read tasks outside a transaction block survive connection
    // failures: they re-try with capped exponential backoff on the virtual
    // clock, failing over to a surviving placement when the target node is
    // down. Writes and in-transaction reads never re-try — a lost reply
    // leaves the remote effect in doubt, which only 2PC recovery may settle.
    let mut per_node_durations: HashMap<NodeId, Vec<f64>> = HashMap::new();
    let mut results: Vec<QueryResult> = Vec::with_capacity(plan.tasks.len());
    let full_rtt = cluster.config.engine.cost.net_rtt_ms;
    let pipelined = cluster.config.pipeline;
    let local_exec = cluster.config.local_execution;
    // actual remote target per remote task, in task order (failover may move
    // a task off task.node) — drives the wire-exchange accounting
    let mut remote_targets: Vec<u32> = Vec::new();
    let mut retries_total = 0u64;
    // per-task trace rows, collected in task order: (target, retries,
    // backoff_ms, service_ms, ran locally, vectorized batches). Fault events
    // attach by scope.
    let fault_base = cluster.faults().events_len();
    let mut task_traces: Vec<(NodeId, u64, f64, f64, bool, u64)> = Vec::new();
    let tracing = state.trace.is_some();
    // a statement whose single remote target still has the transaction's
    // pipelined exchange open rides it: no new round trip
    let stmt_remote: Vec<NodeId> = {
        let mut v: Vec<NodeId> = Vec::new();
        for t in &plan.tasks {
            let local = local_exec && t.node == self_node;
            if !local && !v.contains(&t.node) {
                v.push(t.node);
            }
        }
        v
    };
    let riding = pipelined
        && in_txn
        && stmt_remote.len() == 1
        && state.pipeline.rides(stmt_remote[0].0);
    // snapshot token to piggyback on read tasks (writes always run against
    // the worker's latest snapshot — update chains need current versions)
    let token = if plan.is_write { None } else { state.snapshot_token };
    if !in_txn && !plan.is_write {
        // read fan-out: threaded when configured, inline otherwise — one
        // code path, deterministic outcomes either way. Tasks whose
        // placement lives on this node run inline in the client's backend
        // (local execution); only remote tasks enter the fan-out.
        let is_local: Vec<bool> =
            plan.tasks.iter().map(|t| local_exec && t.node == self_node).collect();
        let remote_tasks: Vec<Task> = plan
            .tasks
            .iter()
            .zip(&is_local)
            .filter(|(_, l)| !**l)
            .map(|(t, _)| t.clone())
            .collect();
        let per_task =
            fan_out_read_tasks(cluster, state, &remote_tasks, token, &mut cost)?;
        let mut remote_iter = per_task.into_iter();
        for (task, local) in plan.tasks.iter().zip(&is_local) {
            if *local {
                match run_local_task(cluster, session, task, self_node, token) {
                    Ok((result, local_cost)) => {
                        cost.add_node(self_node, &local_cost);
                        per_node_durations
                            .entry(self_node)
                            .or_default()
                            .push(local_cost.total_ms());
                        if tracing {
                            task_traces.push((
                                self_node,
                                0,
                                0.0,
                                local_cost.total_ms(),
                                true,
                                local_cost.batches,
                            ));
                        }
                        results.push(result);
                    }
                    Err(e) if is_connection_failure(&e) => {
                        // the local replica died under the read: the failed
                        // local attempt counts as one retry, then the task
                        // re-enters the normal read-retry path, which fails
                        // over to a surviving placement (replicated shards)
                        // or surfaces the error once attempts run out
                        let fallback = fan_out_read_tasks(
                            cluster,
                            state,
                            std::slice::from_ref(task),
                            token,
                            &mut cost,
                        )?;
                        let (result, remote_cost, target, retries, backoff_ms) = fallback
                            .into_iter()
                            .next()
                            .expect("one fallback outcome for one task");
                        let rtt =
                            if pipelined || target == self_node { 0.0 } else { full_rtt };
                        if target != self_node {
                            remote_targets.push(target.0);
                        }
                        retries_total += retries + 1;
                        cost.add_node(target, &remote_cost);
                        per_node_durations
                            .entry(target)
                            .or_default()
                            .push(remote_cost.total_ms() + rtt);
                        if tracing {
                            task_traces.push((
                                target,
                                retries + 1,
                                backoff_ms,
                                remote_cost.total_ms(),
                                false,
                                remote_cost.batches,
                            ));
                        }
                        results.push(result);
                    }
                    Err(e) => return Err(e),
                }
            } else {
                let (result, remote_cost, target, retries, backoff_ms) =
                    remote_iter.next().expect("one fan-out outcome per remote task");
                let rtt = if pipelined || target == self_node { 0.0 } else { full_rtt };
                if target != self_node {
                    remote_targets.push(target.0);
                }
                retries_total += retries;
                cost.add_node(target, &remote_cost);
                per_node_durations.entry(target).or_default().push(remote_cost.total_ms() + rtt);
                if tracing {
                    task_traces.push((
                        target,
                        retries,
                        backoff_ms,
                        remote_cost.total_ms(),
                        false,
                        remote_cost.batches,
                    ));
                }
                results.push(result);
            }
        }
    } else {
        // session-thread path: writes and in-transaction statements, where
        // placement affinity binds shard groups to connections and a lost
        // reply must surface immediately (never re-tried)
        // the statement is one wire round however many workers its tasks
        // land on (`stmt_rtt` below charges the same); riding the
        // transaction's open exchange, it pays none
        let mut round = if riding { WireRound::riding() } else { WireRound::new() };
        for task in &plan.tasks {
            let target = task.node;
            if local_exec && target == self_node {
                // local execution: the task runs in the client's own
                // backend — same transaction, no connection, no wire
                let task_token = if task.is_write { None } else { token };
                let (result, local_cost) =
                    run_local_task(cluster, session, task, self_node, task_token)?;
                if task.is_write && in_txn {
                    state.local_writes = true;
                }
                cost.add_node(target, &local_cost);
                per_node_durations.entry(target).or_default().push(local_cost.total_ms());
                if tracing {
                    task_traces.push((
                        target,
                        0,
                        0.0,
                        local_cost.total_ms(),
                        true,
                        local_cost.batches,
                    ));
                }
                results.push(result);
                continue;
            }
            let bind_group = if in_txn { task.group } else { None };
            let (key, mut conn, _fresh) = task_conn(
                cluster, state, target, task.group, in_txn, state.dist_txn, &mut round, &mut cost,
            )?;
            conn.fault_scope = task_scope(task);
            conn.snapshot_token = if task.is_write { None } else { token };
            let outcome = conn.execute_in(&mut round, &task.stmt);
            conn.fault_scope.clear();
            conn.snapshot_token = None;
            if task.is_write {
                conn.used_for_writes = true;
            }
            let (result, remote_cost) = match outcome {
                Ok(ok) => {
                    state.checkin(key, conn, bind_group);
                    ok
                }
                Err(e) => {
                    if is_connection_failure(&e) {
                        // a broken connection never recovers: drop it (and
                        // any affinity pointing at it) like a broken socket
                        state.affinity.retain(|_, k| *k != key);
                        drop(conn);
                    } else {
                        state.checkin(key, conn, bind_group);
                    }
                    return Err(e);
                }
            };
            let rtt = if pipelined || target == self_node { 0.0 } else { full_rtt };
            if target != self_node {
                remote_targets.push(target.0);
            }
            cost.add_node(target, &remote_cost);
            per_node_durations.entry(target).or_default().push(remote_cost.total_ms() + rtt);
            if tracing {
                task_traces.push((
                    target,
                    0,
                    0.0,
                    remote_cost.total_ms(),
                    false,
                    remote_cost.batches,
                ));
            }
            results.push(result);
        }
    }
    let any_remote = !remote_targets.is_empty();
    cluster.note_task_retries(retries_total);
    state.last_retries = retries_total;

    // 4. virtual elapsed time: slow-start schedule per node
    let cores = cluster.config.engine.cores;
    let slow_start = cluster.config.slow_start_interval_ms;
    let connect_ms = cluster.config.engine.cost.connect_ms;
    let limit = cluster.connection_limit() as usize;
    let mut node_times = Vec::new();
    let mut peak = 0usize;
    // (node, lanes before, lanes after) — slow-start pool growth, traced in
    // NodeId order for determinism
    let mut lane_traces: Vec<(NodeId, usize, usize)> = Vec::new();
    for (node, durations) in &per_node_durations {
        let existing = state.virtual_lanes.get(node).copied().unwrap_or(1);
        let (t, lanes) =
            slow_start_schedule(durations, slow_start, connect_ms, limit, cores, existing);
        state.virtual_lanes.insert(*node, lanes.max(existing));
        if tracing {
            lane_traces.push((*node, existing, lanes.max(existing)));
        }
        node_times.push(t);
        peak = peak.max(lanes);
    }
    lane_traces.sort_by_key(|(n, _, _)| *n);
    let mut elapsed = makespan::cluster_makespan(&node_times, 0.0);

    // 5. merge
    let model = cluster.config.engine.cost;
    let output = match &plan.merge {
        Merge::PassThrough => {
            let first = results.into_iter().next().unwrap_or(QueryResult::Empty);
            match first {
                QueryResult::Rows { columns, rows } => (columns, rows, 0),
                QueryResult::Affected(n) => (Vec::new(), Vec::new(), n),
                QueryResult::Empty => (Vec::new(), Vec::new(), 0),
            }
        }
        Merge::AffectedSum => {
            let n = results.iter().map(QueryResult::affected).sum();
            (Vec::new(), Vec::new(), n)
        }
        Merge::AffectedFirst => {
            let n = results.first().map(QueryResult::affected).unwrap_or(0);
            (Vec::new(), Vec::new(), n)
        }
        Merge::Concat { sort, limit, offset, distinct, visible, appended } => {
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
            let merge_cpu = model.cpu_tuple_ms * rows.len() as f64;
            cost.coordinator.add_cpu(merge_cpu);
            elapsed += merge_cpu;
            // a wildcard projection's arity is only known now; hidden sort
            // columns always sit at the end of the worker rows
            let arity = rows.first().map(|r| r.len()).unwrap_or(columns.len());
            let visible =
                if *visible == usize::MAX { arity.saturating_sub(*appended) } else { *visible };
            let resolve = |c: &SortCol| match c {
                SortCol::Index(i) => *i,
                SortCol::Appended(j) => arity.saturating_sub(*appended) + j,
            };
            if *distinct {
                let mut seen = std::collections::BTreeSet::new();
                rows.retain(|r| seen.insert(SortKey(r[..visible.min(r.len())].to_vec())));
            }
            if !sort.is_empty() {
                rows.sort_by(|a, b| {
                    for (col, desc) in sort {
                        let idx = resolve(col);
                        let ord = a[idx].total_cmp(&b[idx]);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            if let Some(off) = offset {
                let off = (*off as usize).min(rows.len());
                rows.drain(..off);
            }
            if let Some(lim) = limit {
                rows.truncate(*lim as usize);
            }
            for r in &mut rows {
                r.truncate(visible);
            }
            columns.truncate(visible);
            (columns, rows, 0)
        }
        Merge::GroupAgg(mplan) => {
            let mut rows: Vec<Row> = Vec::new();
            for r in results {
                if let QueryResult::Rows { rows: mut rs, .. } = r {
                    rows.append(&mut rs);
                }
            }
            let (merged, work) = merge::execute_merge(mplan, rows)?;
            let merge_cpu = model.cpu_tuple_ms * (work as f64 + merged.len() as f64);
            cost.coordinator.add_cpu(merge_cpu);
            elapsed += merge_cpu;
            let columns = (0..mplan.visible).map(|i| format!("column{i}")).collect();
            (columns, merged, 0)
        }
    };

    // network latency. Pipelined: the statement's per-worker task batches
    // go out as one wire exchange each and overlap — one RTT per statement —
    // and a statement riding its transaction's open exchange pays none.
    // Legacy (pipeline off): per-task RTTs entered the durations above, plus
    // the same one statement RTT.
    let batch = netsim::pipeline::plan_batches(&remote_targets);
    let stmt_rtt = if riding || !any_remote { 0.0 } else { full_rtt };
    if pipelined {
        if riding {
            state.pipeline.note_statement(stmt_remote[0].0);
            cluster.metrics.pipeline_coalesced.fetch_add(
                remote_targets.len() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        } else {
            cluster.metrics.pipeline_exchanges.fetch_add(
                batch.exchanges() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            cluster.metrics.pipeline_coalesced.fetch_add(
                batch.coalesced() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            if in_txn && any_remote && stmt_remote.len() == 1 {
                // leave this worker's exchange open for the next statement
                state.pipeline.note_statement(stmt_remote[0].0);
            } else if any_remote {
                // multi-node fan-out is a sync point
                state.pipeline.sync();
            }
            // purely-local statements leave the open exchange untouched
        }
        if !in_txn {
            state.pipeline.sync();
        }
    }
    cost.net_ms += stmt_rtt;
    elapsed += stmt_rtt;
    cost.elapsed_ms = elapsed;

    // trace assembly, in task order (never in completion order): task spans
    // with their scoped fault events, then pool growth, then the merge step.
    // Everything recorded here is a deterministic function of the workload
    // and fault seed, independent of executor_threads (§6).
    if let Some(root) = &mut state.trace {
        root.set("wire", if riding { "pipelined" } else if any_remote { "exchange" } else { "local" });
        let events = cluster.faults().events_since(fault_base);
        for (i, ((target, retries, backoff_ms, service_ms, local, batches), task)) in
            task_traces.iter().zip(&plan.tasks).enumerate()
        {
            let mut span = crate::trace::Span::new("task")
                .with("index", i)
                .with("node", node_label(cluster, *target))
                .with("shards", task_scope(task));
            if *local {
                span.set("exec", "local");
            }
            if *retries > 0 {
                span.set("retries", retries);
                span.set("backoff_ms", crate::trace::fmt_ms(*backoff_ms));
            }
            span.set("service_ms", crate::trace::fmt_ms(*service_ms));
            if *batches > 0 {
                span.set("vectorized", "true");
                span.set("batches", batches);
            }
            let scope = task_scope(task);
            let mut hits: Vec<&netsim::fault::FaultEvent> =
                events.iter().filter(|e| e.scope == scope).collect();
            // arrival order varies across thread interleavings; sort by the
            // event's deterministic identity instead
            hits.sort_by(|a, b| {
                (&a.rule, &a.tag, a.phase as u8, a.node)
                    .cmp(&(&b.rule, &b.tag, b.phase as u8, b.node))
            });
            for e in hits {
                span.child(
                    crate::trace::Span::new("fault")
                        .with("rule", &e.rule)
                        .with("tag", &e.tag)
                        .with("phase", format!("{:?}", e.phase))
                        .with("kind", format!("{:?}", e.kind)),
                );
            }
            root.child(span);
        }
        if pipelined && any_remote {
            root.child(
                crate::trace::Span::new("batch")
                    .with("exchanges", if riding { 0 } else { batch.exchanges() })
                    .with(
                        "coalesced",
                        if riding { remote_targets.len() } else { batch.coalesced() },
                    ),
            );
        }
        for (node, before, after) in &lane_traces {
            if after > before {
                root.child(
                    crate::trace::Span::new("pool")
                        .with("node", node_label(cluster, *node))
                        .with("lanes", format!("{before}->{after}")),
                );
            }
        }
        let merge_label = match &plan.merge {
            Merge::PassThrough => "pass_through",
            Merge::AffectedSum => "affected_sum",
            Merge::AffectedFirst => "affected_first",
            Merge::Concat { .. } => "concat",
            Merge::GroupAgg(_) => "group_agg",
        };
        root.child(
            crate::trace::Span::new("merge")
                .with("kind", merge_label)
                .with("rows", output.1.len())
                .with("affected", output.2),
        );
    }

    // 6. statement-scoped temp tables are dropped when not in a transaction
    if !in_txn {
        cleanup_temp_tables(cluster, state)?;
    }
    state.stmt_cost.add(&cost);

    Ok(ExecutorOutput {
        columns: output.0,
        rows: output.1,
        affected: output.2,
        cost,
        peak_connections: peak,
        retries: retries_total,
    })
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
    cluster: &Arc<Cluster>,
    session: &mut pgmini::session::Session,
    task: &Task,
    self_node: NodeId,
    token: Option<u64>,
) -> PgResult<(QueryResult, pgmini::cost::SimCost)> {
    use netsim::fault::{FaultOp, FaultPhase};
    let tag = crate::cluster::stmt_tag(&task.stmt);
    let scope = task_scope(task);
    cluster.fault_point(self_node, FaultOp::Statement, tag, &scope, FaultPhase::Before)?;
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
    // the local task evaluates under the same snapshot token its remote
    // siblings carry; the client session's own token state is untouched
    let saved = session.snapshot_token();
    session.set_snapshot_token(token);
    let result = session.execute_local(&task.stmt);
    session.set_snapshot_token(saved);
    let result = result?;
    let local_cost = session.last_cost();
    cluster.fault_point(self_node, FaultOp::Statement, tag, &scope, FaultPhase::After)?;
    cluster
        .metrics
        .local_exec_tasks
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok((result, local_cost))
}

/// Fault-injection scope naming one task: its shard set (`"s102008"`,
/// `"s102008+s102010"`). Stable across thread counts and retries, so scoped
/// fault rules pin to a task deterministically under parallelism.
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

/// Outcome of one fan-out task, folded back in task order by the post-pass.
struct TaskOutcome {
    result: PgResult<(QueryResult, pgmini::cost::SimCost)>,
    target: NodeId,
    retries: u64,
    /// Virtual backoff this task accrued; applied to the clock and cost
    /// deterministically by the post-pass, not at retry time.
    backoff_ms: f64,
}

/// Where a read task stands when it pauses or resumes: attempt counters plus
/// the node it should try next.
struct TaskResume {
    attempt: u32,
    retries: u64,
    backoff_ms: f64,
    target: NodeId,
}

/// Phase-1 outcome of a read task: finished, or paused because finishing
/// would mean failing over to *another* node's engine (see
/// `fan_out_read_tasks` — cross-node work is replayed sequentially so each
/// engine sees a thread-count-independent access order).
enum TaskRun {
    Done(TaskOutcome),
    Deferred(TaskResume),
}

/// Execute one read task against the shared pool: checkout-or-dial, retry
/// with capped exponential backoff on connection failures, fail over to a
/// surviving placement when the target node is down. Runs to completion on
/// any thread; never touches the virtual clock or shared counters (the
/// post-pass owns those, in task order). With `defer_failover`, the task
/// pauses instead of switching nodes. `round` is the wire round of the node
/// batch the task belongs to.
fn run_read_task(
    cluster: &Arc<Cluster>,
    pool: &FanOutPool,
    task: &Task,
    max_attempts: u32,
    resume: TaskResume,
    defer_failover: bool,
    round: &mut WireRound,
    token: Option<u64>,
) -> TaskRun {
    let scope = task_scope(task);
    let TaskResume { mut attempt, mut retries, mut backoff_ms, mut target } = resume;
    loop {
        attempt += 1;
        let pooled = pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&target)
            .and_then(Vec::pop);
        let acquired = match pooled {
            Some((origin, conn)) => Ok((origin, conn)),
            None => cluster.connect_scoped(target, &scope).map(|c| (None, c)),
        };
        let err = match acquired {
            Ok((origin, mut conn)) => {
                conn.fault_scope = scope.clone();
                conn.snapshot_token = token;
                match conn.execute_in(round, &task.stmt) {
                    Ok(ok) => {
                        conn.fault_scope.clear();
                        conn.snapshot_token = None;
                        pool.lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .entry(target)
                            .or_default()
                            .push((origin, conn));
                        return TaskRun::Done(TaskOutcome {
                            result: Ok(ok),
                            target,
                            retries,
                            backoff_ms,
                        });
                    }
                    Err(e) => {
                        if is_connection_failure(&e) {
                            drop(conn); // broken socket: never pool it again
                        } else {
                            conn.fault_scope.clear();
                            conn.snapshot_token = None;
                            pool.lock()
                                .unwrap_or_else(|x| x.into_inner())
                                .entry(target)
                                .or_default()
                                .push((origin, conn));
                        }
                        e
                    }
                }
            }
            Err(e) => e,
        };
        if !is_connection_failure(&err) || attempt >= max_attempts {
            return TaskRun::Done(TaskOutcome { result: Err(err), target, retries, backoff_ms });
        }
        retries += 1;
        // the batch's exchange died with the failure: the retry replays
        // per-statement and pays its own round trip
        *round = WireRound::new();
        backoff_ms += (cluster.config.retry_backoff_ms * (1u64 << (attempt - 1).min(16)) as f64)
            .min(cluster.config.retry_backoff_cap_ms);
        if let Some(alt) = surviving_placement(cluster, task, target) {
            if defer_failover {
                return TaskRun::Deferred(TaskResume { attempt, retries, backoff_ms, target: alt });
            }
            target = alt;
        }
    }
}

/// Fan independent read tasks out over the configured executor threads.
///
/// Determinism contract — identical observable effects at any thread count:
/// * connection-establishment cost is pre-charged once per distinct node
///   whose session pool was empty (in task order), instead of per real dial;
/// * workers run every task to completion without touching shared state;
/// * a post-pass in task order applies retry counts, backoff (virtual clock
///   + net cost), and — on failure — reports the lowest-indexed failing
///   task's error with exactly the retries a sequential run would have seen;
/// * the session pool is restored to the sequential steady state: original
///   pooled connections keep their keys, and nodes dialled fresh keep
///   exactly one new connection.
fn fan_out_read_tasks(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    tasks: &[Task],
    token: Option<u64>,
    cost: &mut DistCost,
) -> PgResult<Vec<(QueryResult, pgmini::cost::SimCost, NodeId, u64, f64)>> {
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let connect_ms = cluster.config.engine.cost.connect_ms;
    // pre-charge connects: one per distinct node with no pooled connection,
    // in task order (what a sequential run would have dialled)
    let mut charged: Vec<NodeId> = Vec::new();
    for task in tasks {
        let node = task.node;
        if !charged.contains(&node) && !state.conns.keys().any(|(n, _)| *n == node) {
            cost.net_ms += connect_ms;
            charged.push(node);
        }
    }

    // seed the shared pool from the session's idle connections
    let pool: FanOutPool = Mutex::new(HashMap::new());
    {
        let idle: Vec<ConnKey> = state
            .conns
            .iter()
            .filter(|(_, c)| !c.in_txn_block)
            .map(|(k, _)| *k)
            .collect();
        let mut p = pool.lock().unwrap_or_else(|e| e.into_inner());
        for key in idle {
            if let Some(conn) = state.conns.remove(&key) {
                p.entry(key.0).or_default().push((Some(key), conn));
            }
        }
    }

    let max_attempts = 1 + cluster.config.task_retries;
    let fresh = |task: &Task| TaskResume {
        attempt: 0,
        retries: 0,
        backoff_ms: 0.0,
        target: task.node,
    };

    // Phase 1 — parallelism is *across nodes*, never within one: tasks are
    // grouped by target node (first-appearance order) and each group runs
    // sequentially in task-index order. An engine's shared state (buffer
    // pool residency above all) then sees the same access sequence at any
    // thread count, which is what keeps traced per-task costs — who pays a
    // shared relation's cold misses — byte-identical at 1 and 8 threads.
    // A task that must fail over to another node's engine is deferred.
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        match groups.iter_mut().find(|(n, _)| *n == task.node) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((task.node, vec![i])),
        }
    }
    let threads = cluster.config.executor_threads.max(1).min(groups.len());
    let mut runs: Vec<Option<TaskRun>> = (0..tasks.len()).map(|_| None).collect();
    if threads <= 1 {
        for (_, idxs) in &groups {
            let mut round = WireRound::new();
            for &i in idxs {
                runs[i] = Some(run_read_task(
                    cluster,
                    &pool,
                    &tasks[i],
                    max_attempts,
                    fresh(&tasks[i]),
                    true,
                    &mut round,
                    token,
                ));
            }
        }
    } else {
        let slots: Mutex<Vec<Option<TaskRun>>> =
            Mutex::new((0..tasks.len()).map(|_| None).collect());
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    let mut round = WireRound::new();
                    for &i in &groups[g].1 {
                        let run = run_read_task(
                            cluster,
                            &pool,
                            &tasks[i],
                            max_attempts,
                            fresh(&tasks[i]),
                            true,
                            &mut round,
                            token,
                        );
                        slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(run);
                    }
                });
            }
        });
        runs = slots.into_inner().unwrap_or_else(|e| e.into_inner());
    }

    // Phase 2 — deferred cross-node failovers replay sequentially in task
    // order, so the surviving node's engine also sees a deterministic order.
    let mut outcomes: Vec<Option<TaskOutcome>> = Vec::with_capacity(tasks.len());
    for (i, run) in runs.into_iter().enumerate() {
        outcomes.push(match run {
            Some(TaskRun::Done(o)) => Some(o),
            Some(TaskRun::Deferred(resume)) => {
                let mut round = WireRound::new();
                match run_read_task(
                    cluster, &pool, &tasks[i], max_attempts, resume, false, &mut round, token,
                ) {
                    TaskRun::Done(o) => Some(o),
                    TaskRun::Deferred(_) => unreachable!("defer_failover=false never defers"),
                }
            }
            None => None,
        });
    }

    // restore the session pool to the sequential steady state
    {
        let mut p = pool.into_inner().unwrap_or_else(|e| e.into_inner());
        for (node, conns) in p.drain() {
            let (keyed, fresh): (Vec<_>, Vec<_>) =
                conns.into_iter().partition(|(origin, _)| origin.is_some());
            if !keyed.is_empty() {
                // original connections return under their keys; fresh extras
                // drop (and release their slots)
                for (origin, mut conn) in keyed {
                    conn.fault_scope.clear();
                    conn.snapshot_token = None;
                    state.conns.insert(origin.expect("keyed"), conn);
                }
            } else if let Some((_, mut conn)) = fresh.into_iter().next() {
                // a sequential run would have dialled exactly one
                conn.fault_scope.clear();
                conn.snapshot_token = None;
                let key = state.new_key(node);
                state.conns.insert(key, conn);
            }
        }
    }

    // deterministic post-pass, in task order
    let first_fail = outcomes
        .iter()
        .position(|o| matches!(o, Some(TaskOutcome { result: Err(_), .. }) | None));
    if let Some(f) = first_fail {
        // replay the sequential account: tasks before `f` completed (their
        // retries and backoff count), task `f` failed after its own
        let mut retries = 0u64;
        let mut backoff = 0.0f64;
        for o in outcomes.iter().take(f).flatten() {
            retries += o.retries;
            backoff += o.backoff_ms;
        }
        let err = match outcomes.into_iter().nth(f).flatten() {
            Some(o) => {
                retries += o.retries;
                backoff += o.backoff_ms;
                o.result.err().expect("first_fail is Err")
            }
            None => PgError::internal("fan-out worker panicked"),
        };
        cluster.clock.advance_micros((backoff * 1000.0) as u64);
        cost.net_ms += backoff;
        cluster.note_task_retries(retries);
        return Err(err);
    }
    let mut backoff_total = 0.0f64;
    let mut out = Vec::with_capacity(outcomes.len());
    for o in outcomes.into_iter().flatten() {
        backoff_total += o.backoff_ms;
        let (result, remote_cost) = o.result.expect("no failures past first_fail check");
        out.push((result, remote_cost, o.target, o.retries, o.backoff_ms));
    }
    cluster.clock.advance_micros((backoff_total * 1000.0) as u64);
    cost.net_ms += backoff_total;
    Ok(out)
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
    // run the source select through the full distributed pipeline
    let ext = cluster.extension(self_node)?;
    let rows = ext.run_select_distributed(session, select, state)?;
    let col_types = infer_column_types(&rows, columns.len());

    match step {
        PrepStep::Broadcast { temp_table, nodes, .. } => {
            for node in nodes {
                create_and_load(
                    cluster, state, *node, temp_table, columns, &col_types, rows.clone(), cost,
                )?;
            }
        }
        PrepStep::Repartition { temp_prefix, partition_col, bucket_nodes, .. } => {
            // hash-partition rows over equal ranges, like shard pruning does
            let n = bucket_nodes.len().max(1);
            let width = (u32::MAX as u64 + 1) / n as u64;
            let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); n];
            for row in rows {
                let h = crate::metadata::dist_hash(&row[*partition_col]);
                let idx = ((h as u64) / width).min(n as u64 - 1) as usize;
                buckets[idx].push(row);
            }
            for (i, (node, bucket_rows)) in bucket_nodes.iter().zip(buckets).enumerate() {
                let table = format!("{temp_prefix}_{i}");
                create_and_load(
                    cluster, state, *node, &table, columns, &col_types, bucket_rows, cost,
                )?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn create_and_load(
    cluster: &Arc<Cluster>,
    state: &mut SessionState,
    node: NodeId,
    table: &str,
    columns: &[String],
    col_types: &[TypeName],
    rows: Vec<Row>,
    cost: &mut DistCost,
) -> PgResult<()> {
    let (key, mut conn, _) =
        task_conn(cluster, state, node, None, false, None, &mut WireRound::new(), cost)?;
    let create = Statement::CreateTable(Box::new(CreateTable {
        name: table.to_string(),
        if_not_exists: false,
        columns: columns
            .iter()
            .zip(col_types)
            .map(|(name, ty)| ColumnDef {
                name: name.clone(),
                ty: *ty,
                not_null: false,
                primary_key: false,
                unique: false,
                default: None,
                references: None,
            })
            .collect(),
        constraints: Vec::new(),
        using: None,
    }));
    let create_result = conn.execute_stmt(&create);
    let load_result = match &create_result {
        Ok(_) => {
            let moved = rows.len() as u64;
            let r = conn.copy_rows(table, &[], rows);
            // moving intermediate results costs network transfer time
            cost.net_ms += conn.rtt_ms()
                + moved as f64 * cluster.config.engine.cost.net_tuple_ms;
            r.map(|(_, c)| c)
        }
        Err(e) => Err(e.clone()),
    };
    state.checkin(key, conn, None);
    match load_result {
        Ok(remote_cost) => {
            cost.add_node(node, &remote_cost);
            cost.elapsed_ms += remote_cost.total_ms();
            state.temp_tables.push((node, table.to_string()));
            Ok(())
        }
        Err(e) => Err(e),
    }
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

/// Did this statement's tasks write on more than one node? Used to decide
/// between single-node delegation and 2PC.
pub fn write_nodes(tasks: &[Task]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> =
        tasks.iter().filter(|t| t.is_write).map(|t| t.node).collect();
    nodes.sort();
    nodes.dedup();
    nodes
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
