//! Distributed COPY (§3.8), planned as write tasks.
//!
//! The coordinator parses the incoming rows single-threaded (the Figure 7a
//! bottleneck at high node counts) and partitions them into per-shard
//! batches. Each batch is a write task of one statement, which the adaptive
//! executor runs inside the session's transaction like any other write: a
//! failed or rolled-back COPY leaves no rows. The workers' heap and index
//! work proceeds in parallel, which is why even Citus 0+1 beats plain
//! PostgreSQL on ingest with big GIN indexes.

use crate::executor::SessionState;
use crate::extension::CitrusExtension;
use crate::metadata::{Metadata, PartitionMethod};
use crate::planner::{self, DistPlan, Merge, PlannerKind, Task};
use pgmini::cost::{SimCost, CPU_TUPLE_MS, NET_TUPLE_MS};
use pgmini::error::PgResult;
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::{CopyStmt, Statement};
use std::sync::Arc;

/// `COPY table (columns) FROM STDIN`.
pub(crate) fn statement(table: &str, columns: &[String]) -> Statement {
    Statement::Copy(Box::new(CopyStmt {
        table: table.to_string(),
        columns: columns.to_vec(),
        from_stdin: true,
    }))
}

/// Plan a COPY into citrus table `table`: one batch per shard that receives
/// rows, in bucket order, or one per placement of a reference table. Each
/// task is `COPY shard FROM STDIN` with the batch's rows.
pub(crate) fn plan(
    meta: &Metadata,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<DistPlan> {
    let dt = meta.require_table(table)?;
    let (kind, tasks, merge) = match dt.method {
        PartitionMethod::Reference => {
            // every placement loads the same batch
            let shard = meta.shard(dt.shards[0])?;
            let (physical, rows) = (shard.physical_name(), Arc::<[Row]>::from(rows));
            let tasks = shard
                .placements
                .iter()
                .map(|&node| Task::copy(node, None, shard.id, &physical, columns, rows.clone()))
                .collect();
            (PlannerKind::Router, tasks, Merge::AffectedFirst)
        }
        PartitionMethod::Hash => {
            let buckets = planner::partition_rows(meta, dt, columns, rows, |d| Ok(d.clone()))?;
            let tasks = buckets
                .into_iter()
                .map(|(b, batch)| {
                    let (node, sid) = (planner::bucket_node_of(meta, dt, b)?, dt.shards[b]);
                    let physical = meta.shard(sid)?.physical_name();
                    let group = Some((dt.colocation_id, b));
                    Ok(Task::copy(node, group, sid, &physical, columns, batch.into()))
                })
                .collect::<PgResult<_>>()?;
            (PlannerKind::Pushdown, tasks, Merge::AffectedSum)
        }
    };
    Ok(DistPlan::of(kind, tasks, merge, true))
}

/// Run a COPY into citrus table `table` as one write statement of `session`.
/// The coordinator's per-row parse is serial work on its own node, like
/// planning, and each row's transfer is charged once per placement it
/// reaches; the executor books the rest.
pub(crate) fn execute(
    ext: &CitrusExtension,
    session: &mut Session,
    state: &mut SessionState,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<QueryResult> {
    let cluster = ext.cluster()?;
    let parse_ms = CPU_TUPLE_MS * 60.0 * rows.len() as f64;
    let plan = plan(&cluster.metadata.read_recursive(), table, columns, rows)?;
    let shipped: usize = plan.tasks.iter().filter_map(Task::copy_batch).map(|(_, r)| r.len()).sum();
    state.stmt_cost.add_node(ext.node, &SimCost { cpu_ms: parse_ms, ..SimCost::ZERO });
    state.stmt_cost.elapsed_ms += parse_ms;
    state.stmt_cost.net_ms += shipped as f64 * NET_TUPLE_MS;
    ext.execute_plan_with_txn(session, state, &plan)
}
