//! Distributed INSERT .. SELECT — the three strategies of §3.8. Which one
//! runs is a rendering of the co-location judgement of the source `SELECT`
//! ([`crate::planner::analysis`]), so an INSERT .. SELECT is accepted exactly
//! when its `SELECT` is and inserts exactly that `SELECT`'s rows:
//!
//! 1. **co-located pushdown**: source and target shards pair up; each worker
//!    runs `INSERT INTO target_shard SELECT .. FROM source_shard` locally, in
//!    parallel (the rollup path of Figure 2 / Figure 7c);
//! 2. **repartition**: the distributed SELECT needs no merge step but the
//!    rows land in different shards: results are re-partitioned by the
//!    target's distribution column and bulk-loaded shard-wise;
//! 3. **pull to coordinator**: the SELECT requires a coordinator merge step;
//!    run it fully, then distributed-COPY the result into the target.

use crate::cluster::Cluster;
use crate::executor::SessionState;
use crate::extension::CitrusExtension;
use crate::planner::analysis::{judge_select, Judgement};
use crate::planner::{self, Merge, PlannerKind, Task};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::{Expr, Insert, InsertSource, Statement};
use std::sync::Arc;

/// Which strategy ran (exposed for tests and EXPLAIN-style diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertSelectStrategy {
    ColocatedPushdown,
    Repartition,
    PullToCoordinator,
}

/// Execute a distributed INSERT .. SELECT.
pub fn execute(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    ins: &Insert,
) -> PgResult<QueryResult> {
    let InsertSource::Query(sel) = &ins.source else {
        return Err(PgError::internal("insert_select on VALUES insert"));
    };
    let meta = cluster.metadata.read_recursive();
    let target = meta.require_table(&ins.table)?.clone();
    planner::refuse_key_assignment(&ins.table, planner::upsert_assignments(ins), &meta)?;
    if target.is_reference() {
        drop(meta);
        return Err(PgError::unsupported(
            "INSERT .. SELECT into a reference table from distributed sources",
        ));
    }

    // strategy selection
    let strategy = choose_strategy(&meta, &target, ins, sel)?;
    state.last_insert_select = Some(strategy);
    match strategy {
        InsertSelectStrategy::ColocatedPushdown => {
            // per-bucket task: INSERT INTO target_shard SELECT .. FROM src_shard
            let stmt = Statement::Insert(Box::new(ins.clone()));
            let tasks: Vec<Task> = (0..target.shards.len())
                .map(|b| planner::bucket_task(&meta, &target, b, &stmt, true))
                .collect::<PgResult<_>>()?;
            drop(meta);
            let plan = planner::DistPlan {
                kind: PlannerKind::Pushdown,
                tasks,
                merge: Merge::AffectedSum,
                is_write: true,
                used_subplans: false,
                prep: Vec::new(),
            };
            ext.execute_plan_with_txn(session, state, &plan)
        }
        InsertSelectStrategy::Repartition | InsertSelectStrategy::PullToCoordinator => {
            drop(meta);
            // run the SELECT through the distributed pipeline
            let rows = ext.run_select_distributed(session, sel, state)?;
            // map rows to the target column order
            let n = load_rows_into_target(cluster, session, ins, rows)?;
            Ok(QueryResult::Affected(n))
        }
    }
}

fn choose_strategy(
    meta: &crate::metadata::Metadata,
    target: &crate::metadata::DistTable,
    ins: &Insert,
    sel: &sqlparse::ast::Select,
) -> PgResult<InsertSelectStrategy> {
    let Judgement::CoPartitioned(source) = judge_select(sel, meta) else {
        // reference/local sources fan out; rows that must move first are the
        // SELECT's to plan — or to refuse, with its own error
        return Ok(InsertSelectStrategy::Repartition);
    };
    // aggregates without the key in GROUP BY, DISTINCT, LIMIT all force a merge
    if source.merge_need(sel).is_some() {
        return Ok(InsertSelectStrategy::PullToCoordinator);
    }
    // co-location also requires that the target's distribution column is fed
    // by a column holding the source's key (same hash ⇒ same bucket)
    let (dist_col, dist_idx) = target
        .dist_column
        .clone()
        .ok_or_else(|| PgError::internal("hash table without dist column"))?;
    let feed_pos = if ins.columns.is_empty() {
        dist_idx
    } else {
        match ins.columns.iter().position(|c| c == &dist_col) {
            Some(p) => p,
            None => {
                return Err(PgError::new(
                    ErrorCode::NotNullViolation,
                    format!("INSERT must include the distribution column \"{dist_col}\""),
                ))
            }
        }
    };
    if source.feeds(sel, target, feed_pos) {
        Ok(InsertSelectStrategy::ColocatedPushdown)
    } else {
        Ok(InsertSelectStrategy::Repartition)
    }
}

/// Load materialised SELECT rows into the target via the distributed COPY
/// path (the repartition / pull strategies share this data plane).
fn load_rows_into_target(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    ins: &Insert,
    rows: Vec<Row>,
) -> PgResult<u64> {
    if ins.on_conflict.is_some() {
        // ON CONFLICT upserts can't go through COPY; route row-wise inserts
        let mut n = 0;
        for row in rows {
            let values: Vec<Expr> = row.iter().map(pgmini::expr::datum_expr).collect();
            let stmt = Statement::Insert(Box::new(Insert {
                table: ins.table.clone(),
                columns: ins.columns.clone(),
                source: InsertSource::Values(vec![values]),
                on_conflict: ins.on_conflict.clone(),
            }));
            n += session.execute_stmt(&stmt)?.affected();
        }
        return Ok(n);
    }
    crate::copy::distributed_copy(cluster, session, &ins.table, &ins.columns, rows)
}
