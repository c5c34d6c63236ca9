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
//!
//! The last two load through the write plan a COPY runs
//! ([`crate::copy::plan`]), or with `ON CONFLICT` through one multi-row
//! insert per bucket, inside the statement's transaction.

use crate::cluster::Cluster;
use crate::executor::SessionState;
use crate::extension::CitrusExtension;
use crate::planner::analysis::{judge_select, Judgement};
use crate::planner::{self, DistPlan, Merge, PlannerKind, Task};
use pgmini::error::{PgError, PgResult};
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::{Insert, InsertSource, Statement};
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
            let plan = DistPlan::of(PlannerKind::Pushdown, tasks, Merge::AffectedSum, true);
            ext.execute_plan_with_txn(session, state, &plan)
        }
        InsertSelectStrategy::Repartition | InsertSelectStrategy::PullToCoordinator => {
            drop(meta);
            // run the SELECT through the distributed pipeline
            let rows = ext.run_select_distributed(session, sel, state)?;
            load_rows_into_target(ext, cluster, session, state, ins, rows)
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
    let feed_pos = planner::key_position(target, &ins.columns)?;
    if source.feeds(sel, target, feed_pos) {
        Ok(InsertSelectStrategy::ColocatedPushdown)
    } else {
        Ok(InsertSelectStrategy::Repartition)
    }
}

/// Load materialised SELECT rows into the target: the rows a COPY would
/// load, or with `ON CONFLICT` one multi-row upsert per target bucket.
fn load_rows_into_target(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    ins: &Insert,
    rows: Vec<Row>,
) -> PgResult<QueryResult> {
    if ins.on_conflict.is_none() {
        return crate::copy::execute(ext, session, state, &ins.table, &ins.columns, rows);
    }
    let values = rows.iter().map(|row| row.iter().map(pgmini::expr::datum_expr).collect());
    let plan = planner::pushdown::plan_multi_row_insert(
        ins,
        values,
        &cluster.metadata.read_recursive(),
    )?;
    ext.execute_plan_with_txn(session, state, &plan)
}
