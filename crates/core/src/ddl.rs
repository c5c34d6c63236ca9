//! Distributed DDL propagation (§3.8): CREATE INDEX / DROP TABLE / TRUNCATE /
//! VACUUM on citrus tables run against every shard, inside a parallel
//! distributed transaction (multi-node DDL commits via 2PC like any other
//! multi-node write).

use crate::cluster::Cluster;
use crate::executor::SessionState;
use crate::extension::CitrusExtension;
use crate::metadata::{Metadata, NodeId, Shard};
use crate::planner::{DistPlan, Merge, PlannerKind, Task};
use pgmini::error::PgResult;
use pgmini::session::{QueryResult, Session};
use sqlparse::ast::{CreateIndex, Statement};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Does this utility statement involve citrus tables?
pub fn touches_citrus(stmt: &Statement, meta: &Metadata) -> bool {
    match stmt {
        Statement::CreateIndex(ci) => meta.is_citrus_table(&ci.table),
        Statement::DropTable { names, .. } => names.iter().any(|n| meta.is_citrus_table(n)),
        Statement::Truncate { tables } => tables.iter().any(|t| meta.is_citrus_table(t)),
        Statement::Vacuum { table: Some(t) } => meta.is_citrus_table(t),
        _ => false,
    }
}

/// Propagate a utility statement to all shards of the citrus tables it
/// names.
pub fn propagate(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    stmt: &Statement,
) -> PgResult<QueryResult> {
    match stmt {
        Statement::CreateIndex(ci) => propagate_create_index(ext, cluster, session, state, ci),
        Statement::DropTable { names, if_exists } => {
            drop_tables(ext, cluster, session, state, names, *if_exists)
        }
        Statement::Truncate { tables } => {
            let plan = placement_plan(cluster, tables, true, |shard, _| Statement::Truncate {
                tables: vec![shard.physical_name()],
            })?;
            // bump the generation *before* the fan-out so pinned MX sessions
            // fence at their next statement boundary, and clear any holder
            // that would otherwise block the shard truncates forever
            {
                let mut meta = cluster.metadata.write();
                for t in tables {
                    meta.note_ddl(t);
                }
            }
            fence_blockers(cluster, state, &plan)?;
            ext.execute_plan_with_txn(session, state, &plan)?;
            Ok(QueryResult::Empty)
        }
        Statement::Vacuum { table: Some(t) } => {
            let plan = placement_plan(cluster, std::slice::from_ref(t), false, |shard, _| {
                Statement::Vacuum { table: Some(shard.physical_name()) }
            })?;
            ext.execute_plan_with_txn(session, state, &plan)
        }
        other => Err(pgmini::error::PgError::internal(format!(
            "unexpected propagated DDL: {other:?}"
        ))),
    }
}

fn propagate_create_index(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    ci: &CreateIndex,
) -> PgResult<QueryResult> {
    if ci.unique {
        let meta = cluster.metadata.read_recursive();
        if let Some((column, _)) = meta.table(&ci.table).and_then(|t| t.dist_column.as_ref()) {
            crate::table_mgmt::check_unique_key(&ci.table, &ci.columns, column)?;
        }
    }
    // apply to the local shell first so future shards inherit the index
    session.execute_local(&Statement::CreateIndex(Box::new(ci.clone())))?;
    // propagated DDL is a metadata change: bump the generation so every
    // node's plan cache drops entries stamped against the old schema and
    // pinned MX sessions fence at their next statement boundary
    cluster.metadata.write().note_ddl(&ci.table);
    let plan = placement_plan(cluster, std::slice::from_ref(&ci.table), true, |shard, pi| {
        let mut shard_ci = ci.clone();
        shard_ci.name = if shard.placements.len() > 1 {
            format!("{}_{}_{}", ci.name, shard.id.0, pi)
        } else {
            format!("{}_{}", ci.name, shard.id.0)
        };
        shard_ci.table = shard.physical_name();
        Statement::CreateIndex(Box::new(shard_ci))
    })?;
    ext.execute_plan_with_txn(session, state, &plan)?;
    Ok(QueryResult::Empty)
}

fn drop_tables(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    names: &[String],
    if_exists: bool,
) -> PgResult<QueryResult> {
    for name in names {
        let is_citrus = cluster.metadata.read_recursive().is_citrus_table(name);
        if !is_citrus {
            // plain local drop
            session.execute_local(&Statement::DropTable {
                names: vec![name.clone()],
                if_exists,
            })?;
            continue;
        }
        // drop every shard, then the metadata, then the shell
        let plan = placement_plan(cluster, std::slice::from_ref(name), true, |shard, _| {
            Statement::DropTable { names: vec![shard.physical_name()], if_exists: true }
        })?;
        // fence first (generation bump + holder eviction): the per-shard
        // DROPs below take table-exclusive locks and must not stall behind
        // an idle-in-transaction session, and no MX transaction may keep
        // writing into a shard of a dropped table
        cluster.metadata.write().note_ddl(name);
        fence_blockers(cluster, state, &plan)?;
        ext.execute_plan_with_txn(session, state, &plan)?;
        cluster.metadata.write().drop_table(name)?;
        session.execute_local(&Statement::DropTable {
            names: vec![name.clone()],
            if_exists: true,
        })?;
    }
    Ok(QueryResult::Empty)
}

/// The router plan that runs `stmt(shard, placement index)` on every
/// placement of every shard of `tables`, shard by shard.
fn placement_plan(
    cluster: &Arc<Cluster>,
    tables: &[String],
    is_write: bool,
    mut stmt: impl FnMut(&Shard, usize) -> Statement,
) -> PgResult<DistPlan> {
    let meta = cluster.metadata.read_recursive();
    let mut tasks = Vec::new();
    for t in tables {
        for sid in &meta.require_table(t)?.shards {
            let shard = meta.shard(*sid)?;
            for (pi, &node) in shard.placements.iter().enumerate() {
                let stmt = Arc::new(stmt(shard, pi));
                tasks.push(Task::new(node, None, stmt, is_write, vec![*sid]));
            }
        }
    }
    Ok(DistPlan::of(PlannerKind::Router, tasks, Merge::AffectedSum, is_write))
}

/// Fence the local holders of every shard table `plan` runs on, node by node
/// (the session's own distributed transaction excepted).
fn fence_blockers(cluster: &Arc<Cluster>, state: &SessionState, plan: &DistPlan) -> PgResult<()> {
    let mut per_node: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
    {
        let meta = cluster.metadata.read_recursive();
        for task in &plan.tasks {
            let physical = meta.shard(task.shards[0])?.physical_name();
            per_node.entry(task.node).or_default().push(physical);
        }
    }
    for (node, physical) in &per_node {
        crate::deadlock::fence_local_blockers(cluster, *node, physical, state.dist_txn)?;
    }
    Ok(())
}
