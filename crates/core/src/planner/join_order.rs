//! Tier 4: the logical join-order planner (§3.5, Figure 4D).
//!
//! Handles joins that are *not* co-located by moving data: either
//! **broadcast** (replicate the smaller relation next to every shard of the
//! anchor) or **repartition** (hash-partition both sides on the join key and
//! join bucket-wise). The planner picks the join order / strategy that
//! minimises network traffic, estimated from table row counts.
//!
//! Both strategies materialise *intermediate results* as prep steps the
//! distributed executor runs before the main tasks — the "subplans whose
//! results need to be broadcast or re-partitioned" of §3.5.

use super::analysis::{judge_select, CoPartitioned, Judgement, KeyColumns, MergeNeed, Reason};
use super::merge::{split_aggregation, split_concat};
use super::rewrite;
use super::{bucket_task, DistPlan, PlannerKind, SubplanExecutor, Task};
use crate::metadata::{Metadata, NodeId};
use pgmini::error::{PgError, PgResult};
use pgmini::plan::is_aggregate_query;
use sqlparse::ast::{Select, SelectItem, Statement, TableRef};

/// Environment the join-order planner needs beyond metadata.
pub trait JoinOrderEnv: SubplanExecutor {
    /// Total live rows of a distributed table (sum over shards).
    fn table_row_count(&mut self, table: &str) -> PgResult<u64>;
    /// Column names of a table (from the shell table's schema).
    fn table_column_names(&mut self, table: &str) -> PgResult<Vec<String>>;
}

/// A data-movement step executed before the main tasks.
#[derive(Debug, Clone)]
pub enum PrepStep {
    /// Run `select` (distributed), create `temp_table` on each node in
    /// `nodes` with `columns`, and load the full result everywhere.
    Broadcast {
        select: Select,
        temp_table: String,
        columns: Vec<String>,
        nodes: Vec<NodeId>,
    },
    /// Run `select` (distributed), hash-partition rows on column
    /// `partition_col` into `bucket_nodes.len()` buckets, and load bucket i
    /// into `{temp_prefix}_{i}` on `bucket_nodes[i]`.
    Repartition {
        select: Select,
        temp_prefix: String,
        columns: Vec<String>,
        partition_col: usize,
        bucket_nodes: Vec<NodeId>,
    },
}

impl PrepStep {
    /// Temp tables created on each node (for cleanup).
    pub fn temp_tables(&self) -> Vec<(NodeId, String)> {
        match self {
            PrepStep::Broadcast { temp_table, nodes, .. } => {
                nodes.iter().map(|n| (*n, temp_table.clone())).collect()
            }
            PrepStep::Repartition { temp_prefix, bucket_nodes, .. } => bucket_nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, format!("{temp_prefix}_{i}")))
                .collect(),
        }
    }
}

/// How much data each strategy moves, in rows×placements (the "network
/// traffic" the paper's join-order search minimises).
fn broadcast_cost(rows: u64, nodes: usize) -> u64 {
    rows.saturating_mul(nodes as u64)
}

fn repartition_cost(rows_a: u64, rows_b: u64) -> u64 {
    rows_a.saturating_add(rows_b)
}

/// Try to plan a non-co-located join query.
pub fn try_join_order(
    stmt: &Statement,
    meta: &Metadata,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<Option<DistPlan>> {
    // this tier only handles SELECTs whose FROM is a flat list of base tables
    let Statement::Select(sel) = stmt else { return Ok(None) };
    let mut flat_tables: Vec<(String, String)> = Vec::new(); // (name, visible alias)
    for f in &sel.from {
        if !flatten_from(f, &mut flat_tables) {
            return Ok(None);
        }
    }
    let env = subplans
        .as_join_order_env()
        .ok_or_else(|| PgError::unsupported("non-co-located joins need executor support"))?;

    let dist: Vec<(String, String)> = flat_tables
        .iter()
        .filter(|(name, _)| meta.table(name).is_some_and(|t| !t.is_reference()))
        .cloned()
        .collect();
    if dist.len() < 2 {
        return Ok(None); // single-table cases belong to earlier tiers
    }

    // anchor: the largest distributed table stays in place
    let mut sizes: Vec<(String, String, u64)> = Vec::new();
    for (name, alias) in &dist {
        sizes.push((name.clone(), alias.clone(), env.table_row_count(name)?));
    }
    sizes.sort_by_key(|s| std::cmp::Reverse(s.2));
    let (anchor_name, anchor_alias, anchor_rows) = sizes[0].clone();
    let anchor = meta.require_table(&anchor_name)?.clone();

    // the judgement names one pair that does not meet: make its non-anchor
    // side replicated and ask again, until what stays is co-partitioned
    let (mut judged, mut remaining) = (judge_select(sel, meta), (**sel).clone());
    let mut moved: Vec<(String, String, u64)> = Vec::new();
    let mut equijoin = None;
    let stays = loop {
        match judged {
            Judgement::MustMove(
                Reason::NotColocated { a, b, equijoin: columns }
                | Reason::NotJoinedOnKey { a, b, equijoin: columns },
            ) => {
                if moved.is_empty() {
                    // what a repartition hashes on, oriented (anchor, moved)
                    equijoin = columns.map(|(x, y)| if a == anchor_alias { (x, y) } else { (y, x) });
                }
                let mover = if b == anchor_alias { a } else { b };
                let entry = sizes.iter().find(|(_, alias, _)| *alias == mover).ok_or_else(|| {
                    PgError::internal(format!("judgement names unknown relation {mover}"))
                })?;
                remaining = rewrite::rewrite_select(&remaining, &|n| {
                    (n == entry.0).then(|| format!("citrus_moved_{n}"))
                });
                moved.push(entry.clone());
                judged = judge_select(&remaining, meta);
            }
            Judgement::CoPartitioned(cp) => break cp,
            Judgement::MustMove(reason) => return Err(reason.into()),
            _ => return Ok(None),
        }
    };
    if moved.is_empty() {
        return Ok(None); // actually co-located; pushdown should have taken it
    }

    let nodes: Vec<NodeId> = {
        let mut v: Vec<NodeId> = anchor
            .shards
            .iter()
            .filter_map(|sid| meta.shard(*sid).ok())
            .flat_map(|s| s.placements.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    };

    // choose strategy: 2-way join of two large tables on a non-dist column →
    // repartition both sides; otherwise broadcast the smaller relations
    // (ascending size = minimal traffic)
    if dist.len() == 2 {
        let (m_name, _, m_rows) = moved[0].clone();
        let bcast = broadcast_cost(m_rows, nodes.len());
        let repart = repartition_cost(anchor_rows, m_rows);
        if repart < bcast {
            return plan_repartition(sel, meta, env, &anchor_name, &m_name, equijoin, &nodes)
                .map(Some);
        }
    }
    plan_broadcast(sel, meta, env, &anchor, &moved, &nodes, &stays).map(Some)
}

fn flatten_from(t: &TableRef, out: &mut Vec<(String, String)>) -> bool {
    match t {
        TableRef::Table { name, alias } => {
            out.push((name.clone(), alias.clone().unwrap_or_else(|| name.clone())));
            true
        }
        TableRef::Join { left, right, .. } => {
            flatten_from(left, out) && flatten_from(right, out)
        }
        TableRef::Subquery { .. } => false,
    }
}

/// `SELECT * FROM name`: what a prep step moves.
fn select_all(name: &str) -> Select {
    Select {
        projection: vec![SelectItem::Wildcard],
        from: vec![TableRef::Table { name: name.to_string(), alias: None }],
        ..Select::empty()
    }
}

/// Broadcast strategy: replicate each moved table to every anchor node as a
/// temp table, then push the rewritten join down per anchor shard.
fn plan_broadcast(
    sel: &Select,
    meta: &Metadata,
    env: &mut dyn JoinOrderEnv,
    anchor: &crate::metadata::DistTable,
    moved: &[(String, String, u64)],
    nodes: &[NodeId],
    stays: &CoPartitioned,
) -> PgResult<DistPlan> {
    let mut prep = Vec::new();
    let mut rename: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    // broadcast in ascending size order (the paper's traffic-minimising order)
    let mut order: Vec<&(String, String, u64)> = moved.iter().collect();
    order.sort_by_key(|(_, _, r)| *r);
    for (i, (name, _alias, _rows)) in order.iter().enumerate() {
        let temp = format!("citrus_bcast_{i}_{name}");
        let columns = env.table_column_names(name)?;
        prep.push(PrepStep::Broadcast {
            select: select_all(name),
            temp_table: temp.clone(),
            columns,
            nodes: nodes.to_vec(),
        });
        rename.insert(name.clone(), temp);
    }
    // main query: moved tables → temp names; anchor & co-located → shards
    let main = rewrite::rewrite_select(sel, &|n| rename.get(n).cloned());
    finish_fanout_plan(&main, meta, anchor, prep, stays)
}

/// Repartition strategy: hash both sides on the join key into N buckets and
/// join bucket-wise on the worker nodes.
fn plan_repartition(
    sel: &Select,
    meta: &Metadata,
    env: &mut dyn JoinOrderEnv,
    a_name: &str,
    b_name: &str,
    equijoin: Option<(String, String)>,
    workers: &[NodeId],
) -> PgResult<DistPlan> {
    let Some((a_col, b_col)) = equijoin else {
        return Err(PgError::unsupported(
            "cartesian products between distributed tables are not supported",
        ));
    };
    let a_cols = env.table_column_names(a_name)?;
    let b_cols = env.table_column_names(b_name)?;
    let a_key = a_cols
        .iter()
        .position(|c| c == &a_col)
        .ok_or_else(|| PgError::undefined_column(&a_col))?;
    let b_key = b_cols
        .iter()
        .position(|c| c == &b_col)
        .ok_or_else(|| PgError::undefined_column(&b_col))?;

    // partition count: one bucket per worker node, round-robin placement
    let bucket_count = (workers.len() * 4).max(4);
    let bucket_nodes: Vec<NodeId> =
        (0..bucket_count).map(|i| workers[i % workers.len()]).collect();

    let prep = vec![
        PrepStep::Repartition {
            select: select_all(a_name),
            temp_prefix: format!("citrus_repart_a_{a_name}"),
            columns: a_cols,
            partition_col: a_key,
            bucket_nodes: bucket_nodes.clone(),
        },
        PrepStep::Repartition {
            select: select_all(b_name),
            temp_prefix: format!("citrus_repart_b_{b_name}"),
            columns: b_cols,
            partition_col: b_key,
            bucket_nodes: bucket_nodes.clone(),
        },
    ];

    // per-bucket tasks: query with both tables renamed to the bucket temps
    let split = if is_aggregate_query(sel) {
        split_aggregation(sel, &KeyColumns::default())
            .map_err(|e| PgError::unsupported(format!("repartitioned aggregate: {}", e.message)))?
    } else {
        split_concat(sel)?
    };
    let mut tasks = Vec::with_capacity(bucket_count);
    for (i, node) in bucket_nodes.iter().enumerate() {
        let a_temp = format!("citrus_repart_a_{a_name}_{i}");
        let b_temp = format!("citrus_repart_b_{b_name}_{i}");
        let rewritten = rewrite::rewrite_select(&split.worker, &|n| {
            if n == a_name {
                Some(a_temp.clone())
            } else if n == b_name {
                Some(b_temp.clone())
            } else {
                meta.reference_shard_name(n)
            }
        });
        let stmt = std::sync::Arc::new(Statement::Select(Box::new(rewritten)));
        tasks.push(Task::new(*node, None, stmt, false, vec![]));
    }
    Ok(DistPlan {
        kind: PlannerKind::JoinOrder,
        tasks,
        merge: split.merge,
        is_write: false,
        used_subplans: true,
        prep,
    })
}

/// Build per-anchor-bucket tasks from a main query whose moved tables were
/// already renamed, splitting aggregates when needed.
fn finish_fanout_plan(
    main: &Select,
    meta: &Metadata,
    anchor: &crate::metadata::DistTable,
    prep: Vec<PrepStep>,
    stays: &CoPartitioned,
) -> PgResult<DistPlan> {
    let split = if stays.merge_need(main) == Some(MergeNeed::Aggregate) {
        split_aggregation(main, &stays.key)?
    } else {
        split_concat(main)?
    };
    let worker = Statement::Select(Box::new(split.worker));
    let tasks: Vec<Task> = (0..anchor.shards.len())
        .map(|b| bucket_task(meta, anchor, b, &worker, false))
        .collect::<PgResult<_>>()?;
    Ok(DistPlan {
        kind: PlannerKind::JoinOrder,
        tasks,
        merge: split.merge,
        is_write: false,
        used_subplans: true,
        prep,
    })
}
