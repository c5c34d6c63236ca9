//! Distributed COPY (§3.8).
//!
//! The coordinator parses/partitions the incoming rows single-threaded (the
//! Figure 7a bottleneck at high node counts) and streams per-shard batches to
//! the workers, where heap + index work proceeds in parallel — which is why
//! even Citus 0+1 beats plain PostgreSQL on ingest with big GIN indexes.

use crate::cluster::Cluster;
use crate::cost::DistCost;
use crate::metadata::{NodeId, PartitionMethod};
use netsim::makespan;
use pgmini::cost::SimCost;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::Session;
use pgmini::types::Row;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Name the failing shard and node in a COPY error so a multi-gigabyte load
/// that dies mid-stream is diagnosable (the error code is preserved — the
/// caller still distinguishes connection failures from constraint errors).
fn copy_error(shard: &str, node: NodeId, e: PgError) -> PgError {
    PgError::new(e.code, format!("COPY to shard {shard} on node {}: {}", node.0, e.message))
}

/// COPY rows into a citrus table, fanning out per shard. Returns rows loaded.
pub fn distributed_copy(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<u64> {
    let meta = cluster.metadata.read_recursive();
    let Some(dt) = meta.table(table) else {
        drop(meta);
        // plain local table: fall through to the engine's COPY
        return session.copy_rows_local(table, columns, rows);
    };
    let model = cluster.config.engine.cost;
    let mut dist = DistCost::default();
    // coordinator-side parse/route cost: single-threaded per row. CSV/JSON
    // parsing plus per-shard routing is a large constant fraction of COPY
    // (the paper's Figure 7a bottleneck at 8 workers).
    let parse_ms = model.cpu_tuple_ms * 60.0 * rows.len() as f64;

    let total = rows.len() as u64;
    match dt.method {
        PartitionMethod::Reference => {
            let sid = dt.shards[0];
            let shard = meta.shard(sid)?;
            let physical = shard.physical_name();
            let placements = shard.placements.clone();
            drop(meta);
            let mut node_times = Vec::new();
            for node in placements {
                let mut conn = cluster.connect(node).map_err(|e| copy_error(&physical, node, e))?;
                let (_, cost) = conn
                    .copy_rows(&physical, columns, rows.clone())
                    .map_err(|e| copy_error(&physical, node, e))?;
                dist.add_node(node, &cost);
                node_times.push(cost.total_ms());
                dist.net_ms += conn.rtt_ms() + rows.len() as f64 * model.net_tuple_ms;
            }
            dist.elapsed_ms =
                parse_ms + makespan::cluster_makespan(&node_times, 0.0) + model.net_rtt_ms;
        }
        PartitionMethod::Hash => {
            let (_, dist_idx) = dt
                .dist_column
                .clone()
                .ok_or_else(|| PgError::internal("hash table without dist column"))?;
            // map the dist column through an explicit column list
            let value_idx = if columns.is_empty() {
                dist_idx
            } else {
                let dist_name = &dt.dist_column.as_ref().expect("hash").0;
                columns.iter().position(|c| c == dist_name).ok_or_else(|| {
                    PgError::new(
                        ErrorCode::NotNullViolation,
                        format!("COPY must include the distribution column \"{dist_name}\""),
                    )
                })?
            };
            // partition rows per bucket. Batches stream in bucket-index
            // order: which shards a mid-COPY fault leaves loaded, and the
            // order each node sees the batches, must not vary between runs
            let mut buckets: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
            for row in rows {
                let v = row.get(value_idx).cloned().unwrap_or(pgmini::types::Datum::Null);
                if v.is_null() {
                    return Err(PgError::new(
                        ErrorCode::NotNullViolation,
                        "distribution column value cannot be NULL",
                    ));
                }
                let b = meta.shard_index_for_value(table, &v)?;
                buckets.entry(b).or_default().push(row);
            }
            // per-shard batches stream to placements; per-node parallelism is
            // limited by cores (writes happen via concurrent shard COPYs)
            let mut per_node_costs: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
            let mut batches: Vec<(NodeId, String, Vec<Row>)> = Vec::new();
            for (b, batch) in buckets {
                let sid = dt.shards[b];
                let shard = meta.shard(sid)?;
                let node = *shard
                    .placements
                    .first()
                    .ok_or_else(|| PgError::internal("shard without placement"))?;
                batches.push((node, shard.physical_name(), batch));
            }
            drop(meta);
            for (node, physical, batch) in batches {
                let n = batch.len();
                let mut conn = cluster.connect(node).map_err(|e| copy_error(&physical, node, e))?;
                let (_, cost) = conn
                    .copy_rows(&physical, columns, batch)
                    .map_err(|e| copy_error(&physical, node, e))?;
                dist.add_node(node, &cost);
                per_node_costs.entry(node).or_default().push(cost.total_ms());
                dist.net_ms += n as f64 * model.net_tuple_ms;
            }
            let cores = cluster.config.engine.cores;
            let node_times: Vec<f64> = per_node_costs
                .values()
                .map(|ts| makespan::node_makespan(ts, cores))
                .collect();
            // elapsed: the coordinator's parse stream and the workers' heap
            // + index work overlap only partially (streaming back-pressure)
            let worker_side = makespan::cluster_makespan(&node_times, 0.0);
            let hi = parse_ms.max(worker_side);
            let lo = parse_ms.min(worker_side);
            dist.elapsed_ms = hi + 0.5 * lo + model.net_rtt_ms;
        }
    }
    let parse = SimCost { cpu_ms: parse_ms, ..SimCost::ZERO };
    session.add_cost(&SimCost { net_ms: dist.net_ms, ..parse });
    // the parse ran on the session's node; record the cost for
    // ClientSession::last_dist_cost
    let origin = cluster.node_of_engine(session.engine()).unwrap_or(NodeId(0));
    dist.add_node(origin, &parse);
    if let Ok(ext) = cluster.extension(origin) {
        ext.record_external_cost(session.id(), dist);
    }
    Ok(total)
}
