//! Stored-procedure delegation (§3.8).
//!
//! A procedure registered with a distribution argument and a co-located
//! table is *delegated*: when called on any node, the call is forwarded to
//! the worker owning the argument's shard, where the body runs with local
//! shard access — avoiding per-statement round trips between coordinator and
//! worker (the TPC-C optimisation of §4.1). Bodies are Rust closures over a
//! session (the PL/pgSQL stand-in); inside the body, plain SQL statements
//! route through the worker's own planner hook.

use crate::cluster::Cluster;
use crate::metadata::NodeId;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::Session;
use pgmini::types::Datum;
use std::sync::Arc;

/// A procedure body: runs against a session on the node that owns the
/// distribution argument's shard.
pub type ProcBody = Arc<dyn Fn(&mut Session, &[Datum]) -> PgResult<Datum> + Send + Sync>;

/// Register a delegated procedure on every node of the cluster. `table` is
/// the co-located distributed table and `dist_arg` the index of the argument
/// carrying the distribution value.
pub fn register_delegated_procedure(
    cluster: &Arc<Cluster>,
    name: &str,
    table: &str,
    dist_arg: usize,
    body: ProcBody,
) -> PgResult<()> {
    {
        let meta = cluster.metadata.read_recursive();
        let dt = meta.require_table(table)?;
        if dt.is_reference() {
            return Err(PgError::new(
                ErrorCode::InvalidParameter,
                "procedures delegate on distributed tables, not reference tables",
            ));
        }
    }
    let table = table.to_string();
    let proc_name = name.to_string();
    for node in cluster.nodes() {
        let weak = Arc::downgrade(cluster);
        let body = body.clone();
        let table = table.clone();
        let proc_name = proc_name.clone();
        let self_node = node.id;
        node.engine().register_udf(name, move |session, args| {
            let cluster =
                weak.upgrade().ok_or_else(|| PgError::internal("cluster gone"))?;
            let value = args.get(dist_arg).ok_or_else(|| {
                PgError::new(
                    ErrorCode::InvalidParameter,
                    format!("procedure {proc_name} needs argument {dist_arg}"),
                )
            })?;
            let target = owning_node(&cluster, &table, value)?;
            if target == self_node {
                // we own the shard: run the body here, round-trip free;
                // capture the body's statement costs and surface them as
                // this call's cost
                let ext = cluster.extension(self_node)?;
                ext.begin_cost_capture(session.id());
                let result = body(session, args);
                let cost = ext.end_cost_capture(session.id());
                // flatten into the session cost so a forwarding caller (who
                // only sees this session's cost) gets the full picture
                let flat = pgmini::cost::SimCost {
                    cpu_ms: cost.per_node.values().map(|c| c.cpu_ms).sum(),
                    io_ms: cost.per_node.values().map(|c| c.io_ms).sum(),
                    net_ms: cost.net_ms,
                    ..pgmini::cost::SimCost::ZERO
                };
                session.add_cost(&flat);
                ext.record_external_cost(session.id(), cost);
                result
            } else {
                // forward the whole call to the owning worker: one round trip
                let mut conn = cluster.connect(target)?;
                let arg_list = args
                    .iter()
                    .map(datum_sql)
                    .collect::<Vec<_>>()
                    .join(", ");
                let (result, cost) =
                    conn.execute(&format!("SELECT {proc_name}({arg_list})"))?;
                let rtt = pgmini::cost::NET_RTT_MS;
                // the worker-side wrapper folded the body's cost into the
                // remote session cost; attribute it to the owning node
                let mut dist = crate::cost::DistCost::default();
                dist.add_node(target, &cost);
                dist.net_ms = rtt;
                dist.elapsed_ms = cost.total_ms() + rtt;
                session.add_cost(&pgmini::cost::SimCost {
                    net_ms: rtt,
                    ..pgmini::cost::SimCost::ZERO
                });
                cluster.extension(self_node)?.record_external_cost(session.id(), dist);
                Ok(result.scalar().cloned().unwrap_or(Datum::Null))
            }
        });
    }
    Ok(())
}

/// The node owning the shard for `value` in `table`.
pub fn owning_node(cluster: &Arc<Cluster>, table: &str, value: &Datum) -> PgResult<NodeId> {
    let meta = cluster.metadata.read_recursive();
    let bucket = meta.shard_index_for_value(table, value)?;
    crate::planner::bucket_node(&meta, table, bucket)
}

fn datum_sql(d: &Datum) -> String {
    match d {
        Datum::Null => "NULL".to_string(),
        Datum::Bool(true) => "TRUE".to_string(),
        Datum::Bool(false) => "FALSE".to_string(),
        Datum::Int(v) => v.to_string(),
        Datum::Float(v) => format!("{v:?}"),
        other => sqlparse::quote_literal(&other.to_text()),
    }
}
