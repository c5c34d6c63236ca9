//! Distributed deadlock detection (§3.7.3).
//!
//! The maintenance daemon polls every node for its local wait-for edges,
//! merges graph nodes that belong to the same distributed transaction, and
//! searches for cycles. A cycle means a real distributed deadlock; the
//! *youngest* distributed transaction in the cycle is cancelled, exactly as
//! the paper describes (wound-wait is avoided because PostgreSQL clients are
//! not expected to retry transactions mid-protocol).
//!
//! A second, fence tier (gated on `ClusterConfig::mx_fencing`) breaks the
//! loopback-DDL stall the cycle search cannot see: an MX fast-path
//! transaction holds only local locks (no distributed id), so a propagated
//! DDL statement or a shard move blocked behind it forms *no cycle* — it
//! just waits forever. The per-worker lock report surfaces those local
//! holders into the coordinator's wait graph; after a bounded wait (the
//! engine's `deadlock_timeout`) the distributed waiter wins and the local
//! holder is force-aborted with a retryable serialization failure.

use crate::cluster::Cluster;
use crate::metadata::NodeId;
use pgmini::error::PgResult;
use pgmini::lock::{DistTxnId, LockKey};
use pgmini::txn::Xid;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Node of the merged wait-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GraphNode {
    /// A distributed transaction (merged across engines).
    Dist(DistTxnId),
    /// A purely local transaction on one engine.
    Local(NodeId, u64),
}

/// One detection pass. Returns the cancelled victim if a distributed
/// deadlock was found. When tracing is enabled, every pass that saw wait
/// edges records a `deadlock.check` span (with a `deadlock.victim` child on
/// cancellation) — the trace is the observation channel the tests use.
pub fn detect_once(cluster: &Arc<Cluster>) -> PgResult<Option<DistTxnId>> {
    // gather and merge edges
    let mut adj: HashMap<GraphNode, Vec<GraphNode>> = HashMap::new();
    let mut edge_count = 0usize;
    for node in cluster.nodes() {
        if !node.is_active() {
            continue;
        }
        let engine = node.engine();
        for edge in engine.locks.wait_edges() {
            let waiter = match edge.waiter_dist {
                Some(d) => GraphNode::Dist(d),
                None => GraphNode::Local(node.id, edge.waiter),
            };
            let holder = match edge.holder_dist {
                Some(d) => GraphNode::Dist(d),
                None => GraphNode::Local(node.id, edge.holder),
            };
            if waiter != holder {
                adj.entry(waiter).or_default().push(holder);
                edge_count += 1;
            }
        }
    }
    if adj.is_empty() {
        return Ok(None);
    }
    let mut span = crate::trace::Span::new("deadlock.check")
        .with("graph_nodes", adj.len())
        .with("edges", edge_count);
    // cycle detection via iterative DFS with colouring
    let cycle = find_cycle(&adj);
    // victim: the youngest distributed transaction in the cycle
    let victim = cycle.as_ref().and_then(|cycle| {
        cycle
            .iter()
            .filter_map(|n| match n {
                GraphNode::Dist(d) => Some(*d),
                GraphNode::Local(..) => None,
            })
            .max_by_key(|d| (d.timestamp, d.number))
    });
    let Some(victim) = victim else {
        // no cycle, or a purely local one each engine resolves itself —
        // but a distributed waiter aged behind a *local* holder is the
        // loopback stall: no cycle ever forms, so fence the holder
        if cluster.config.mx_fencing {
            let fenced = fence_aged_local_holders(cluster, &mut span);
            if fenced > 0 {
                span.set("fenced_local_holders", fenced);
            }
        }
        cluster.tracer.record_daemon(span);
        return Ok(None);
    };
    // cancel on every engine, including currently-partitioned ones: their
    // lock tables are intact and would otherwise still hold the victim's
    // locks when the node is healed back into the cluster
    for node in cluster.nodes() {
        node.engine().locks.cancel_dist_txn(victim);
    }
    cluster.metrics.deadlock_victims.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    span.child(
        crate::trace::Span::new("deadlock.victim")
            .with("txn", format!("{}:{}", victim.origin_node, victim.number))
            .with("cycle_len", cycle.map(|c| c.len()).unwrap_or(0)),
    );
    cluster.tracer.record_daemon(span);
    Ok(Some(victim))
}

/// The detector's fence tier: force-abort local (no distributed id)
/// transactions that have kept a *distributed* waiter blocked for at least
/// the engine's `deadlock_timeout`. Returns the number of holders fenced.
fn fence_aged_local_holders(cluster: &Arc<Cluster>, span: &mut crate::trace::Span) -> u64 {
    let mut fenced = 0u64;
    for node in cluster.nodes() {
        if !node.is_active() {
            continue;
        }
        let engine = node.engine();
        let timeout = engine.locks.deadlock_timeout;
        let mut victims: Vec<Xid> = engine
            .locks
            .wait_edges()
            .into_iter()
            .filter(|e| e.waiter_dist.is_some() && e.holder_dist.is_none() && e.waited >= timeout)
            .map(|e| e.holder)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        for xid in victims {
            if engine.force_abort_xid(xid) {
                fenced += 1;
                span.child(
                    crate::trace::Span::new("deadlock.fence")
                        .with("node", node.id.0)
                        .with("holder", xid),
                );
            }
        }
    }
    if fenced > 0 {
        cluster.metrics.mx_generation_aborts.fetch_add(fenced, std::sync::atomic::Ordering::Relaxed);
    }
    fenced
}

/// Proactive pre-fence used by DDL propagation and the rebalancer before
/// they take table-exclusive locks: give holders of the named physical
/// tables on `node` one bounded wait (`deadlock_timeout`) to finish, then
/// force-abort the survivors so the metadata change cannot stall behind an
/// idle-in-transaction session forever (the loopback hang — the holder is
/// not *waiting*, so no cycle ever forms). The metadata change wins;
/// fenced transactions surface a retryable 40001 at their next statement
/// or commit. `exclude` shields the caller's own distributed transaction;
/// prepared transactions are never touched (`force_abort_xid` refuses
/// them — only 2PC recovery may settle an in-doubt transaction). Returns
/// the number of holders fenced.
pub fn fence_local_blockers(
    cluster: &Arc<Cluster>,
    node: NodeId,
    tables: &[String],
    exclude: Option<DistTxnId>,
) -> PgResult<u64> {
    if !cluster.config.mx_fencing {
        return Ok(0);
    }
    let engine = cluster.node(node)?.engine();
    let keys: Vec<LockKey> = {
        let cat = engine.catalog.read();
        tables.iter().filter_map(|t| cat.table_id(t).ok()).map(LockKey::Table).collect()
    };
    if keys.is_empty() {
        return Ok(0);
    }
    let timeout = engine.locks.deadlock_timeout;
    let started = std::time::Instant::now();
    let mut fenced = 0u64;
    loop {
        let mut blockers: Vec<Xid> = keys
            .iter()
            .flat_map(|k| engine.locks.holders_of(*k))
            .filter(|(_, dist)| exclude.is_none() || *dist != exclude)
            .map(|(xid, _)| xid)
            .collect();
        blockers.sort_unstable();
        blockers.dedup();
        if blockers.is_empty() {
            break;
        }
        if started.elapsed() >= timeout {
            for xid in blockers {
                if engine.force_abort_xid(xid) {
                    fenced += 1;
                }
            }
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    if fenced > 0 {
        cluster.metrics.mx_generation_aborts.fetch_add(fenced, std::sync::atomic::Ordering::Relaxed);
        if cluster.tracer.enabled() {
            cluster.tracer.record_daemon(
                crate::trace::Span::new("mx_fence.pre")
                    .with("node", node.0)
                    .with("tables", tables.join(","))
                    .with("fenced", fenced),
            );
        }
    }
    Ok(fenced)
}

fn find_cycle(adj: &HashMap<GraphNode, Vec<GraphNode>>) -> Option<Vec<GraphNode>> {
    let mut visited: HashSet<GraphNode> = HashSet::new();
    for &start in adj.keys() {
        if visited.contains(&start) {
            continue;
        }
        // DFS with an explicit stack carrying the current path
        let mut path: Vec<GraphNode> = Vec::new();
        let mut stack: Vec<(GraphNode, usize)> = vec![(start, 0)];
        while let Some(&mut (node, ref mut next_child)) = stack.last_mut() {
            if *next_child == 0 {
                path.push(node);
                visited.insert(node);
            }
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next_child < children.len() {
                let child = children[*next_child];
                *next_child += 1;
                if let Some(pos) = path.iter().position(|n| *n == child) {
                    // found a cycle: the path suffix from `child`
                    return Some(path[pos..].to_vec());
                }
                if !visited.contains(&child) {
                    stack.push((child, 0));
                }
            } else {
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u64) -> GraphNode {
        GraphNode::Dist(DistTxnId { origin_node: 0, number: n, timestamp: n })
    }

    #[test]
    fn finds_simple_cycle() {
        let mut adj = HashMap::new();
        adj.insert(d(1), vec![d(2)]);
        adj.insert(d(2), vec![d(1)]);
        let cycle = find_cycle(&adj).unwrap();
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn no_cycle_in_chain() {
        let mut adj = HashMap::new();
        adj.insert(d(1), vec![d(2)]);
        adj.insert(d(2), vec![d(3)]);
        assert!(find_cycle(&adj).is_none());
    }

    #[test]
    fn finds_cycle_in_larger_graph() {
        let mut adj = HashMap::new();
        adj.insert(d(1), vec![d(2)]);
        adj.insert(d(2), vec![d(3), d(4)]);
        adj.insert(d(4), vec![d(5)]);
        adj.insert(d(5), vec![d(2)]);
        let cycle = find_cycle(&adj).unwrap();
        assert!(cycle.len() >= 3);
        assert!(cycle.contains(&d(2)));
    }
}
