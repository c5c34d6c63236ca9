//! Distributed cost accounting.
//!
//! A distributed statement consumes resources on several nodes at once; the
//! closed-loop benchmark solver needs the per-node breakdown (who burned CPU,
//! whose disk was hit), and single-session benchmarks need the elapsed
//! virtual time (parallel makespan, not the sum). [`DistCost`] is the one
//! record that carries both, unchanged from the executor to the MVA solver.
//!
//! Work the session's own node does for a statement — planning, merging,
//! COPY parsing, commit-record writes — books to that node where it is
//! incurred, like any task it runs there. Nodes are kept in id order, so
//! every sum over them, and the stations the solver builds from them, follow
//! one order.

use crate::metadata::NodeId;
use pgmini::cost::SimCost;
use std::collections::BTreeMap;

/// Resource consumption of one distributed statement (or a sum of them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistCost {
    /// Service demand per node (CPU/disk used on that node), by node id.
    pub per_node: BTreeMap<NodeId, SimCost>,
    /// Network latency spent, in ms (round trips × RTT).
    pub net_ms: f64,
    /// Elapsed virtual time of the statement (parallel makespan + serial
    /// coordinator work + network).
    pub elapsed_ms: f64,
}

impl DistCost {
    pub fn add_node(&mut self, node: NodeId, cost: &SimCost) {
        self.per_node.entry(node).or_default().add(cost);
    }

    pub fn add(&mut self, other: &DistCost) {
        for (n, c) in &other.per_node {
            self.add_node(*n, c);
        }
        self.net_ms += other.net_ms;
        self.elapsed_ms += other.elapsed_ms;
    }

    /// The per-unit cost of `units` units whose costs were summed into this
    /// record: every time divided by `units` (at least 1). The per-node
    /// counters (pages, rows, batches) are totals and are left out.
    pub fn mean(&self, units: u64) -> DistCost {
        let n = units.max(1) as f64;
        let each = |c: &SimCost| SimCost {
            cpu_ms: c.cpu_ms / n,
            io_ms: c.io_ms / n,
            net_ms: c.net_ms / n,
            ..SimCost::ZERO
        };
        DistCost {
            per_node: self.per_node.iter().map(|(&m, c)| (m, each(c))).collect(),
            net_ms: self.net_ms / n,
            elapsed_ms: self.elapsed_ms / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(cpu_ms: f64, io_ms: f64) -> SimCost {
        SimCost { cpu_ms, io_ms, ..SimCost::ZERO }
    }

    #[test]
    fn accumulates_per_node() {
        let mut d = DistCost::default();
        d.add_node(NodeId(2), &cost(2.0, 1.0));
        d.add_node(NodeId(1), &cost(2.0, 1.0));
        d.add_node(NodeId(1), &cost(2.0, 1.0));
        d.add_node(NodeId(0), &cost(0.5, 0.0));
        let mut e = DistCost::default();
        e.add(&d);
        e.add(&d);
        let nodes: Vec<(u32, f64, f64)> =
            e.per_node.iter().map(|(n, c)| (n.0, c.cpu_ms, c.io_ms)).collect();
        assert_eq!(nodes, vec![(0, 1.0, 0.0), (1, 8.0, 4.0), (2, 4.0, 2.0)], "in node-id order");
        assert_eq!(e.mean(2), d);
    }
}
