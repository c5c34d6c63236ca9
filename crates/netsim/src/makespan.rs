//! Parallel makespan math for single-query execution.
//!
//! The adaptive executor runs per-shard tasks over multiple connections per
//! worker node. For one query, elapsed virtual time on a node is bounded
//! below by (a) the longest single connection timeline (tasks on a connection
//! serialize) and (b) total work divided by the node's cores (a 16-core node
//! cannot run 32 task-streams at full speed). The cluster-level elapsed time
//! is the max over nodes.

/// Elapsed time on one node given per-connection busy times and core count.
pub fn node_makespan(per_connection_ms: &[f64], cores: u32) -> f64 {
    if per_connection_ms.is_empty() {
        return 0.0;
    }
    let longest = per_connection_ms.iter().cloned().fold(0.0_f64, f64::max);
    let total: f64 = per_connection_ms.iter().sum();
    longest.max(total / cores.max(1) as f64)
}

/// Cluster-level elapsed time: the slowest node.
pub fn cluster_makespan(node_times_ms: &[f64]) -> f64 {
    node_times_ms.iter().cloned().fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_connection_serializes() {
        assert!((node_makespan(&[60.0], 16) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn many_connections_bounded_by_cores() {
        // 32 connections of 10ms on a 16-core node: 20ms
        let ms = node_makespan(&[10.0; 32], 16);
        assert!((ms - 20.0).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn cluster_waits_for_the_slowest_node() {
        assert!((cluster_makespan(&[30.0, 40.0, 25.0]) - 40.0).abs() < 1e-9);
        assert_eq!(cluster_makespan(&[]), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(node_makespan(&[], 16), 0.0);
    }
}
