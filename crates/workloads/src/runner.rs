//! Workload drivers run against "a database connection" — either a plain
//! pgmini session (the PostgreSQL baseline) or a citrus client session (the
//! distributed cluster). This trait is the seam.

use pgmini::cost::SimCost;
use pgmini::error::PgResult;
use pgmini::session::QueryResult;
use pgmini::types::Row;

/// One database connection a workload can drive.
pub trait SqlRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult>;
    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64>;
    /// Simulated resource cost of the last statement, aggregated across the
    /// cluster: (cpu_ms per node id, io_ms per node id, elapsed_ms).
    fn last_cost(&mut self) -> RunCost;
    /// `(routed, escalated)` statement counts for MX-routed connections;
    /// `(0, 0)` for everything else. Lets the simulation report MX coverage
    /// through the `SqlRunner` seam without downcasting.
    fn route_stats(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Backend session id of the underlying database session, when there is
    /// exactly one (tests use it to look up per-session executor state).
    fn session_id(&mut self) -> Option<u64> {
        None
    }
}

/// Per-statement simulated cost in a node-indexed form the benchmark
/// harness feeds into the MVA solver.
#[derive(Debug, Clone, Default)]
pub struct RunCost {
    /// (node id, cpu_ms, io_ms) triples; node id 0 = coordinator/single node.
    pub per_node: Vec<(u32, f64, f64)>,
    pub net_ms: f64,
    pub elapsed_ms: f64,
}

impl RunCost {
    pub fn add(&mut self, other: &RunCost) {
        for &(n, cpu, io) in &other.per_node {
            match self.per_node.iter_mut().find(|(m, _, _)| *m == n) {
                Some(slot) => {
                    slot.1 += cpu;
                    slot.2 += io;
                }
                None => self.per_node.push((n, cpu, io)),
            }
        }
        self.net_ms += other.net_ms;
        self.elapsed_ms += other.elapsed_ms;
    }

    pub fn total_cpu(&self) -> f64 {
        self.per_node.iter().map(|(_, c, _)| c).sum()
    }

    /// The per-unit cost of `units` units whose costs were summed into this
    /// record: every field divided by `units` (at least 1).
    pub fn mean(&self, units: u64) -> RunCost {
        let n = units.max(1) as f64;
        RunCost {
            per_node: self.per_node.iter().map(|&(m, cpu, io)| (m, cpu / n, io / n)).collect(),
            net_ms: self.net_ms / n,
            elapsed_ms: self.elapsed_ms / n,
        }
    }
}

/// A [`SqlRunner`] wrapper that meters every statement it passes on: its
/// virtual elapsed time goes into a histogram and its cost into one summed
/// [`RunCost`], which [`MeteredRunner::take`] hands out per unit of work.
pub struct MeteredRunner<'a> {
    inner: &'a mut dyn SqlRunner,
    pub(crate) hist: citrus::metrics::Histogram,
    pub(crate) statements: u64,
    /// Summed cost of every statement since the last [`MeteredRunner::take`].
    pub(crate) demand: RunCost,
}

impl<'a> MeteredRunner<'a> {
    pub fn new(inner: &'a mut dyn SqlRunner) -> MeteredRunner<'a> {
        MeteredRunner {
            inner,
            hist: citrus::metrics::Histogram::default(),
            statements: 0,
            demand: RunCost::default(),
        }
    }

    /// The summed cost so far; the sum starts again from zero.
    pub fn take(&mut self) -> RunCost {
        std::mem::take(&mut self.demand)
    }

    fn observe_last(&mut self) {
        let c = self.inner.last_cost();
        self.hist.observe(c.elapsed_ms);
        self.statements += 1;
        self.demand.add(&c);
    }
}

impl SqlRunner for MeteredRunner<'_> {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        let r = self.inner.run(sql)?;
        self.observe_last();
        Ok(r)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        let n = self.inner.copy(table, columns, rows)?;
        self.observe_last();
        Ok(n)
    }

    fn last_cost(&mut self) -> RunCost {
        self.inner.last_cost()
    }
}

/// Plain single-node PostgreSQL stand-in.
pub struct LocalRunner {
    pub session: pgmini::session::Session,
}

impl SqlRunner for LocalRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.session.execute(sql)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        self.session.copy_rows(table, columns, rows)
    }

    fn last_cost(&mut self) -> RunCost {
        let c: SimCost = self.session.last_cost();
        RunCost {
            per_node: vec![(0, c.cpu_ms, c.io_ms)],
            net_ms: c.net_ms,
            elapsed_ms: c.total_ms(),
        }
    }
}

/// Citrus cluster connection.
pub struct ClusterRunner {
    pub session: citrus::cluster::ClientSession,
}

impl SqlRunner for ClusterRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.session.execute(sql)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        self.session.copy(table, columns, rows)
    }

    fn last_cost(&mut self) -> RunCost {
        let origin = self.session.node().0;
        book_dist_cost(&self.session.last_dist_cost(), origin)
    }

    fn session_id(&mut self) -> Option<u64> {
        Some(self.session.session_mut().id())
    }
}

/// Fold a cluster [`citrus::cost::DistCost`] into the node-indexed form.
/// Coordinator-side work (planning, merge) books to `origin` — the node
/// hosting the session — not a hard-coded node 0: an MX worker session plans
/// and merges on its own worker, and booking that to the coordinator made
/// the per-node sums disagree with the cluster's DistCost.
fn book_dist_cost(d: &citrus::cost::DistCost, origin: u32) -> RunCost {
    let mut per_node: Vec<(u32, f64, f64)> =
        d.per_node.iter().map(|(n, c)| (n.0, c.cpu_ms, c.io_ms)).collect();
    if d.coordinator.cpu_ms > 0.0 || d.coordinator.io_ms > 0.0 {
        match per_node.iter_mut().find(|(n, _, _)| *n == origin) {
            Some(slot) => {
                slot.1 += d.coordinator.cpu_ms;
                slot.2 += d.coordinator.io_ms;
            }
            None => per_node.push((origin, d.coordinator.cpu_ms, d.coordinator.io_ms)),
        }
    }
    per_node.sort_by_key(|(n, _, _)| *n);
    RunCost { per_node, net_ms: d.net_ms, elapsed_ms: d.elapsed_ms }
}

/// MX-routed cluster connection (§2.3 coordinator bypass): every transaction
/// is pinned to the worker holding its first routed statement's placement,
/// so single-tenant transactions plan, execute, and commit entirely on that
/// worker — the coordinator only sees cross-shard shapes.
pub struct MxRunner {
    pub session: citrus::cluster::MxSession,
}

impl SqlRunner for MxRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.session.execute(sql)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        self.session.copy(table, columns, rows)
    }

    fn last_cost(&mut self) -> RunCost {
        let origin = self.session.last_node().0;
        book_dist_cost(&self.session.last_dist_cost(), origin)
    }

    fn route_stats(&self) -> (u64, u64) {
        (self.session.routed, self.session.escalated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus::cluster::{Cluster, ClusterConfig};
    use citrus::metadata::NodeId;
    use std::sync::Arc;

    fn cluster() -> Arc<Cluster> {
        let c = Cluster::new(ClusterConfig::default());
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        for k in 0..8i64 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, {k})")).unwrap();
        }
        c
    }

    #[test]
    fn add_merges_per_node_entries() {
        let mut a = RunCost {
            per_node: vec![(0, 1.0, 2.0), (1, 3.0, 4.0)],
            net_ms: 0.5,
            elapsed_ms: 10.0,
        };
        let b = RunCost {
            per_node: vec![(1, 1.0, 1.0), (2, 5.0, 6.0)],
            net_ms: 0.5,
            elapsed_ms: 5.0,
        };
        a.add(&b);
        assert_eq!(a.per_node, vec![(0, 1.0, 2.0), (1, 4.0, 5.0), (2, 5.0, 6.0)]);
        assert_eq!(a.net_ms, 1.0);
        assert_eq!(a.elapsed_ms, 15.0);
    }

    #[test]
    fn coordinator_session_books_origin_work_to_node_0() {
        let c = cluster();
        let mut r = ClusterRunner { session: c.session().unwrap() };
        r.run("SELECT count(*) FROM t").unwrap();
        let cost = r.last_cost();
        assert!(
            cost.per_node.iter().any(|&(n, cpu, _)| n == 0 && cpu > 0.0),
            "merge work on the coordinator must book to node 0: {:?}",
            cost.per_node
        );
    }

    #[test]
    fn mx_worker_session_books_origin_work_to_that_worker() {
        let c = cluster();
        c.enable_mx();
        let mut r = ClusterRunner { session: c.session_on(NodeId(1)).unwrap() };
        r.run("SELECT count(*) FROM t").unwrap();
        let cost = r.last_cost();
        // planning + merge ran on worker 1, not the coordinator
        let node0_cpu: f64 =
            cost.per_node.iter().filter(|(n, _, _)| *n == 0).map(|(_, c, _)| c).sum();
        let node1_cpu: f64 =
            cost.per_node.iter().filter(|(n, _, _)| *n == 1).map(|(_, c, _)| c).sum();
        assert!(
            node1_cpu > 0.0,
            "origin-side work must book to the MX worker: {:?}",
            cost.per_node
        );
        assert_eq!(
            node0_cpu, 0.0,
            "an MX worker session never touches the coordinator: {:?}",
            cost.per_node
        );
    }

    #[test]
    fn mx_runner_pins_single_tenant_transactions_off_the_coordinator() {
        let c = cluster();
        let mut r = MxRunner { session: c.mx_session() };
        let mut total = RunCost::default();
        r.run("BEGIN").unwrap();
        for sql in [
            "SELECT v FROM t WHERE k = 1",
            "UPDATE t SET v = v + 1 WHERE k = 1",
            "COMMIT",
        ] {
            r.run(sql).unwrap();
            total.add(&r.last_cost());
        }
        assert!(r.session.routed >= 2, "statements routed to the owning worker");
        assert_eq!(r.session.escalated, 0, "no statement escalated to the coordinator");
        let node0_cpu: f64 =
            total.per_node.iter().filter(|(n, _, _)| *n == 0).map(|(_, c, _)| c).sum();
        assert_eq!(
            node0_cpu, 0.0,
            "a pinned single-tenant transaction never touches the coordinator: {:?}",
            total.per_node
        );
        assert!(total.total_cpu() > 0.0, "the worker did real work");
        let v = r.run("SELECT v FROM t WHERE k = 1").unwrap();
        assert_eq!(v.rows()[0][0], pgmini::types::Datum::Int(2));
    }

    #[test]
    fn mx_runner_escalates_cross_shard_statements() {
        let c = cluster();
        let mut r = MxRunner { session: c.mx_session() };
        r.run("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.session.escalated, 1, "multi-shard scans run on the coordinator");
    }
}
