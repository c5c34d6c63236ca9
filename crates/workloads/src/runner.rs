//! Workload drivers run against "a database connection" — either a plain
//! pgmini session (the PostgreSQL baseline) or a citrus client session (the
//! distributed cluster). This trait is the seam.

use citrus::cost::DistCost;
use citrus::metadata::NodeId;
use pgmini::error::PgResult;
use pgmini::session::QueryResult;
use pgmini::types::Row;

/// One database connection a workload can drive.
pub trait SqlRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult>;
    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64>;
    /// Simulated resource cost of the last statement.
    fn last_cost(&mut self) -> DistCost;
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

/// A statement's cost is the cluster's own record, passed on as it is. The
/// alias keeps the name the wall-clock benchmark (`benchmark/src/trace.rs`)
/// imports from here.
pub use citrus::cost::DistCost as RunCost;

/// A [`SqlRunner`] wrapper that meters every statement it passes on: its
/// virtual elapsed time goes into a histogram and its cost into one summed
/// [`DistCost`], which [`MeteredRunner::take`] hands out per unit of work.
pub struct MeteredRunner<'a> {
    inner: &'a mut dyn SqlRunner,
    pub(crate) hist: citrus::metrics::Histogram,
    pub(crate) statements: u64,
    /// Summed cost of every statement since the last [`MeteredRunner::take`].
    pub(crate) demand: DistCost,
}

impl<'a> MeteredRunner<'a> {
    pub fn new(inner: &'a mut dyn SqlRunner) -> MeteredRunner<'a> {
        MeteredRunner {
            inner,
            hist: citrus::metrics::Histogram::default(),
            statements: 0,
            demand: DistCost::default(),
        }
    }

    /// The summed cost so far; the sum starts again from zero.
    pub fn take(&mut self) -> DistCost {
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

    fn last_cost(&mut self) -> DistCost {
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

    fn last_cost(&mut self) -> DistCost {
        let c = self.session.last_cost();
        let mut cost =
            DistCost { net_ms: c.net_ms, elapsed_ms: c.total_ms(), ..DistCost::default() };
        cost.add_node(NodeId(0), &c);
        cost
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

    fn last_cost(&mut self) -> DistCost {
        self.session.last_dist_cost()
    }

    fn session_id(&mut self) -> Option<u64> {
        Some(self.session.session_mut().id())
    }
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

    fn last_cost(&mut self) -> DistCost {
        self.session.last_dist_cost()
    }

    fn route_stats(&self) -> (u64, u64) {
        (self.session.routed, self.session.escalated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus::cluster::{Cluster, ClusterConfig};
    use pgmini::cost::SimCost;
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

    /// `(node, cpu_ms, io_ms)` per node, in the record's order.
    fn nodes(cost: &DistCost) -> Vec<(u32, f64, f64)> {
        cost.per_node.iter().map(|(n, c)| (n.0, c.cpu_ms, c.io_ms)).collect()
    }

    fn cpu_on(cost: &DistCost, node: u32) -> f64 {
        cost.per_node.get(&NodeId(node)).map_or(0.0, |c| c.cpu_ms)
    }

    fn record(per_node: &[(u32, f64, f64)], net_ms: f64, elapsed_ms: f64) -> DistCost {
        let mut cost = DistCost { net_ms, elapsed_ms, ..DistCost::default() };
        for &(n, cpu_ms, io_ms) in per_node {
            cost.add_node(NodeId(n), &SimCost { cpu_ms, io_ms, ..SimCost::ZERO });
        }
        cost
    }

    #[test]
    fn add_merges_per_node_entries() {
        let mut a = record(&[(1, 3.0, 4.0), (0, 1.0, 2.0)], 0.5, 10.0);
        a.add(&record(&[(2, 5.0, 6.0), (1, 1.0, 1.0)], 0.5, 5.0));
        assert_eq!(nodes(&a), vec![(0, 1.0, 2.0), (1, 4.0, 5.0), (2, 5.0, 6.0)]);
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
            cpu_on(&cost, 0) > 0.0,
            "merge work on the coordinator must book to node 0: {:?}",
            nodes(&cost)
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
        assert!(
            cpu_on(&cost, 1) > 0.0,
            "origin-side work must book to the MX worker: {:?}",
            nodes(&cost)
        );
        assert_eq!(
            cpu_on(&cost, 0),
            0.0,
            "an MX worker session never touches the coordinator: {:?}",
            nodes(&cost)
        );
    }

    #[test]
    fn mx_runner_pins_single_tenant_transactions_off_the_coordinator() {
        let c = cluster();
        let mut r = MxRunner { session: c.mx_session() };
        let mut total = DistCost::default();
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
        assert_eq!(
            cpu_on(&total, 0),
            0.0,
            "a pinned single-tenant transaction never touches the coordinator: {:?}",
            nodes(&total)
        );
        assert!(nodes(&total).iter().any(|&(_, cpu, _)| cpu > 0.0), "the worker did real work");
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
