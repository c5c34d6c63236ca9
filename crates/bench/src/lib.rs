//! The virtual-clock reports: the paper's §4 figures and tables, the
//! workload head-to-head and the columnar and rollup ablations.
//!
//! Methodology (see DESIGN.md §5): each benchmark builds real engines sized
//! so the *simulated* dataset exceeds one node's memory but fits in the
//! 4-worker cluster (the knife-edge §4 of the paper is built on), runs real
//! transactions to measure per-transaction resource demands in virtual time,
//! and feeds those demands into an exact MVA closed-queueing solver to get
//! multi-client throughput and latency. Single-session figures (7, 8) report
//! the virtual elapsed time directly.
//!
//! Every number this crate writes to a file is virtual time. The four
//! `*_bench` modules hold the bodies of the binaries of the same name as
//! functions from a [`Scale`] to the report text, so `tests/figures.rs` can
//! hold the smoke scale to its goldens inside `cargo test`. Wall-clock
//! numbers are produced and quoted in `benchmark/` only.

pub mod columnar_bench;
pub mod figures_bench;
pub mod rollup_bench;
pub mod workloads_bench;

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::cost::DistCost;
use citrus::metadata::NodeId;
use netsim::mva::{self, Station};
use pgmini::cost::CORES;
use pgmini::engine::{Engine, EngineConfig};
use std::sync::Arc;
use workloads::runner::{ClusterRunner, LocalRunner, SqlRunner};

/// Executor threads every committed report is made at. The reports must not
/// depend on it (DESIGN.md §7); `tests/figures.rs` checks that at 1.
pub const EXECUTOR_THREADS: usize = 4;

/// The two scales a `*_bench` report runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds in a debug build; checked against the goldens by `cargo test`.
    Smoke,
    /// The figure data committed at the repository root.
    Full,
}

impl Scale {
    /// `--smoke` on the command line picks [`Scale::Smoke`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    pub fn is_smoke(self) -> bool {
        self == Scale::Smoke
    }

    /// Print a report and write it where its scale keeps it: a full run to
    /// `BENCH_<name>.json` in the current directory, a smoke run over its
    /// golden, so the two can never clobber each other.
    pub fn write(self, name: &str, json: &str) {
        let out = match self {
            Scale::Smoke => {
                format!("{}/tests/golden/BENCH_{name}_smoke.json", env!("CARGO_MANIFEST_DIR"))
            }
            Scale::Full => format!("BENCH_{name}.json"),
        };
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("{json}");
    }
}

/// What `columnar_bench` and `rollup_bench` report: two arms and their ratio.
pub struct RatioReport {
    /// `BENCH_<name>.json` / `BENCH_<name>_smoke.json`.
    pub json: String,
    /// The arm under test over the baseline arm, in `units_per_vsec`.
    pub speedup: f64,
}

/// The four setups every benchmark compares (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// A single PostgreSQL server.
    Postgres,
    /// Citus with the coordinator doubling as the only worker.
    Citus0Plus1,
    /// Coordinator + 4 workers.
    Citus4Plus1,
    /// Coordinator + 8 workers.
    Citus8Plus1,
}

impl Setup {
    pub const ALL: [Setup; 4] =
        [Setup::Postgres, Setup::Citus0Plus1, Setup::Citus4Plus1, Setup::Citus8Plus1];

    pub fn name(self) -> &'static str {
        match self {
            Setup::Postgres => "PostgreSQL",
            Setup::Citus0Plus1 => "Citus 0+1",
            Setup::Citus4Plus1 => "Citus 4+1",
            Setup::Citus8Plus1 => "Citus 8+1",
        }
    }

    pub fn workers(self) -> u32 {
        match self {
            Setup::Postgres | Setup::Citus0Plus1 => 0,
            Setup::Citus4Plus1 => 4,
            Setup::Citus8Plus1 => 8,
        }
    }

    pub fn is_citus(self) -> bool {
        self != Setup::Postgres
    }
}

/// One built benchmark target.
pub struct Target {
    pub setup: Setup,
    pub cluster: Option<Arc<Cluster>>,
    pub engine: Option<Arc<Engine>>,
    runner: Box<dyn SqlRunner>,
}

impl Target {
    /// Build `setup` with the default 64 GiB of simulated memory per node,
    /// `shard_count` shards per distributed table and `executor_threads`
    /// fan-out threads on the Citus setups.
    pub fn build(setup: Setup, shard_count: u32, executor_threads: usize) -> Target {
        if setup == Setup::Postgres {
            let engine = Engine::new(EngineConfig::default());
            let runner = LocalRunner { session: engine.session().expect("session") };
            return Target { setup, cluster: None, engine: Some(engine), runner: Box::new(runner) };
        }
        let cluster =
            Cluster::new(ClusterConfig { shard_count, executor_threads, ..Default::default() });
        for _ in 0..setup.workers() {
            cluster.add_worker().expect("add worker");
        }
        let runner = ClusterRunner { session: cluster.session().expect("session") };
        Target { setup, cluster: Some(cluster), engine: None, runner: Box::new(runner) }
    }

    pub fn runner(&mut self) -> &mut dyn SqlRunner {
        self.runner.as_mut()
    }

    /// Run `schema`, then, on the Citus setups, `distribution`.
    pub fn create(&mut self, schema: &[String], distribution: &[String]) {
        let distribution = if self.setup.is_citus() { distribution } else { &[] };
        for s in schema.iter().chain(distribution) {
            self.runner.run(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    /// A fresh session-backed runner (e.g. to route via a worker in MX mode).
    pub fn runner_on(&self, node: u32) -> Box<dyn SqlRunner> {
        match (&self.cluster, &self.engine) {
            (Some(c), _) => Box::new(ClusterRunner {
                session: c.session_on(NodeId(node)).expect("session"),
            }),
            (None, Some(e)) => Box::new(LocalRunner { session: e.session().expect("session") }),
            _ => unreachable!("target has cluster or engine"),
        }
    }

    /// The single engine, or every node's engine of the cluster.
    fn engines(&self) -> Vec<Arc<Engine>> {
        match (&self.engine, &self.cluster) {
            (Some(e), _) => vec![e.clone()],
            (_, Some(c)) => c.nodes().iter().map(|n| n.engine()).collect(),
            _ => unreachable!("target has cluster or engine"),
        }
    }

    /// Apply the full-size simulated row widths so buffer-pool math models
    /// the paper's dataset.
    pub fn set_sim_widths(&self, widths: &[(&str, u32)]) {
        for engine in self.engines() {
            for (table, width) in widths {
                // the shell and every shard of it
                let names = engine.catalog.read().table_names();
                for n in names {
                    if n == *table || n.starts_with(&format!("{table}_")) {
                        let _ = engine.set_sim_row_width(&n, *width);
                    }
                }
            }
        }
    }

    /// Total simulated bytes stored on the target (sum over nodes of table
    /// pages × 8 KiB).
    fn simulated_bytes(&self) -> u64 {
        let mut pages = 0u64;
        for engine in self.engines() {
            let names = engine.catalog.read().table_names();
            for n in names {
                if let Ok(meta) = engine.table_meta(&n) {
                    pages += engine.table_pages(&meta);
                }
            }
        }
        pages * pgmini::cost::PAGE_SIZE
    }

    /// Give every node's buffer pool `fraction` of the simulated data, the
    /// paper's memory-to-data ratio; returns the simulated data bytes.
    pub fn size_pools(&self, fraction: f64) -> u64 {
        let data = self.simulated_bytes();
        let pages = (data as f64 * fraction) as u64 / pgmini::cost::PAGE_SIZE;
        for engine in self.engines() {
            engine.buffer.set_capacity(pages);
        }
        data
    }

    /// Node ids that hold data (for MVA station construction).
    pub fn data_nodes(&self) -> Vec<u32> {
        match &self.cluster {
            None => vec![0],
            Some(c) => {
                let mut v: Vec<u32> = c.worker_ids().iter().map(|n| n.0).collect();
                if !v.contains(&0) {
                    v.push(0); // coordinator does merge work
                }
                v.sort_unstable();
                v
            }
        }
    }
}

/// Solve the closed-loop model for a mean per-transaction demand.
///
/// Stations: per node a [`CORES`]-core CPU and a disk; network latency and
/// client think time are delays.
pub fn solve_closed_loop(
    demand: &DistCost,
    nodes: &[u32],
    clients: u32,
    think_ms: f64,
) -> mva::MvaResult {
    let mut stations = Vec::new();
    for &node in nodes {
        let (cpu, io) =
            demand.per_node.get(&NodeId(node)).map_or((0.0, 0.0), |c| (c.cpu_ms, c.io_ms));
        if cpu > 0.0 {
            stations.push(Station::queueing(&format!("cpu{node}"), cpu, CORES));
        }
        if io > 0.0 {
            stations.push(Station::queueing(&format!("disk{node}"), io, 1));
        }
    }
    if demand.net_ms > 0.0 {
        stations.push(Station::delay("net", demand.net_ms));
    }
    if stations.is_empty() {
        stations.push(Station::delay("noop", demand.elapsed_ms.max(0.001)));
    }
    mva::solve(&stations, clients, think_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmini::cost::SimCost;

    #[test]
    fn targets_build_for_all_setups() {
        for setup in Setup::ALL {
            let mut t = Target::build(setup, 8, EXECUTOR_THREADS);
            t.create(
                &["CREATE TABLE t (a bigint)".into()],
                &["SELECT create_distributed_table('t', 'a')".into()],
            );
            t.runner().run("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            let r = t.runner().run("SELECT count(*) FROM t").unwrap();
            assert_eq!(r.rows()[0][0], pgmini::types::Datum::Int(3));
            assert!(t.simulated_bytes() > 0);
            assert!(!t.data_nodes().is_empty());
        }
    }

    #[test]
    fn mean_demand_and_mva_glue() {
        let record = |per_node: &[(u32, f64, f64)], net_ms, elapsed_ms| {
            let mut cost = DistCost { net_ms, elapsed_ms, ..DistCost::default() };
            for &(n, cpu_ms, io_ms) in per_node {
                cost.add_node(NodeId(n), &SimCost { cpu_ms, io_ms, ..SimCost::ZERO });
            }
            cost
        };
        let mut sum = record(&[(1, 2.0, 1.0)], 0.5, 3.5);
        sum.add(&record(&[(2, 2.0, 0.0), (1, 4.0, 3.0)], 1.5, 8.5));
        let d = sum.mean(2);
        assert_eq!(d, record(&[(1, 3.0, 2.0), (2, 1.0, 0.0)], 1.0, 6.0));
        let r = solve_closed_loop(&d, &[1, 2], 64, 0.0);
        assert!(r.throughput_per_sec > 0.0);
        // disk on node 1 is the bottleneck: 2ms demand, 1 server -> <=500/s
        assert!(r.throughput_per_sec <= 501.0);
    }
}
