//! Shared harness for the figure-regeneration binaries.
//!
//! Methodology (see DESIGN.md §5): each benchmark builds real engines sized
//! so the *simulated* dataset exceeds one node's memory but fits in the
//! 4-worker cluster (the knife-edge §4 of the paper is built on), runs real
//! transactions to measure per-transaction resource demands in virtual time,
//! and feeds those demands into an exact MVA closed-queueing solver to get
//! multi-client throughput and latency. Single-session figures (7, 8) report
//! the virtual elapsed time directly.
//!
//! Every number this crate writes to a file is virtual time (the Criterion
//! files under `benches/` print wall time and write nothing). The three
//! `*_bench` modules hold the bodies of the binaries of the same name as
//! functions from a [`Scale`] to the report text, so `tests/figures.rs` can
//! hold the smoke scale to its goldens inside `cargo test`. Wall-clock
//! numbers are produced and quoted in `benchmark/` only.

pub mod columnar_bench;
pub mod rollup_bench;
pub mod workloads_bench;

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use netsim::mva::{self, Station};
use pgmini::engine::{Engine, EngineConfig};
use std::sync::Arc;
use workloads::runner::{ClusterRunner, LocalRunner, RunCost, SqlRunner};

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
    runner: Option<Box<dyn SqlRunner>>,
    pub shard_count: u32,
}

impl Target {
    /// Build a target with `mem_bytes` of simulated memory per node.
    pub fn build(setup: Setup, mem_bytes: u64, shard_count: u32) -> Target {
        let mut engine_cfg = EngineConfig::default();
        engine_cfg.mem_bytes = mem_bytes;
        match setup {
            Setup::Postgres => {
                let engine = Engine::new(engine_cfg);
                let runner = LocalRunner { session: engine.session().expect("session") };
                Target {
                    setup,
                    cluster: None,
                    engine: Some(engine),
                    runner: Some(Box::new(runner)),
                    shard_count,
                }
            }
            _ => {
                let mut cfg = ClusterConfig::default();
                cfg.shard_count = shard_count;
                cfg.engine = engine_cfg;
                let cluster = Cluster::new(cfg);
                for _ in 0..setup.workers() {
                    cluster.add_worker().expect("add worker");
                }
                let runner =
                    ClusterRunner { session: cluster.session().expect("session") };
                Target {
                    setup,
                    cluster: Some(cluster),
                    engine: None,
                    runner: Some(Box::new(runner)),
                    shard_count,
                }
            }
        }
    }

    pub fn runner(&mut self) -> &mut dyn SqlRunner {
        self.runner.as_mut().expect("runner present").as_mut()
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

    /// Apply the full-size simulated row widths so buffer-pool math models
    /// the paper's dataset.
    pub fn set_sim_widths(&mut self, widths: &[(&str, u32)]) {
        let apply = |engine: &Arc<Engine>| {
            for (table, width) in widths {
                // the shell and every shard of it
                let names = engine.catalog.read().table_names();
                for n in names {
                    if n == *table || n.starts_with(&format!("{table}_")) {
                        let _ = engine.set_sim_row_width(&n, *width);
                    }
                }
            }
        };
        if let Some(e) = &self.engine {
            apply(e);
        }
        if let Some(c) = &self.cluster {
            for node in c.nodes() {
                apply(&node.engine());
            }
        }
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

/// Mean per-transaction demands measured from samples.
#[derive(Debug, Clone, Default)]
pub struct MeanDemand {
    /// (node, cpu_ms, io_ms)
    pub per_node: Vec<(u32, f64, f64)>,
    pub net_ms: f64,
    pub elapsed_ms: f64,
}

pub fn mean_demand(samples: &[RunCost]) -> MeanDemand {
    let n = samples.len().max(1) as f64;
    let mut out = MeanDemand::default();
    for s in samples {
        for &(node, cpu, io) in &s.per_node {
            match out.per_node.iter_mut().find(|(m, _, _)| *m == node) {
                Some(slot) => {
                    slot.1 += cpu;
                    slot.2 += io;
                }
                None => out.per_node.push((node, cpu, io)),
            }
        }
        out.net_ms += s.net_ms;
        out.elapsed_ms += s.elapsed_ms;
    }
    for slot in &mut out.per_node {
        slot.1 /= n;
        slot.2 /= n;
    }
    out.per_node.sort_by_key(|(m, _, _)| *m);
    out.net_ms /= n;
    out.elapsed_ms /= n;
    out
}

/// Solve the closed-loop model for a measured demand profile.
///
/// Stations: per node a 16-core CPU and a disk; network latency and client
/// think time are delays.
pub fn solve_closed_loop(
    demand: &MeanDemand,
    nodes: &[u32],
    cores: u32,
    clients: u32,
    think_ms: f64,
) -> mva::MvaResult {
    let mut stations = Vec::new();
    for &node in nodes {
        let (cpu, io) = demand
            .per_node
            .iter()
            .find(|(m, _, _)| *m == node)
            .map(|(_, c, i)| (*c, *i))
            .unwrap_or((0.0, 0.0));
        if cpu > 0.0 {
            stations.push(Station::queueing(&format!("cpu{node}"), cpu, cores));
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

/// Total simulated bytes currently stored on a target (sum over nodes of
/// table pages × 8 KiB).
pub fn simulated_bytes(target: &Target) -> u64 {
    let engine_bytes = |engine: &Arc<Engine>| -> u64 {
        let names = engine.catalog.read().table_names();
        let mut pages = 0u64;
        for n in names {
            if let Ok(meta) = engine.table_meta(&n) {
                pages += engine.table_pages(&meta);
            }
        }
        pages * pgmini::cost::PAGE_SIZE
    };
    match (&target.engine, &target.cluster) {
        (Some(e), _) => engine_bytes(e),
        (_, Some(c)) => c.nodes().iter().map(|n| engine_bytes(&n.engine())).sum(),
        _ => 0,
    }
}

/// Pretty GB.
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0 * 1024.0)
}

/// Print a markdown-ish results table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", headers.join(" | "));
    println!("{}", headers.iter().map(|_| "---").collect::<Vec<_>>().join(" | "));
    for r in rows {
        println!("{}", r.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_build_for_all_setups() {
        for setup in Setup::ALL {
            let mut t = Target::build(setup, 1 << 30, 8);
            t.runner().run("CREATE TABLE t (a bigint)").unwrap();
            if setup.is_citus() {
                t.runner().run("SELECT create_distributed_table('t', 'a')").unwrap();
            }
            t.runner().run("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            let r = t.runner().run("SELECT count(*) FROM t").unwrap();
            assert_eq!(r.rows()[0][0], pgmini::types::Datum::Int(3));
            assert!(simulated_bytes(&t) > 0);
            assert!(!t.data_nodes().is_empty());
        }
    }

    #[test]
    fn mean_demand_and_mva_glue() {
        let samples = vec![
            RunCost { per_node: vec![(1, 2.0, 1.0)], net_ms: 0.5, elapsed_ms: 3.5 },
            RunCost { per_node: vec![(1, 4.0, 3.0), (2, 2.0, 0.0)], net_ms: 1.5, elapsed_ms: 8.5 },
        ];
        let d = mean_demand(&samples);
        assert_eq!(d.per_node, vec![(1, 3.0, 2.0), (2, 1.0, 0.0)]);
        assert!((d.net_ms - 1.0).abs() < 1e-9);
        let r = solve_closed_loop(&d, &[1, 2], 16, 64, 0.0);
        assert!(r.throughput_per_sec > 0.0);
        // disk on node 1 is the bottleneck: 2ms demand, 1 server -> <=500/s
        assert!(r.throughput_per_sec <= 501.0);
    }
}

/// Wrapper accumulating per-statement costs into a transaction-level total.
pub struct Recording<'a> {
    pub inner: &'a mut dyn SqlRunner,
    pub acc: RunCost,
}

impl<'a> Recording<'a> {
    pub fn new(inner: &'a mut dyn SqlRunner) -> Self {
        Recording { inner, acc: RunCost::default() }
    }

    pub fn take(&mut self) -> RunCost {
        std::mem::take(&mut self.acc)
    }
}

impl SqlRunner for Recording<'_> {
    fn run(&mut self, sql: &str) -> pgmini::error::PgResult<pgmini::session::QueryResult> {
        let r = self.inner.run(sql)?;
        let c = self.inner.last_cost();
        self.acc.add(&c);
        Ok(r)
    }

    fn copy(
        &mut self,
        table: &str,
        columns: &[String],
        rows: Vec<pgmini::types::Row>,
    ) -> pgmini::error::PgResult<u64> {
        let n = self.inner.copy(table, columns, rows)?;
        let c = self.inner.last_cost();
        self.acc.add(&c);
        Ok(n)
    }

    fn last_cost(&mut self) -> RunCost {
        self.acc.clone()
    }
}
