//! The five workloads: what each loads, the operation stream it drives
//! through the `SqlRunner` seam, and the check that its outputs are correct.
//!
//! A stream is built from the seed alone and the program under test sees only
//! the SQL text and rows it generates. Operation counts are fixed per window
//! (`Spec::window_ops`), not per second: tables grow under writes, so a faster
//! build must not be handed more work.

use citrus::cluster::Cluster;
use pgmini::engine::{Engine, EngineConfig};
use pgmini::error::PgResult;
use pgmini::types::{Datum, Row};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use workloads::runner::{ClusterRunner, LocalRunner, SqlRunner};
use workloads::{gharchive, pgbench, tpcc, tpch, ycsb};

/// What an operation, or one request inside it, is counted as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    /// A COPY batch: a write whose rows are also counted.
    Copy,
    InsertSelect,
    RollupRead,
    Other,
}

/// One timed request inside a composite operation.
#[derive(Debug, Clone, Copy)]
pub struct Part {
    pub kind: Kind,
    pub ns: u64,
    pub rows: u64,
}

/// What one operation did. With no `parts` the operation itself is the
/// sample of its `kind`; otherwise the parts are.
#[derive(Debug)]
pub struct Outcome {
    pub kind: Kind,
    /// Counted in `latency_p50_us` and `latency_tail_us`.
    pub headline: bool,
    pub failed: bool,
    pub parts: Vec<Part>,
}

impl Outcome {
    fn of(kind: Kind, result: PgResult<()>) -> Outcome {
        Outcome {
            kind,
            headline: true,
            failed: result.is_err(),
            parts: Vec::new(),
        }
    }
}

pub trait OpStream {
    /// Run the next operation through `r`.
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome;
    /// Check the cluster's final state against what this stream issued.
    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    YcsbA,
    Tpcc,
    Tpch,
    Rta,
    DtxnWire,
}

/// The constants of one workload.
pub struct Spec {
    pub id: Id,
    pub name: &'static str,
    pub why: &'static str,
    /// What one operation is, for the printed header.
    pub op: &'static str,
    /// Operations per window, sized to about 0.4 s on the seed commit.
    pub window_ops: usize,
    /// Unmeasured operations first, so caches are warm and connections open.
    pub warmup_ops: usize,
    /// Real microseconds each wire exchange blocks for.
    pub real_rtt_us: u64,
    /// Percentile reported as `latency_tail_us`: the highest that leaves
    /// about ten samples beyond it in a window, where a window has that many.
    pub tail_q: f64,
    /// Drive through `Cluster::mx_session()` instead of a coordinator session.
    pub mx: bool,
    /// Tables vacuumed between windows (the autovacuum stand-in).
    pub vacuum: &'static [&'static str],
}

pub const SPECS: [Spec; 5] = [
    Spec {
        id: Id::YcsbA,
        name: "ycsb_a",
        why: "One tiny statement per op through an MX session: per-statement fixed cost (parse, shape hash, fast-path plan, rewrite, worker plan) dominates; fan-out, merge and 2PC idle. Tail is p99.",
        op: "YCSB operation",
        window_ops: 12_500,
        warmup_ops: 2_000,
        real_rtt_us: 0,
        tail_q: 0.99,
        mx: true,
        vacuum: &["usertable"],
    },
    Spec {
        id: Id::Tpcc,
        name: "tpcc",
        why: "About 24 statements per transaction on a coordinator session: pipelined same-worker batching, transaction blocks, locks, WAL, reference-table join, CPU-only 2PC. Latency is NewOrder's; tail is p95.",
        op: "TPC-C transaction",
        window_ops: 650,
        warmup_ops: 100,
        real_rtt_us: 0,
        tail_q: 0.95,
        mx: false,
        vacuum: &["warehouse", "district", "customer", "orders", "new_order", "stock"],
    },
    Spec {
        id: Id::Tpch,
        name: "tpch",
        why: "18 TPC-H queries in fixed order over columnar fact tables: time is in pgmini exec and batch kernels, pushdown tasks, 2-thread fan-out and merge; a per-statement saving must not show. Tail is p90.",
        op: "TPC-H query",
        window_ops: 18,
        warmup_ops: 18,
        real_rtt_us: 0,
        tail_q: 0.90,
        mx: false,
        vacuum: &["orders", "lineitem"],
    },
    Spec {
        id: Id::Rta,
        name: "rta",
        why: "Ingest and dashboards share shards: COPY of JSON events under a GIN trigram index, INSERT..SELECT, dashboard queries, rollup reads. Only workload through copy, insert_select and rollup. Tail is p80.",
        op: "cycle of COPY, INSERT..SELECT, 3 dashboard queries, 3 rollup reads",
        window_ops: 5,
        warmup_ops: 1,
        real_rtt_us: 0,
        tail_q: 0.80,
        mx: false,
        vacuum: &["github_events", "push_commits"],
    },
    Spec {
        id: Id::DtxnWire,
        name: "dtxn_wire",
        why: "Two-update transaction, about 75% two-phase commits, a real 200 us sleep per wire exchange: wall clock is exchanges times sleep, so commit-path work shows, parse and plan work must not. Tail is p90.",
        op: "pgbench two-update transaction",
        window_ops: 125,
        warmup_ops: 20,
        real_rtt_us: 200,
        tail_q: 0.90,
        mx: false,
        vacuum: &["a1", "a2"],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

const YCSB_RECORDS: u64 = 50_000;
const TPCC_WAREHOUSES: u32 = 8;
const TPCH_SF: f64 = 0.005;
const RTA_PRELOAD: usize = 20_000;
const RTA_BATCH: usize = 500;
/// Event days must stay valid January dates, so a day takes many cycles.
const RTA_CYCLES_PER_DAY: usize = 16;

fn ycsb_config() -> ycsb::YcsbConfig {
    ycsb::YcsbConfig {
        record_count: YCSB_RECORDS,
        workload: ycsb::Workload::A,
        distribution: ycsb::Distribution::Zipfian,
        zipf_theta: 0.99,
    }
}

fn tpcc_config() -> tpcc::TpccConfig {
    tpcc::TpccConfig {
        warehouses: TPCC_WAREHOUSES,
        ..Default::default()
    }
}

fn pgbench_config() -> pgbench::PgbenchConfig {
    pgbench::PgbenchConfig {
        rows_per_table: 10_000,
        same_key: false,
    }
}

fn run_all(r: &mut dyn SqlRunner, statements: &[String]) -> PgResult<()> {
    for s in statements {
        r.run(s)?;
    }
    Ok(())
}

/// DDL and load. `distributed` is false on a bare `pgmini` engine, which
/// has no distribution functions and no rollups.
pub fn setup(spec: &Spec, r: &mut dyn SqlRunner, distributed: bool, seed: u64) -> PgResult<()> {
    let dist = |statements: Vec<String>| if distributed { statements } else { Vec::new() };
    match spec.id {
        Id::YcsbA => {
            r.run(&ycsb::schema_statement())?;
            run_all(r, &dist(vec![ycsb::distribution_statement()]))?;
            ycsb::load(r, &ycsb_config(), seed)
        }
        Id::Tpcc => {
            run_all(r, &tpcc::schema_statements())?;
            run_all(r, &dist(tpcc::distribution_statements()))?;
            tpcc::load(r, &tpcc_config(), seed)
        }
        Id::Tpch => {
            run_all(r, &tpch::schema_statements())?;
            run_all(r, &dist(tpch::distribution_statements()))?;
            tpch::gen::load(r, TPCH_SF, seed).map(|_| ())
        }
        Id::Rta => {
            run_all(r, &gharchive::schema_statements())?;
            run_all(r, &dist(vec![gharchive::distribution_statement()]))?;
            run_all(r, &gharchive::transformation_schema())?;
            run_all(r, &dist(vec![gharchive::transformation_distribution()]))?;
            gharchive::load_day(r, 1, RTA_PRELOAD, seed)?;
            r.run(&gharchive::transformation_query())?;
            run_all(r, &dist(vec![gharchive::rollup_definition()]))
        }
        Id::DtxnWire => {
            run_all(r, &pgbench::schema_statements())?;
            run_all(r, &dist(pgbench::distribution_statements()))?;
            pgbench::load(r, &pgbench_config())
        }
    }
}

pub fn stream(spec: &Spec, seed: u64, distributed: bool) -> Box<dyn OpStream> {
    // the operation stream and the loaded data draw from different sequences
    let s = seed ^ 0x5eed_0b5e_55ed;
    match spec.id {
        Id::YcsbA => Box::new(YcsbStream {
            driver: ycsb::YcsbDriver::new(ycsb_config(), s),
        }),
        Id::Tpcc => Box::new(TpccStream {
            driver: tpcc::TpccDriver::new(tpcc_config(), s),
        }),
        Id::Tpch => Box::new(TpchStream { next: 0, seed }),
        Id::Rta => Box::new(RtaStream {
            seed: s,
            cycles: 0,
            day: None,
            distributed,
        }),
        Id::DtxnWire => Box::new(DtxnStream {
            driver: pgbench::PgbenchDriver::new(pgbench_config(), s),
        }),
    }
}

fn query_i64(cluster: &Arc<Cluster>, sql: &str) -> Result<i64, String> {
    let mut s = cluster.session().map_err(|e| e.to_string())?;
    let r = s.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    r.scalar()
        .and_then(|d| d.as_i64().ok())
        .ok_or_else(|| format!("{sql}: no integer result"))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

struct YcsbStream {
    driver: ycsb::YcsbDriver,
}

impl OpStream for YcsbStream {
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome {
        match self.driver.run(r) {
            Ok(ycsb::Op::Read) => Outcome::of(Kind::Read, Ok(())),
            Ok(_) => Outcome::of(Kind::Write, Ok(())),
            Err(e) => Outcome::of(Kind::Other, Err(e)),
        }
    }

    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String> {
        let rows = query_i64(cluster, "SELECT count(*) FROM usertable")?;
        expect_eq("usertable rows", rows, YCSB_RECORDS as i64)
    }
}

struct TpccStream {
    driver: tpcc::TpccDriver,
}

/// How a TPC-C transaction is counted. The median over all five kinds falls
/// in the empty gap between Payment (about 130 us) and NewOrder (about
/// 970 us) and flips between them with the seed, and so do the medians of
/// "all writes" and "all reads": each metric takes one kind instead.
pub fn tpcc_kind(kind: tpcc::TxnKind) -> (Kind, bool) {
    match kind {
        tpcc::TxnKind::NewOrder => (Kind::Other, true),
        tpcc::TxnKind::Payment => (Kind::Write, false),
        tpcc::TxnKind::StockLevel => (Kind::Read, false),
        tpcc::TxnKind::OrderStatus | tpcc::TxnKind::Delivery => (Kind::Other, false),
    }
}

impl OpStream for TpccStream {
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome {
        let txn = self.driver.next_kind();
        let (kind, headline) = tpcc_kind(txn);
        let failed = self.driver.run(r, txn).is_err();
        Outcome {
            kind,
            headline,
            failed,
            parts: Vec::new(),
        }
    }

    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String> {
        let districts =
            i64::from(TPCC_WAREHOUSES) * i64::from(tpcc_config().districts_per_warehouse);
        let next_ids = query_i64(cluster, "SELECT sum(d_next_o_id) FROM district")?;
        // every district starts at d_next_o_id = 1
        expect_eq(
            "d_next_o_id growth",
            next_ids - districts,
            self.driver.new_orders as i64,
        )?;
        let orders = query_i64(cluster, "SELECT count(*) FROM orders")?;
        expect_eq("orders rows", orders, self.driver.new_orders as i64)
    }
}

struct TpchStream {
    next: usize,
    seed: u64,
}

fn tpch_query(i: usize) -> String {
    let n = tpch::queries::SUPPORTED[i % tpch::queries::SUPPORTED.len()];
    tpch::queries::query(n).expect("a supported query has text")
}

/// Row count, order-independent hash of the non-numeric cells, sum of the
/// numeric cells. Partial aggregates merge in another order on a cluster, so
/// the sum is compared with a tolerance.
fn digest(rows: &[Row]) -> (usize, u64, f64) {
    let mut hash = 0u64;
    let mut sum = 0.0;
    for row in rows {
        for (col, d) in row.iter().enumerate() {
            match d {
                Datum::Int(i) => sum += *i as f64,
                Datum::Float(f) => sum += *f,
                other => {
                    let mut h = DefaultHasher::new();
                    (col, format!("{other:?}")).hash(&mut h);
                    hash = hash.wrapping_add(h.finish());
                }
            }
        }
    }
    (rows.len(), hash, sum)
}

impl OpStream for TpchStream {
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome {
        let sql = tpch_query(self.next);
        self.next += 1;
        Outcome::of(Kind::Read, r.run(&sql).map(|_| ()))
    }

    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String> {
        let spec = spec("tpch").expect("tpch is a workload");
        let mut single = single_node();
        setup(spec, &mut single, false, self.seed).map_err(|e| e.to_string())?;
        let mut dist = ClusterRunner {
            session: cluster.session().map_err(|e| e.to_string())?,
        };
        for i in 0..tpch::queries::SUPPORTED.len() {
            let sql = tpch_query(i);
            let want = digest(single.run(&sql).map_err(|e| e.to_string())?.rows());
            let got = digest(dist.run(&sql).map_err(|e| e.to_string())?.rows());
            let q = tpch::queries::SUPPORTED[i];
            expect_eq(
                &format!("Q{q} rows and text"),
                (got.0, got.1),
                (want.0, want.1),
            )?;
            if (got.2 - want.2).abs() > 1e-6 * want.2.abs().max(1.0) {
                return Err(format!(
                    "Q{q} numeric sum: got {}, expected {}",
                    got.2, want.2
                ));
            }
        }
        Ok(())
    }
}

struct RtaStream {
    seed: u64,
    cycles: usize,
    /// The day being ingested and its event generator.
    day: Option<(u32, gharchive::EventGenerator)>,
    distributed: bool,
}

fn event_id(row: &Row) -> &str {
    match &row[0] {
        Datum::Text(id) => id,
        other => unreachable!("event ids are text, not {other:?}"),
    }
}

const ROLLUP_RECOMPUTE: &str = "SELECT day, count(*) AS pushes, sum(commit_count) AS commits \
                                FROM push_commits GROUP BY day ORDER BY day";

impl OpStream for RtaStream {
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome {
        // day 1 is the preload; 2020-01-31 is the last valid date
        let day = (2 + self.cycles / RTA_CYCLES_PER_DAY).min(31) as u32;
        self.cycles += 1;
        if self.day.as_ref().map(|(d, _)| *d) != Some(day) {
            self.day = Some((day, gharchive::EventGenerator::new(day, self.seed)));
        }
        let batch = self.day.as_mut().expect("set above").1.batch(RTA_BATCH);
        // the transformation reads only this batch, by its primary-key range
        let transform = format!(
            "{} AND event_id >= '{}' AND event_id <= '{}'",
            gharchive::transformation_query(),
            event_id(&batch[0]),
            event_id(&batch[RTA_BATCH - 1]),
        );
        let rollup_read = if self.distributed {
            gharchive::rollup_dashboard_query()
        } else {
            ROLLUP_RECOMPUTE.to_string()
        };

        let mut parts = Vec::with_capacity(8);
        let mut failed = false;
        let mut timed = |kind: Kind, run: &mut dyn FnMut() -> PgResult<u64>| {
            let t0 = std::time::Instant::now();
            let rows = run();
            let ns = t0.elapsed().as_nanos() as u64;
            failed |= rows.is_err();
            parts.push(Part {
                kind,
                ns,
                rows: rows.unwrap_or(0),
            });
        };
        let mut batch = Some(batch);
        timed(Kind::Copy, &mut || {
            r.copy(
                "github_events",
                &[],
                batch.take().expect("one COPY per cycle"),
            )
        });
        timed(Kind::InsertSelect, &mut || {
            r.run(&transform).map(|q| q.affected())
        });
        for _ in 0..3 {
            timed(Kind::Read, &mut || {
                r.run(&gharchive::dashboard_query()).map(|_| 0)
            });
        }
        for _ in 0..3 {
            timed(Kind::RollupRead, &mut || r.run(&rollup_read).map(|_| 0));
        }
        Outcome {
            kind: Kind::Other,
            headline: true,
            failed,
            parts,
        }
    }

    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String> {
        let events = query_i64(cluster, "SELECT count(*) FROM github_events")?;
        expect_eq(
            "github_events rows",
            events,
            (RTA_PRELOAD + RTA_BATCH * self.cycles) as i64,
        )?;
        let mut s = cluster.session().map_err(|e| e.to_string())?;
        let rollup = s
            .query(&gharchive::rollup_dashboard_query())
            .map_err(|e| e.to_string())?;
        let recomputed = s.query(ROLLUP_RECOMPUTE).map_err(|e| e.to_string())?;
        expect_eq(
            "commit_rollup against a recompute over push_commits",
            rollup,
            recomputed,
        )
    }
}

struct DtxnStream {
    driver: pgbench::PgbenchDriver,
}

impl OpStream for DtxnStream {
    fn next(&mut self, r: &mut dyn SqlRunner) -> Outcome {
        Outcome::of(Kind::Write, self.driver.run(r).map(|_| ()))
    }

    fn check(&self, cluster: &Arc<Cluster>) -> Result<(), String> {
        let a1 = query_i64(cluster, "SELECT sum(v) FROM a1")?;
        let a2 = query_i64(cluster, "SELECT sum(v) FROM a2")?;
        expect_eq("sum(a1.v) + sum(a2.v)", a1 + a2, 0)?;
        for node in cluster.nodes() {
            let left = node.engine().txns.prepared_gids();
            expect_eq(
                &format!("prepared transactions left on {}", node.name),
                left,
                Vec::new(),
            )?;
        }
        Ok(())
    }
}

/// A bare `pgmini` engine: the paper's single PostgreSQL server.
pub fn single_node() -> LocalRunner {
    let engine = Engine::new(EngineConfig::default());
    LocalRunner {
        session: engine
            .session()
            .expect("a fresh engine has free connections"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_tpcc_metric_takes_one_transaction_kind() {
        use tpcc::TxnKind::*;
        assert_eq!(tpcc_kind(NewOrder), (Kind::Other, true));
        assert_eq!(tpcc_kind(Payment), (Kind::Write, false));
        assert_eq!(tpcc_kind(StockLevel), (Kind::Read, false));
        assert_eq!(tpcc_kind(OrderStatus), (Kind::Other, false));
        assert_eq!(tpcc_kind(Delivery), (Kind::Other, false));
    }

    #[test]
    fn a_tpch_window_is_one_round_of_the_supported_queries() {
        let s = spec("tpch").unwrap();
        assert_eq!(s.window_ops, tpch::queries::SUPPORTED.len());
        assert_eq!(s.warmup_ops % s.window_ops, 0);
        assert_eq!(tpch_query(0), tpch_query(s.window_ops));
    }

    #[test]
    fn digest_ignores_row_order_and_separates_columns() {
        let a = vec![
            vec![Datum::Text("x".into()), Datum::Int(1)],
            vec![Datum::Text("y".into()), Datum::Int(2)],
        ];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(digest(&a), digest(&b));
        let swapped = vec![vec![Datum::Int(1), Datum::Text("x".into())], a[1].clone()];
        assert_ne!(digest(&a).1, digest(&swapped).1);
    }

    #[test]
    fn names_are_unique_and_short() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(
                s.why.len() <= 200,
                "{}: why has {} characters",
                s.name,
                s.why.len()
            );
            assert!(SPECS[..i].iter().all(|t| t.name != s.name));
        }
    }
}
