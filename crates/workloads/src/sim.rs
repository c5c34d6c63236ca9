//! `citrus-sim` — deterministic whole-cluster simulation harness.
//!
//! From a single seed the harness derives (a) a workload mix drawn from the
//! four §4 patterns, driven through the [`SqlRunner`] seam, and (b) an
//! interleaved schedule of cluster lifecycle events: shard-group moves, node
//! crash + standby promotion, distributed DDL, maintenance-daemon passes,
//! and a seeded [`FaultPlan`]. Every committed read is differentially
//! checked against a single-node pgmini oracle that receives the identical
//! statement stream, and standing invariants are asserted after every
//! lifecycle event:
//!
//! * every non-reference shard has exactly one live placement;
//! * no node holds an orphan physical shard table;
//! * the move journal has no pending records;
//! * no prepared transaction is stuck on any node.
//!
//! On failure the schedule is shrunk (greedy ddmin over the event list) to a
//! minimal reproducer and the replay seed is printed, so any red run becomes
//! a one-line deterministic repro. Run without faults, the same harness is
//! the §4 evaluation: [`bench_pattern`] reports distributed vs single-node
//! virtual throughput and latency percentiles per pattern.

use crate::gharchive;
use crate::patterns::Pattern;
use crate::runner::{ClusterRunner, LocalRunner, MeteredRunner, MxRunner, SqlRunner};
use crate::tpcc::{self, TpccConfig, TpccDriver};
use crate::tpch;
use crate::ycsb::{self, YcsbConfig, YcsbDriver};
use citrus::cluster::{Cluster, ClusterConfig};
use citrus::cost::DistCost;
use citrus::metadata::{NodeId, FIRST_SHARD_ID};
use citrus::rebalancer::{self, MOVE_PHASE_TAGS};
use citrus::{deadlock, ha, recovery};
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::engine::Engine;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::QueryResult;
use pgmini::types::{Datum, Row};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------- configuration ----------------

/// One simulated run: a seed plus the knobs that shape it. Everything a run
/// does is a pure function of this struct, which is the replay contract.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    /// Schedule length before the guaranteed-coverage fixups.
    pub events: usize,
    pub workers: u32,
    pub shard_count: u32,
    pub executor_threads: usize,
    /// Install the chaos fault plan (read errors absorbed by executor
    /// retries, latency everywhere, a scripted one-shot read error, and a
    /// probabilistic move-phase error). Off = clean evaluation mode.
    pub faults: bool,
    pub tracing: bool,
    /// Drive the distributed side through an MX-routed session
    /// ([`crate::runner::MxRunner`]): tenant transactions pin to the worker
    /// owning their placement and bypass the coordinator. Seed-derived by
    /// default so the corpus covers both the bypass and the classic
    /// coordinator path — still a pure function of the seed, so the
    /// replay-by-seed contract is unchanged.
    pub mx_routing: bool,
    /// Run the cluster with distributed snapshot isolation
    /// (`ClusterConfig::snapshot_isolation`): every distributed read
    /// evaluates under a coordinator-issued commit-clock token, checked
    /// against the MirrorRunner oracle like any other read. Seed-derived
    /// (even seeds) so the corpus drives both modes; the read-skew invariant
    /// in [`check_read_skew`] knows which guarantee to hold the run to.
    pub snapshot_isolation: bool,
    /// Grow the schedule with [`SimEvent::MxInterleave`] events: open MX
    /// transactions that a propagated DDL, a frozen-mid-fan-out DDL
    /// ([`citrus::interleave::freeze_ddl`]), or a shard move interleaves
    /// into at a statement boundary — the generation-fence drill. Off by
    /// default so the existing seed corpus (schedules, fingerprints) is
    /// byte-identical with the flag absent.
    pub mx_ddl_interleave: bool,
    /// Maintain an incrementally updated rollup over the RTA transformation
    /// output (`push_commits`): created chaos-free at setup when the seed's
    /// mix includes [`Pattern::RealTimeAnalytics`], drained by every
    /// `Maintenance` event, and held byte-equal to a from-scratch recompute
    /// by [`check_invariants`] after every event. Seed-derived (odd seeds) —
    /// the flag adds no schedule events and no rng draws, so derived
    /// schedules are byte-identical either way.
    pub rollups: bool,
}

impl SimConfig {
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            events: 30,
            workers: 2,
            shard_count: 8,
            executor_threads: 2,
            faults: true,
            tracing: false,
            mx_routing: seed.is_multiple_of(2),
            snapshot_isolation: seed.is_multiple_of(2),
            mx_ddl_interleave: false,
            rollups: seed % 2 == 1,
        }
    }
}

/// Workload scale used inside simulation runs (kept tiny: the corpus runs
/// dozens of seeds in debug builds inside the CI gate).
#[derive(Debug, Clone)]
pub struct SimScales {
    pub tpcc: TpccConfig,
    pub ycsb: YcsbConfig,
    /// Initial GHArchive events loaded for day 1.
    pub gh_events: usize,
    /// Events per chaos ingest batch.
    pub gh_batch: usize,
    pub tpch_sf: f64,
}

impl Default for SimScales {
    fn default() -> Self {
        SimScales {
            tpcc: TpccConfig {
                warehouses: 4,
                items: 20,
                districts_per_warehouse: 2,
                customers_per_district: 4,
                ..TpccConfig::default()
            },
            ycsb: YcsbConfig { record_count: 80, ..YcsbConfig::default() },
            gh_events: 120,
            gh_batch: 25,
            tpch_sf: 0.001,
        }
    }
}

// ---------------- schedule grammar ----------------

/// One step of a simulated schedule. `Txn` advances the seed's workload mix
/// by one unit; the rest are cluster lifecycle events. `Corrupt` never
/// appears in derived schedules — the mutation tests splice it in to prove
/// the invariant checker and shrinker catch planted metadata bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    Txn { pattern: Pattern },
    /// Move the shard group holding bucket `bucket_sel % shard_count` of the
    /// primary pattern's anchor table to another worker.
    Move { bucket_sel: u32 },
    /// Crash worker `worker_sel % workers` and promote its WAL standby.
    Failover { worker_sel: u32 },
    /// Distributed CREATE INDEX (propagates to shards, bumps the metadata
    /// generation, invalidates the plan cache). `n` keeps names unique.
    Ddl { n: u32 },
    /// One maintenance-daemon pass: deadlock detection, 2PC recovery, move
    /// recovery.
    Maintenance,
    /// Generation-fence drill (only generated when
    /// [`SimConfig::mx_ddl_interleave`] is on): open an MX transaction, land
    /// a write, then interleave a metadata change of the selected flavor
    /// into it from the coordinator before the transaction's next statement.
    /// `sel` keeps index names unique and picks move buckets, like
    /// `Ddl::n`.
    MxInterleave { kind: MxInterleaveKind, sel: u32 },
    /// Deliberately plant a metadata bug (mutation testing only).
    Corrupt { kind: CorruptKind },
}

/// Which metadata change an [`SimEvent::MxInterleave`] drives into the open
/// MX transaction — each flavor lands in a different arm of the escalation
/// contract (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MxInterleaveKind {
    /// Propagated CREATE INDEX on the table the transaction planned
    /// against: conflicting bump, the transaction must fence with a
    /// retryable 40001 and succeed on retry.
    ConflictDdl,
    /// Propagated CREATE INDEX on an unrelated table: non-conflicting bump,
    /// the transaction escalates to the coordinator path and commits.
    EscalateDdl,
    /// Shard move of a drill bucket: the pre-fence (same placement) or the
    /// metadata switch (any placement) fences the transaction; the retry
    /// re-resolves its route against the moved placement.
    Move,
    /// DDL frozen mid-fan-out by [`citrus::interleave::freeze_ddl`]: the
    /// generation bump precedes the stuck fan-out, so the transaction
    /// fences *inside* the propagation window.
    FrozenDdl,
}

/// The planted metadata bugs the mutation tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Append a second placement to a distributed shard.
    DuplicatePlacement,
    /// Create a stray physical shard table on a worker.
    OrphanShardTable,
}

/// Patterns whose schemas share table names cannot share one database.
fn patterns_conflict(a: Pattern, b: Pattern) -> bool {
    // TPC-C and TPC-H both define `orders` and `customer`
    matches!(
        (a, b),
        (Pattern::MultiTenant, Pattern::DataWarehousing)
            | (Pattern::DataWarehousing, Pattern::MultiTenant)
    )
}

/// The patterns a seed's workload mix draws from: a primary rotating over
/// all four, plus (for half the seeds) a compatible secondary.
pub fn enabled_patterns(cfg: &SimConfig) -> Vec<Pattern> {
    let primary = Pattern::ALL[(cfg.seed % 4) as usize];
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE1AB_1ED5_EED5);
    let mut out = vec![primary];
    if rng.random_bool(0.5) {
        let candidates: Vec<Pattern> = Pattern::ALL
            .iter()
            .copied()
            .filter(|p| *p != primary && !patterns_conflict(primary, *p))
            .collect();
        out.push(candidates[rng.random_range(0..candidates.len())]);
    }
    out
}

/// The distributed table whose shard groups the schedule moves around —
/// always from the primary pattern, so it exists in every run of the seed.
fn anchor_table(primary: Pattern) -> &'static str {
    match primary {
        Pattern::MultiTenant => "warehouse",
        Pattern::RealTimeAnalytics => "github_events",
        Pattern::HighPerformanceCrud => "usertable",
        Pattern::DataWarehousing => "orders",
    }
}

/// `(table, column)` each pattern's DDL events index.
fn ddl_target(primary: Pattern) -> (&'static str, &'static str) {
    match primary {
        Pattern::MultiTenant => ("orders", "o_c_id"),
        Pattern::RealTimeAnalytics => ("github_events", "event_id"),
        Pattern::HighPerformanceCrud => ("usertable", "field0"),
        Pattern::DataWarehousing => ("lineitem", "l_suppkey"),
    }
}

/// Derive the seed's schedule. Guaranteed coverage regardless of the dice:
/// at least one workload transaction, two shard moves, and one failover;
/// the run itself guarantees at least one faulted statement via a scripted
/// fault rule. A trailing maintenance pass settles the cluster.
pub fn derive_schedule(cfg: &SimConfig) -> Vec<SimEvent> {
    let patterns = enabled_patterns(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_5C4E_D01E);
    let mut events: Vec<SimEvent> = Vec::with_capacity(cfg.events + 4);
    for _ in 0..cfg.events {
        events.push(match rng.random_range(0..100u32) {
            0..68 => SimEvent::Txn { pattern: patterns[rng.random_range(0..patterns.len())] },
            68..78 => SimEvent::Move { bucket_sel: rng.random_range(0..cfg.shard_count) },
            78..84 => SimEvent::Failover { worker_sel: rng.random_range(0..cfg.workers) },
            84..92 => SimEvent::Ddl { n: 0 },
            _ => SimEvent::Maintenance,
        });
    }
    let count = |evs: &[SimEvent], f: fn(&SimEvent) -> bool| evs.iter().filter(|e| f(e)).count();
    if count(&events, |e| matches!(e, SimEvent::Txn { .. })) == 0 {
        events.insert(0, SimEvent::Txn { pattern: patterns[0] });
    }
    while count(&events, |e| matches!(e, SimEvent::Move { .. })) < 2 {
        let at = rng.random_range(0..=events.len());
        events.insert(at, SimEvent::Move { bucket_sel: rng.random_range(0..cfg.shard_count) });
    }
    if count(&events, |e| matches!(e, SimEvent::Failover { .. })) == 0 {
        let at = rng.random_range(0..=events.len());
        events.insert(at, SimEvent::Failover { worker_sel: rng.random_range(0..cfg.workers) });
    }
    if cfg.mx_ddl_interleave {
        // one drill of every flavor, spliced at seed-chosen points; extra
        // rng draws happen only with the flag on, so flag-off schedules are
        // byte-identical to the historical corpus
        use MxInterleaveKind::*;
        for kind in [ConflictDdl, EscalateDdl, Move, FrozenDdl] {
            let at = rng.random_range(0..=events.len());
            events.insert(at, SimEvent::MxInterleave { kind, sel: 0 });
        }
    }
    events.push(SimEvent::Maintenance);
    // unique DDL index names, stable under shrinking
    for (i, e) in events.iter_mut().enumerate() {
        match e {
            SimEvent::Ddl { n } => *n = i as u32,
            SimEvent::MxInterleave { sel, .. } => *sel = i as u32,
            _ => {}
        }
    }
    events
}

// ---------------- differential mirror ----------------

/// Rounded normalization so `Int(5)`, `Float(5.0)`, and float aggregates
/// computed shard-local-then-merged vs single-node compare equal (same
/// 4-decimal contract as the workloads differential tests).
fn datum_key(d: &Datum) -> String {
    if let Ok(i) = d.as_i64() {
        return i.to_string();
    }
    if let Ok(f) = d.as_f64() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            return (f as i64).to_string();
        }
        return format!("{f:.4}");
    }
    format!("{d:?}")
}

fn row_keys(r: &QueryResult, ordered: bool) -> Vec<String> {
    let mut keys: Vec<String> = r
        .rows()
        .iter()
        .map(|row| row.iter().map(datum_key).collect::<Vec<_>>().join(","))
        .collect();
    if !ordered {
        keys.sort();
    }
    keys
}

/// A [`SqlRunner`] that executes every statement on the distributed cluster
/// AND on the single-node oracle, comparing read result multisets and write
/// affected-counts. Statement errors on the distributed side (chaos) are
/// propagated *without* running the oracle, so the workload driver's
/// ROLLBACK keeps both sides transactionally aligned. Reads outside a
/// transaction whose executor retries were exhausted are re-submitted a
/// bounded number of times, like a real client.
pub struct MirrorRunner {
    /// The distributed side under test: a coordinator [`ClusterRunner`] or an
    /// MX-routed [`crate::runner::MxRunner`] — the oracle checks are
    /// identical either way.
    pub dist: Box<dyn SqlRunner + Send>,
    pub oracle: LocalRunner,
    /// First divergence observed, if any. Once set, the mirror refuses
    /// further statements.
    pub divergence: Option<String>,
    pub reads_checked: u64,
    pub writes_checked: u64,
    pub resubmitted_reads: u64,
    in_txn: bool,
}

enum StmtClass {
    DistOnly,
    TxnControl,
    Ddl,
    Write,
    Read { ordered: bool },
}

fn classify(sql: &str) -> StmtClass {
    let s = sql.trim_start();
    let upper = s.get(..12).unwrap_or(s).to_ascii_uppercase();
    if s.starts_with("SELECT create_distributed_table")
        || s.starts_with("SELECT create_reference_table")
    {
        return StmtClass::DistOnly;
    }
    if upper.starts_with("BEGIN") || upper.starts_with("COMMIT") || upper.starts_with("ROLLBACK") {
        return StmtClass::TxnControl;
    }
    if upper.starts_with("CREATE") || upper.starts_with("DROP") || upper.starts_with("ALTER") {
        return StmtClass::Ddl;
    }
    if upper.starts_with("INSERT") || upper.starts_with("UPDATE") || upper.starts_with("DELETE") {
        return StmtClass::Write;
    }
    StmtClass::Read { ordered: sql.to_ascii_uppercase().contains("ORDER BY") }
}

impl MirrorRunner {
    pub fn new(dist: impl SqlRunner + Send + 'static, oracle: LocalRunner) -> MirrorRunner {
        MirrorRunner {
            dist: Box::new(dist),
            oracle,
            divergence: None,
            reads_checked: 0,
            writes_checked: 0,
            resubmitted_reads: 0,
            in_txn: false,
        }
    }

    fn diverged(&mut self, detail: String) -> PgError {
        let msg = format!("sim divergence: {detail}");
        self.divergence = Some(detail);
        PgError::internal(&msg)
    }

    /// Distributed-side execution; bounded client re-submission for reads
    /// outside a transaction whose executor retries were exhausted.
    fn dist_run(&mut self, sql: &str, read: bool) -> PgResult<QueryResult> {
        let mut last: Option<PgError> = None;
        let attempts = if read && !self.in_txn { 12 } else { 1 };
        for attempt in 0..attempts {
            match self.dist.run(sql) {
                Ok(r) => {
                    if attempt > 0 {
                        self.resubmitted_reads += 1;
                    }
                    return Ok(r);
                }
                Err(e) if e.code == ErrorCode::ConnectionFailure && attempt + 1 < attempts => {
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| PgError::internal("dist_run: no attempts")))
    }
}

impl SqlRunner for MirrorRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        if let Some(d) = &self.divergence {
            return Err(PgError::internal(format!("sim divergence (earlier): {d}")));
        }
        let class = classify(sql);
        if let StmtClass::DistOnly = class {
            return self.dist.run(sql);
        }
        let read = matches!(class, StmtClass::Read { .. });
        let dist = self.dist_run(sql, read)?;
        let oracle = match self.oracle.run(sql) {
            Ok(r) => r,
            Err(e) => {
                return Err(self.diverged(format!(
                    "oracle failed where distributed succeeded for `{sql}`: {e:?}"
                )))
            }
        };
        match class {
            StmtClass::TxnControl => {
                let s = sql.trim_start().to_ascii_uppercase();
                self.in_txn = s.starts_with("BEGIN");
            }
            StmtClass::Write => {
                self.writes_checked += 1;
                if dist.affected() != oracle.affected() {
                    return Err(self.diverged(format!(
                        "affected counts diverge for `{sql}`: dist={} oracle={}",
                        dist.affected(),
                        oracle.affected()
                    )));
                }
            }
            StmtClass::Read { ordered } => {
                self.reads_checked += 1;
                let (d, o) = (row_keys(&dist, ordered), row_keys(&oracle, ordered));
                if d != o {
                    return Err(self.diverged(format!(
                        "result sets diverge for `{sql}`: dist={d:?} oracle={o:?}"
                    )));
                }
            }
            StmtClass::Ddl | StmtClass::DistOnly => {}
        }
        Ok(dist)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        if let Some(d) = &self.divergence {
            return Err(PgError::internal(format!("sim divergence (earlier): {d}")));
        }
        let n_dist = self.dist.copy(table, columns, rows.clone())?;
        let n_oracle = match self.oracle.copy(table, columns, rows) {
            Ok(n) => n,
            Err(e) => {
                return Err(self.diverged(format!(
                    "oracle COPY {table} failed where distributed succeeded: {e:?}"
                )))
            }
        };
        self.writes_checked += 1;
        if n_dist != n_oracle {
            return Err(self.diverged(format!(
                "COPY {table} row counts diverge: dist={n_dist} oracle={n_oracle}"
            )));
        }
        Ok(n_dist)
    }

    fn last_cost(&mut self) -> DistCost {
        self.dist.last_cost()
    }
}

// ---------------- workload units ----------------

/// One pattern's driver state, surviving across the schedule's Txn events.
enum Driver {
    Tpcc(TpccDriver),
    Ycsb(YcsbDriver),
    /// The analytics ingest stream (day 2, distinct from the day-1 load).
    /// `rollup` serves dashboard reads from the incrementally maintained
    /// commit rollup instead of re-aggregating `push_commits`; only the
    /// distributed bench arm sets it, the chaos sim and the single-node
    /// mirror keep the raw aggregate.
    Analytics { events: gharchive::EventGenerator, rollup: bool },
    /// The position in the round of supported TPC-H queries.
    Tpch { next: usize },
}

fn setup_pattern(
    r: &mut dyn SqlRunner,
    pattern: Pattern,
    scales: &SimScales,
    distributed: bool,
    seed: u64,
) -> PgResult<()> {
    match pattern {
        Pattern::MultiTenant => {
            for s in tpcc::schema_statements() {
                r.run(&s)?;
            }
            if distributed {
                for s in tpcc::distribution_statements() {
                    r.run(&s)?;
                }
            }
            tpcc::load(r, &scales.tpcc, seed)?;
        }
        Pattern::RealTimeAnalytics => {
            for s in gharchive::schema_statements() {
                r.run(&s)?;
            }
            if distributed {
                r.run(&gharchive::distribution_statement())?;
            }
            for s in gharchive::transformation_schema() {
                r.run(&s)?;
            }
            if distributed {
                r.run(&gharchive::transformation_distribution())?;
            }
            gharchive::load_day(r, 1, scales.gh_events, seed)?;
        }
        Pattern::HighPerformanceCrud => {
            r.run(&ycsb::schema_statement())?;
            if distributed {
                r.run(&ycsb::distribution_statement())?;
            }
            ycsb::load(r, &scales.ycsb, seed)?;
        }
        Pattern::DataWarehousing => {
            for s in tpch::schema_statements() {
                r.run(&s)?;
            }
            if distributed {
                for s in tpch::distribution_statements() {
                    r.run(&s)?;
                }
            }
            tpch::gen::load(r, scales.tpch_sf, seed)?;
        }
    }
    Ok(())
}

impl Driver {
    fn new(pattern: Pattern, scales: &SimScales, seed: u64) -> Driver {
        match pattern {
            Pattern::MultiTenant => Driver::Tpcc(TpccDriver::new(scales.tpcc.clone(), seed ^ 0x7139)),
            Pattern::HighPerformanceCrud => {
                Driver::Ycsb(YcsbDriver::new(scales.ycsb.clone(), seed ^ 0x9c5b))
            }
            Pattern::RealTimeAnalytics => Driver::Analytics {
                events: gharchive::EventGenerator::new(2, seed ^ 0x11d7),
                rollup: false,
            },
            Pattern::DataWarehousing => Driver::Tpch { next: 0 },
        }
    }

    /// Run one workload unit of the driver's pattern through the runner.
    fn run_unit(&mut self, r: &mut dyn SqlRunner, scales: &SimScales, rng: &mut StdRng) -> PgResult<()> {
        match self {
            Driver::Tpcc(d) => {
                let kind = d.next_kind();
                d.run(r, kind)?;
            }
            Driver::Ycsb(d) => {
                d.run(r)?;
            }
            Driver::Analytics { events, rollup } => match rng.random_range(0..4u32) {
                0 | 1 => {
                    if *rollup {
                        r.run(&gharchive::rollup_dashboard_query())?;
                    } else {
                        r.run(&gharchive::dashboard_query())?;
                    }
                }
                2 => {
                    r.copy("github_events", &[], events.batch(scales.gh_batch))?;
                }
                _ => {
                    r.run(&gharchive::transformation_query())?;
                }
            },
            Driver::Tpch { next } => {
                let q = tpch::queries::SUPPORTED[*next % tpch::queries::SUPPORTED.len()];
                *next += 1;
                let sql = tpch::queries::query(q)
                    .ok_or_else(|| PgError::internal(format!("TPC-H Q{q} has no text")))?;
                r.run(&sql)?;
            }
        }
        Ok(())
    }
}

/// Differential checks of the final state, per pattern.
fn verification_queries(pattern: Pattern) -> Vec<String> {
    match pattern {
        Pattern::MultiTenant => vec![
            "SELECT count(*), sum(o_id), sum(o_ol_cnt) FROM orders".into(),
            "SELECT sum(d_next_o_id), sum(d_ytd) FROM district".into(),
            "SELECT count(*), sum(ol_quantity) FROM order_line".into(),
            "SELECT sum(s_quantity), sum(s_ytd) FROM stock".into(),
            "SELECT count(*), sum(h_amount) FROM history".into(),
            "SELECT sum(c_balance), sum(c_ytd_payment) FROM customer".into(),
            "SELECT count(*) FROM new_order".into(),
        ],
        Pattern::RealTimeAnalytics => vec![
            "SELECT count(*) FROM github_events".into(),
            gharchive::dashboard_query(),
            "SELECT count(*), sum(commit_count) FROM push_commits".into(),
        ],
        Pattern::HighPerformanceCrud => vec![
            "SELECT count(*) FROM usertable".into(),
            "SELECT * FROM usertable ORDER BY ycsb_key".into(),
        ],
        Pattern::DataWarehousing => vec![
            "SELECT count(*), sum(l_quantity) FROM lineitem".into(),
            "SELECT count(*), sum(o_totalprice) FROM orders".into(),
        ],
    }
}

// ---------------- invariants ----------------

/// The standing cluster invariants, as a `Result` so the harness can shrink
/// on violation: one live placement per distributed shard (reference shards
/// place everywhere by design), physical shard tables exactly where the
/// metadata says and nowhere else, an empty move journal, and no prepared
/// transaction parked on any node.
pub fn check_invariants(c: &Arc<Cluster>) -> Result<(), String> {
    let meta = c.metadata.read();
    let mut expected: std::collections::HashSet<(NodeId, String)> = Default::default();
    // Metadata keeps tables in a HashMap; sort so the first violation we
    // report is the same one on every replay.
    let mut tables: Vec<_> = meta.tables().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for t in tables {
        for sid in &t.shards {
            let shard = meta.shard(*sid).map_err(|e| format!("shard {sid:?} missing: {e:?}"))?;
            if t.is_reference() {
                for node in &shard.placements {
                    expected.insert((*node, shard.physical_name()));
                }
                continue;
            }
            if shard.placements.len() != 1 {
                return Err(format!(
                    "shard {sid:?} of {} has {} placements (want exactly 1)",
                    t.name,
                    shard.placements.len()
                ));
            }
            let node = shard.placements[0];
            let live = c.node(node).map(|n| n.is_active()).unwrap_or(false);
            if !live {
                return Err(format!("placement node {} of shard {sid:?} is down", node.0));
            }
            expected.insert((node, shard.physical_name()));
        }
    }
    drop(meta);
    for node in c.nodes() {
        if !node.is_active() {
            continue;
        }
        for name in node.engine().catalog.read().table_names() {
            let Some((_, id)) = name.rsplit_once('_') else { continue };
            let Ok(id) = id.parse::<u64>() else { continue };
            if id < FIRST_SHARD_ID {
                continue;
            }
            if !expected.contains(&(node.id, name.clone())) {
                return Err(format!("orphan physical table {name} on node {}", node.name));
            }
        }
    }
    // HashSet iteration order is not stable; sort so that which violation
    // gets reported first is replay-deterministic.
    let mut expected_sorted: Vec<&(NodeId, String)> = expected.iter().collect();
    expected_sorted.sort_by_key(|(n, p)| (n.0, p.clone()));
    for (node, physical) in expected_sorted {
        let present = c
            .node(*node)
            .map(|n| n.engine().table_meta(physical).is_ok())
            .unwrap_or(false);
        if !present {
            return Err(format!("placement {physical} missing on node {}", node.0));
        }
    }
    let pending =
        rebalancer::pending_moves(c).map_err(|e| format!("move journal unreadable: {e:?}"))?;
    if !pending.is_empty() {
        return Err(format!("move journal still has pending records: {pending:?}"));
    }
    // Decided-but-unapplied halves are a *read-skew window*, a more specific
    // violation than "stuck prepared"; check it first so the sharper error
    // wins when a frozen commit trips both.
    check_read_skew(c)?;
    for node in c.nodes() {
        if !node.is_active() {
            continue;
        }
        let gids = node.engine().txns.prepared_gids();
        if !gids.is_empty() {
            return Err(format!("stuck prepared transactions on {}: {gids:?}", node.name));
        }
    }
    // every registered rollup must equal a from-scratch recompute of its
    // defining query (the check drains the changefeed first; no-op when no
    // rollups exist). A refresh or recompute aborted by an injected
    // connection failure is chaos, not divergence — the next check retries.
    for name in c.rollups.names() {
        match citrus::rollup::verify(c, &name) {
            Ok(()) => {}
            Err(e) if e.code == ErrorCode::ConnectionFailure => {}
            Err(e) => return Err(format!("rollup {name} diverged from recompute: {e:?}")),
        }
    }
    Ok(())
}

/// The cross-node read-skew invariant (§3.7.4). A prepared transaction whose
/// durable commit record exists is *decided*: its other halves are (or will
/// be) visible on their nodes while this node still hides it — exactly the
/// window a concurrent multi-node read can observe half-applied.
///
/// * `snapshot_isolation` off: any such half IS an open anomaly window —
///   report it as read skew. (The paper accepts this; the sim only drives
///   this check on mode-on seeds, and the anomaly tests assert the `Err`.)
/// * `snapshot_isolation` on: the window is harmless **iff** the decided
///   commit timestamp was published to the commit clock before any
///   `COMMIT PREPARED` went out, because token readers then see the frozen
///   half through the registry. A decided gid missing from the registry
///   would silently re-open the anomaly, so that is the violation.
pub fn check_read_skew(c: &Arc<Cluster>) -> Result<(), String> {
    for node in c.nodes() {
        if !node.is_active() {
            continue;
        }
        for gid in node.engine().txns.prepared_gids() {
            let Some((origin, _)) = citrus::extension::parse_gid(&gid) else { continue };
            let decided = recovery::commit_record_exists(c, NodeId(origin), &gid)
                .map_err(|e| format!("commit records unreadable for {gid}: {e:?}"))?;
            if !decided {
                continue; // undecided: invisible everywhere, no skew possible
            }
            if !c.config.snapshot_isolation {
                return Err(format!(
                    "cross-node read skew window: {gid} decided-committed but still \
                     prepared on {}",
                    node.name
                ));
            }
            if c.commit_clock.decided(&gid).is_none() {
                return Err(format!(
                    "snapshot isolation hole: {gid} decided-committed on {} but its \
                     commit timestamp was never published to the commit clock",
                    node.name
                ));
            }
        }
    }
    Ok(())
}

/// Commit records are recovery's alone to delete (§3.7.2). After a pass that
/// reached every node, each remaining record still has a prepared gid; once
/// `settled` (the final pass) none remains, and recovery swept one per 2PC.
pub fn check_commit_records(c: &Arc<Cluster>, settled: bool) -> Result<(), String> {
    use std::sync::atomic::Ordering::Relaxed;
    let (written, swept) =
        (c.metrics.twopc_commits.load(Relaxed), c.metrics.commit_records_swept.load(Relaxed));
    if settled && swept != written {
        return Err(format!("{written} 2PC commits wrote records, recovery swept {swept}"));
    }
    let nodes = c.nodes();
    let gids: Vec<String> = nodes.iter().flat_map(|n| n.engine().txns.prepared_gids()).collect();
    let prepared: Vec<_> = gids.iter().filter_map(|g| citrus::extension::parse_gid(g)).collect();
    for node in nodes {
        let records = recovery::commit_records(c, node.id).map_err(|e| format!("{e:?}"))?;
        if let Some(n) = records.iter().find(|n| settled || !prepared.contains(&(node.id.0, **n))) {
            return Err(format!("commit record {n} on {} outlived its prepared gids", node.name));
        }
    }
    Ok(())
}

// ---------------- schedule execution ----------------

/// What one run saw; the corpus tests assert the coverage quotas.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    pub txns_attempted: u64,
    /// Workload units aborted by injected chaos (connection failures).
    pub txns_failed: u64,
    pub reads_checked: u64,
    pub writes_checked: u64,
    pub moves_attempted: u64,
    pub moves_completed: u64,
    pub failovers: u64,
    /// Total fault-plan firings (errors + latency).
    pub faults_fired: u64,
    /// Error/crash firings against statements or move phases.
    pub fault_errors: u64,
    /// FNV fingerprint over the statement-trace ring (0 when tracing off).
    pub trace_fingerprint: u64,
    /// Statements the MX session routed straight to a worker (0 when
    /// `mx_routing` is off).
    pub mx_routed: u64,
    /// Statements the MX session escalated to the coordinator.
    pub mx_escalated: u64,
    /// `Metrics::mx_generation_aborts` at the end of the run — nonzero only
    /// when the schedule carried drill events (`mx_ddl_interleave`).
    pub mx_generation_aborts: u64,
    /// `Metrics::mx_midtxn_escalations` at the end of the run — ditto.
    pub mx_midtxn_escalations: u64,
    /// Drill transactions that committed (first attempt or 40001 retry).
    pub drill_commits: u64,
    /// `Metrics::rollup_refreshes` at the end of the run — nonzero only when
    /// the seed maintained a rollup (`rollups` + an RTA mix).
    pub rollup_refreshes: u64,
}

/// A failed run: the index of the offending event plus what went wrong.
#[derive(Debug, Clone)]
pub struct SimFailure {
    pub event_index: usize,
    pub detail: String,
}

fn chaos_plan(cfg: &SimConfig) -> FaultPlan {
    FaultPlan::new()
        // reads randomly error; the adaptive executor's retry/failover
        // absorbs almost all of them, the rest abort their transaction
        .with(
            FaultRule::new(FaultOp::Statement, FaultKind::Error)
                .with_tag("select")
                .always()
                .with_probability(0.10)
                .labeled("chaos.read_error"),
        )
        // every statement can pick up virtual latency
        .with(
            FaultRule::new(FaultOp::Statement, FaultKind::Latency(1.5))
                .always()
                .with_probability(0.20)
                .labeled("chaos.latency"),
        )
        // scripted one-shot: guarantees every seed sees >= 1 faulted
        // statement even if the probabilistic rules stay quiet. Pinned to a
        // seed-chosen anchor shard so the single firing is arrival-order
        // free — an unscoped one-shot would hit whichever parallel task
        // consults the injector first, breaking 1-vs-8-thread identity.
        .with(
            FaultRule::new(FaultOp::Statement, FaultKind::Error)
                .with_tag("select")
                .scoped_to(&format!(
                    "s{}",
                    citrus::metadata::FIRST_SHARD_ID + cfg.seed % cfg.shard_count as u64
                ))
                .labeled("chaos.scripted_read_error"),
        )
        // one move phase (seed-chosen) may error, exercising recover_moves
        .with(
            FaultRule::new(FaultOp::Move, FaultKind::Error)
                .with_tag(MOVE_PHASE_TAGS[(cfg.seed % MOVE_PHASE_TAGS.len() as u64) as usize])
                .with_probability(0.35)
                .labeled("chaos.move_error"),
        )
}

fn build_cluster(cfg: &SimConfig) -> PgResult<Arc<Cluster>> {
    let c = Cluster::new(ClusterConfig {
        shard_count: cfg.shard_count,
        executor_threads: cfg.executor_threads,
        tracing: cfg.tracing,
        snapshot_isolation: cfg.snapshot_isolation,
        ..ClusterConfig::default()
    });
    for _ in 0..cfg.workers {
        c.add_worker()?;
    }
    Ok(c)
}

fn apply_corruption(c: &Arc<Cluster>, kind: CorruptKind) -> Result<(), String> {
    match kind {
        CorruptKind::DuplicatePlacement => {
            let mut meta = c.metadata.write();
            // Metadata stores tables in a HashMap; pick the victim by
            // smallest shard id so replays corrupt the same shard.
            let target = meta
                .tables()
                .filter(|t| !t.is_reference())
                .map(|t| t.shards[0])
                .min_by_key(|sid| sid.0)
                .ok_or("no distributed table to corrupt")?;
            let current = meta
                .shard(target)
                .map_err(|e| format!("{e:?}"))?
                .placements
                .first()
                .copied()
                .ok_or("shard has no placement")?;
            let extra = if current == NodeId(1) { NodeId(2) } else { NodeId(1) };
            meta.shard_mut(target).map_err(|e| format!("{e:?}"))?.placements.push(extra);
        }
        CorruptKind::OrphanShardTable => {
            let node = c.node(NodeId(1)).map_err(|e| format!("{e:?}"))?;
            let mut s = node.engine().session().map_err(|e| format!("{e:?}"))?;
            s.execute(&format!("CREATE TABLE sim_orphan_{} (x bigint)", FIRST_SHARD_ID + 777))
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    Ok(())
}

// ---------------- MX DDL-interleave drill ----------------

/// Model of the drill table's committed contents — the lost-write oracle
/// for the generation fence. Every committed drill transaction contributes
/// exactly one row with `v = 2`; a write that landed in a moved-away or
/// dropped shard copy shows up as a short count (and as an orphan physical
/// table in [`check_invariants`]).
struct DrillState {
    next_key: i64,
    committed: i64,
}

/// One generation-fence drill: open an MX transaction, land its first
/// write (pinning the session), interleave a metadata change of `kind`
/// from the coordinator, then drive the transaction's next statement and
/// COMMIT through the fence. A conflicting change must surface as a
/// retryable 40001 — never a hang, never a lost write — and the retry must
/// commit against fresh metadata.
fn run_mx_interleave(
    cluster: &Arc<Cluster>,
    cfg: &SimConfig,
    drill: &mut DrillState,
    kind: MxInterleaveKind,
    sel: u32,
    injectors: &mut Vec<Arc<netsim::fault::FaultInjector>>,
) -> Result<(), String> {
    let k = drill.next_key;
    drill.next_key += 1;
    let site = |s: &'static str| move |e: PgError| format!("drill {s}: {e:?}");

    let mut mx = cluster.mx_session();
    let open = |mx: &mut citrus::cluster::MxSession| -> PgResult<()> {
        mx.execute("BEGIN")?;
        mx.execute(&format!("INSERT INTO mx_drill VALUES ({k}, 1)"))?;
        Ok(())
    };
    let finish = |mx: &mut citrus::cluster::MxSession| -> PgResult<()> {
        mx.execute(&format!("UPDATE mx_drill SET v = v + 1 WHERE k = {k}"))?;
        mx.execute("COMMIT")?;
        Ok(())
    };
    open(&mut mx).map_err(site("open"))?;

    // a propagated CREATE INDEX bumps the generation *before* its fan-out,
    // so even a chaos-aborted propagation leaves the fence armed — mirror
    // the base Ddl event's tolerance for injected connection failures
    let ddl = |s: &mut citrus::cluster::ClientSession, sql: &str| -> PgResult<()> {
        match s.execute(sql) {
            Ok(_) => Ok(()),
            Err(e) if e.code == ErrorCode::ConnectionFailure => Ok(()),
            Err(e) => Err(e),
        }
    };

    // the interleaved metadata change; `must_fence` = the change touched
    // the transaction's table, so surviving to COMMIT would be the exact
    // stale-plan anomaly the fence exists to kill
    let mut must_fence = true;
    match kind {
        MxInterleaveKind::ConflictDdl => {
            let mut s = cluster.session().map_err(site("session open"))?;
            ddl(&mut s, &format!("CREATE INDEX mx_drill_idx_{sel} ON mx_drill (v)"))
                .map_err(site("conflict ddl"))?;
        }
        MxInterleaveKind::EscalateDdl => {
            let mut s = cluster.session().map_err(site("session open"))?;
            ddl(&mut s, &format!("CREATE INDEX mx_by_idx_{sel} ON mx_bystander (v)"))
                .map_err(site("bystander ddl"))?;
            must_fence = false;
        }
        MxInterleaveKind::Move => {
            let (bucket, from) = {
                let meta = cluster.metadata.read();
                let t = meta.table("mx_drill").ok_or("mx_drill missing")?;
                let bucket = (sel as usize) % t.shards.len();
                let shard = meta.shard(t.shards[bucket]).map_err(|e| format!("{e:?}"))?;
                let from =
                    *shard.placements.first().ok_or("drill shard without placement")?;
                (bucket, from)
            };
            let to = cluster
                .worker_ids()
                .into_iter()
                .find(|w| *w != from && cluster.node(*w).map(|n| n.is_active()).unwrap_or(false))
                .ok_or("no active move target for the drill")?;
            match rebalancer::move_shard_group(cluster, "mx_drill", bucket, from, to) {
                Ok(_) => {}
                Err(_) => {
                    // chaos killed the move before (or after) the metadata
                    // switch; journal recovery restores the invariant and
                    // the transaction may legitimately commit unfenced
                    rebalancer::recover_moves(cluster).map_err(site("move recovery"))?;
                    must_fence = false;
                }
            }
        }
        MxInterleaveKind::FrozenDdl => {
            // freeze the propagation between its steps: generation bumped
            // and pre-fence run, shard index unbuilt on the victim. The
            // open transaction is driven through the fence INSIDE this
            // window — the precise interleaving the contract covers.
            let victim = cluster
                .worker_ids()
                .into_iter()
                .find(|w| cluster.node(*w).map(|n| n.is_active()).unwrap_or(false))
                .ok_or("no active worker to freeze")?;
            let frozen = citrus::interleave::freeze_ddl(cluster, victim, "create_index");
            let mut s = cluster.session().map_err(site("session open"))?;
            if s.execute(&format!("CREATE INDEX mx_fz_idx_{sel} ON mx_drill (v)")).is_ok() {
                return Err("frozen CREATE INDEX unexpectedly completed".into());
            }
            match finish(&mut mx) {
                Err(e) if e.code == ErrorCode::SerializationFailure => {}
                Ok(()) => {
                    return Err(
                        "drill FrozenDdl: transaction survived inside the frozen window".into()
                    )
                }
                Err(e) => return Err(format!("drill FrozenDdl: unexpected error {e:?}")),
            }
            frozen.release().map_err(site("freeze release"))?;
            if cfg.faults {
                injectors.push(cluster.install_faults(chaos_plan(cfg), cfg.seed));
            }
            // complete the DDL under a fresh name (the half-propagated
            // index is harmless; re-using the name would trip on the
            // already-applied local shell)
            ddl(&mut s, &format!("CREATE INDEX mx_fz_idx_{sel}_r ON mx_drill (v)"))
                .map_err(site("frozen ddl completion"))?;
            // the fenced transaction retries cleanly after the window
            open(&mut mx).map_err(site("frozen retry open"))?;
            finish(&mut mx).map_err(site("frozen retry finish"))?;
            drill.committed += 1;
            return Ok(());
        }
    }

    match finish(&mut mx) {
        Ok(()) => {
            if must_fence {
                return Err(format!(
                    "drill {kind:?}: open MX transaction survived a conflicting metadata change"
                ));
            }
        }
        Err(e) if e.code == ErrorCode::SerializationFailure => {
            // the fence's contract: the abort is clean (locks released,
            // session unpinned) and retryable — rerun the transaction
            // against fresh metadata
            open(&mut mx).map_err(site("retry open"))?;
            finish(&mut mx).map_err(site("retry finish"))?;
        }
        Err(e) => return Err(format!("drill {kind:?}: unexpected error {e:?}")),
    }
    drill.committed += 1;
    Ok(())
}

/// Read the drill table back through the coordinator and compare against
/// the model — the lost/orphan-write check, with the same bounded client
/// re-submission chaos allowance as [`MirrorRunner::dist_run`].
fn check_drill_model(cluster: &Arc<Cluster>, drill: &DrillState) -> Result<(), String> {
    let mut s = cluster.session().map_err(|e| format!("{e:?}"))?;
    let mut last = String::new();
    for _ in 0..12 {
        match s.execute("SELECT count(*), sum(v) FROM mx_drill") {
            Ok(r) => {
                let row = &r.rows()[0];
                let (count, sum) = (
                    row[0].as_i64().unwrap_or(-1),
                    if drill.committed == 0 { 0 } else { row[1].as_i64().unwrap_or(-1) },
                );
                if count != drill.committed || sum != drill.committed * 2 {
                    return Err(format!(
                        "drill writes lost or duplicated: count={count} sum={sum}, \
                         model count={} sum={}",
                        drill.committed,
                        drill.committed * 2
                    ));
                }
                return Ok(());
            }
            Err(e) if e.code == ErrorCode::ConnectionFailure => last = format!("{e:?}"),
            Err(e) => return Err(format!("drill read-back failed: {e:?}")),
        }
    }
    Err(format!("drill read-back exhausted retries: {last}"))
}

/// Execute `events` for `cfg`. A pure function of its arguments: same
/// inputs, same outcome — the replay-by-seed and shrinking contract.
pub fn run_schedule(cfg: &SimConfig, events: &[SimEvent]) -> Result<SimReport, SimFailure> {
    assert!(cfg.workers >= 2, "sim needs >= 2 workers for moves and failovers");
    let fail = |i: usize, detail: String| SimFailure { event_index: i, detail };
    let patterns = enabled_patterns(cfg);
    let primary = patterns[0];
    let scales = SimScales::default();

    let cluster = build_cluster(cfg).map_err(|e| fail(0, format!("{e:?}")))?;
    let oracle = Engine::new_default();
    let local = LocalRunner { session: oracle.session().map_err(|e| fail(0, format!("{e:?}")))? };
    let mut mirror = if cfg.mx_routing {
        MirrorRunner::new(MxRunner { session: cluster.mx_session() }, local)
    } else {
        let session = cluster.session().map_err(|e| fail(0, format!("{e:?}")))?;
        MirrorRunner::new(ClusterRunner { session }, local)
    };
    for p in &patterns {
        setup_pattern(&mut mirror, *p, &scales, true, cfg.seed)
            .map_err(|e| fail(0, format!("setup of {p:?} failed: {e:?}")))?;
    }
    if let Some(d) = mirror.divergence.clone() {
        return Err(fail(0, format!("divergence during setup: {d}")));
    }
    // the rollup rides the RTA transformation output; created chaos-free at
    // setup so the initial fill can't be aborted by an injected fault
    let rollups_live = cfg.rollups && patterns.contains(&Pattern::RealTimeAnalytics);
    if rollups_live {
        let mut s = cluster.session().map_err(|e| fail(0, format!("{e:?}")))?;
        s.execute(
            "CREATE ROLLUP sim_commit_rollup AS SELECT day, count(*) AS n, \
             sum(commit_count) AS total, max(commit_count) AS peak \
             FROM push_commits GROUP BY day",
        )
        .map_err(|e| fail(0, format!("rollup setup failed: {e:?}")))?;
    }
    let mut drill = DrillState { next_key: 0, committed: 0 };
    if cfg.mx_ddl_interleave {
        // drill tables live outside the mirrored workload: their statements
        // never flow through the oracle, their committed contents are
        // checked against the drill model instead
        let mut s = cluster.session().map_err(|e| fail(0, format!("{e:?}")))?;
        for sql in [
            "CREATE TABLE mx_drill (k bigint, v bigint)",
            "SELECT create_distributed_table('mx_drill', 'k')",
            "CREATE TABLE mx_bystander (k bigint, v bigint)",
            "SELECT create_distributed_table('mx_bystander', 'k')",
        ] {
            s.execute(sql).map_err(|e| fail(0, format!("drill setup failed: {e:?}")))?;
        }
    }

    // the chaos injector can be swapped out mid-run (a FrozenDdl drill
    // replaces the plan and reinstalls it); fault totals sum over every
    // installed injector
    let mut injectors: Vec<Arc<netsim::fault::FaultInjector>> = Vec::new();
    if cfg.faults {
        injectors.push(cluster.install_faults(chaos_plan(cfg), cfg.seed));
    }
    let mut drivers: HashMap<Pattern, Driver> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x041B_0B0E_5EED);
    let mut report = SimReport::default();

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            SimEvent::Txn { pattern } => {
                report.txns_attempted += 1;
                let driver =
                    drivers.entry(pattern).or_insert_with(|| Driver::new(pattern, &scales, cfg.seed));
                match driver.run_unit(&mut mirror, &scales, &mut rng) {
                    Ok(()) => {}
                    Err(e) if e.code == ErrorCode::ConnectionFailure => {
                        report.txns_failed += 1;
                    }
                    Err(e) => {
                        let detail = mirror
                            .divergence
                            .clone()
                            .unwrap_or_else(|| format!("unexpected workload error: {e:?}"));
                        return Err(fail(i, detail));
                    }
                }
            }
            SimEvent::Move { bucket_sel } => {
                let anchor = anchor_table(primary);
                let (bucket, from) = {
                    let meta = cluster.metadata.read();
                    let t = meta
                        .table(anchor)
                        .ok_or_else(|| fail(i, format!("anchor table {anchor} missing")))?;
                    let bucket = (bucket_sel as usize) % t.shards.len();
                    let shard = meta
                        .shard(t.shards[bucket])
                        .map_err(|e| fail(i, format!("{e:?}")))?;
                    let from = *shard
                        .placements
                        .first()
                        .ok_or_else(|| fail(i, "shard without placement".to_string()))?;
                    (bucket, from)
                };
                let to = cluster
                    .worker_ids()
                    .into_iter()
                    .find(|w| *w != from && cluster.node(*w).map(|n| n.is_active()).unwrap_or(false));
                let Some(to) = to else {
                    return Err(fail(i, "no active move target worker".to_string()));
                };
                report.moves_attempted += 1;
                match rebalancer::move_shard_group(&cluster, anchor, bucket, from, to) {
                    Ok(_) => report.moves_completed += 1,
                    Err(_) => {
                        // chaos killed the move; the journal recovery pass
                        // must restore the invariant
                        rebalancer::recover_moves(&cluster)
                            .map_err(|e| fail(i, format!("recover_moves failed: {e:?}")))?;
                    }
                }
            }
            SimEvent::Failover { worker_sel } => {
                let workers = cluster.worker_ids();
                let node = workers[(worker_sel as usize) % workers.len()];
                ha::fail_over(&cluster, node)
                    .map_err(|e| fail(i, format!("failover of node {} failed: {e:?}", node.0)))?;
                report.failovers += 1;
            }
            SimEvent::Ddl { n } => {
                let (table, col) = ddl_target(primary);
                match mirror.run(&format!("CREATE INDEX sim_idx_{n} ON {table} ({col})")) {
                    Ok(_) => {}
                    // chaos may abort the propagation mid-flight; a
                    // partially-built index never changes query results
                    Err(e) if e.code == ErrorCode::ConnectionFailure => {}
                    // columnar targets (TPC-H fact tables) reject secondary
                    // indexes; the rejection is deterministic and harmless
                    Err(e) if e.code == ErrorCode::FeatureNotSupported => {}
                    Err(e) => return Err(fail(i, format!("DDL failed: {e:?}"))),
                }
            }
            SimEvent::Maintenance => {
                deadlock::detect_once(&cluster)
                    .map_err(|e| fail(i, format!("deadlock pass failed: {e:?}")))?;
                let stats = recovery::recover_once(&cluster)
                    .map_err(|e| fail(i, format!("recovery pass failed: {e:?}")))?;
                if stats.unreachable_nodes == 0 {
                    check_commit_records(&cluster, false).map_err(|d| fail(i, d))?;
                }
                rebalancer::recover_moves(&cluster)
                    .map_err(|e| fail(i, format!("move recovery failed: {e:?}")))?;
                // the rollup-maintenance pass: a refresh aborted by an
                // injected read error rolls back cleanly and catches up on
                // the next pass — only non-chaos errors fail the run
                match citrus::rollup::refresh_all(&cluster) {
                    Ok(()) => {}
                    Err(e) if e.code == ErrorCode::ConnectionFailure => {}
                    Err(e) => return Err(fail(i, format!("rollup refresh failed: {e:?}"))),
                }
            }
            SimEvent::MxInterleave { kind, sel } => {
                run_mx_interleave(&cluster, cfg, &mut drill, kind, sel, &mut injectors)
                    .map_err(|d| fail(i, d))?;
                check_drill_model(&cluster, &drill).map_err(|d| fail(i, d))?;
            }
            SimEvent::Corrupt { kind } => {
                apply_corruption(&cluster, kind).map_err(|d| fail(i, d))?;
            }
        }
        if let Some(d) = mirror.divergence.clone() {
            return Err(fail(i, d));
        }
        check_invariants(&cluster).map_err(|d| fail(i, d))?;
    }

    // settle and verify the final state differentially
    recovery::recover_once(&cluster)
        .map_err(|e| fail(events.len(), format!("final recovery failed: {e:?}")))?;
    rebalancer::recover_moves(&cluster)
        .map_err(|e| fail(events.len(), format!("final move recovery failed: {e:?}")))?;
    check_invariants(&cluster).map_err(|d| fail(events.len(), d))?;
    check_commit_records(&cluster, true).map_err(|d| fail(events.len(), d))?;
    for p in &patterns {
        for q in verification_queries(*p) {
            if let Err(e) = mirror.run(&q) {
                let detail = mirror
                    .divergence
                    .clone()
                    .unwrap_or_else(|| format!("final verification `{q}` failed: {e:?}"));
                return Err(fail(events.len(), detail));
            }
        }
    }

    report.reads_checked = mirror.reads_checked;
    report.writes_checked = mirror.writes_checked;
    (report.mx_routed, report.mx_escalated) = mirror.dist.route_stats();
    report.mx_generation_aborts =
        cluster.metrics.mx_generation_aborts.load(std::sync::atomic::Ordering::Relaxed);
    report.mx_midtxn_escalations =
        cluster.metrics.mx_midtxn_escalations.load(std::sync::atomic::Ordering::Relaxed);
    report.drill_commits = drill.committed as u64;
    report.rollup_refreshes =
        cluster.metrics.rollup_refreshes.load(std::sync::atomic::Ordering::Relaxed);
    for inj in &injectors {
        report.faults_fired += inj.fired();
        report.fault_errors += inj
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Error | FaultKind::Crash))
            .count() as u64;
    }
    if cfg.tracing {
        let renders: Vec<String> =
            cluster.tracer.statements().iter().map(|s| s.render()).collect();
        let joined = renders.join("\n");
        // Diagnostic hook: dump the rendered trace so fingerprint mismatches
        // can be diffed (`CITRUS_SIM_TRACE_DUMP=/tmp/a.txt`). Does not
        // affect the run's outcome.
        if let Ok(path) = std::env::var("CITRUS_SIM_TRACE_DUMP") {
            let _ = std::fs::write(&path, &joined);
        }
        report.trace_fingerprint = citrus::trace::fingerprint_str(&joined);
    }
    Ok(report)
}

// ---------------- shrinking + replay ----------------

/// Greedy ddmin over the event list: repeatedly drop chunks (halving the
/// chunk size down to single events) while the failure persists. Bounded by
/// a fixed re-run budget so shrinking can never hang a CI gate.
pub fn shrink_schedule(
    cfg: &SimConfig,
    events: &[SimEvent],
    first: SimFailure,
) -> (Vec<SimEvent>, SimFailure) {
    let mut current = events.to_vec();
    let mut failure = first;
    let mut chunk = current.len().div_ceil(2).max(1);
    let mut budget = 100usize;
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && budget > 0 {
            let mut candidate = current.clone();
            let end = (start + chunk).min(candidate.len());
            candidate.drain(start..end);
            budget -= 1;
            match run_schedule(cfg, &candidate) {
                Err(f) => {
                    current = candidate;
                    failure = f;
                    reduced = true;
                }
                Ok(_) => start += chunk,
            }
        }
        if budget == 0 || current.is_empty() || (chunk == 1 && !reduced) {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    (current, failure)
}

/// Derive, run, and — on failure — shrink. The error string is the one-line
/// deterministic repro contract: it names the seed, the minimal schedule,
/// and the replay command.
pub fn run_seed(cfg: &SimConfig) -> Result<SimReport, String> {
    let events = derive_schedule(cfg);
    match run_schedule(cfg, &events) {
        Ok(report) => Ok(report),
        Err(first) => {
            let (minimal, failure) = shrink_schedule(cfg, &events, first);
            Err(format!(
                "sim seed {seed} failed at event {idx}: {detail}\n\
                 minimal reproducer ({n} of {total} events): {minimal:?}\n\
                 replay: CITRUS_SIM_SEED={seed} cargo test -p workloads --test sim_chaos \
                 replay_env_seed -- --nocapture",
                seed = cfg.seed,
                idx = failure.event_index,
                detail = failure.detail,
                n = minimal.len(),
                total = events.len(),
            ))
        }
    }
}

// ---------------- statement-stream recording ----------------

/// A [`SqlRunner`] that executes nothing and records the exact statement
/// stream a workload driver produces: SQL text verbatim, COPY batches as
/// `COPY <table> <n> rows fp=<fingerprint>` lines. Two drivers with the
/// same seed must produce byte-identical logs (the replay-by-seed
/// contract); different seeds must not.
#[derive(Default)]
pub struct RecordingRunner {
    pub log: Vec<String>,
}

impl SqlRunner for RecordingRunner {
    fn run(&mut self, sql: &str) -> PgResult<QueryResult> {
        self.log.push(sql.to_string());
        Ok(QueryResult::Empty)
    }

    fn copy(&mut self, table: &str, columns: &[String], rows: Vec<Row>) -> PgResult<u64> {
        let fp = citrus::trace::fingerprint_str(&format!("{rows:?}"));
        self.log.push(format!(
            "COPY {table} ({}) {} rows fp={fp:016x}",
            columns.join(","),
            rows.len()
        ));
        Ok(rows.len() as u64)
    }

    fn last_cost(&mut self) -> DistCost {
        DistCost::default()
    }
}

// ---------------- §4 evaluation (bench mode) ----------------

/// One arm (distributed or single-node) of a pattern evaluation.
#[derive(Debug, Clone)]
pub struct ArmStats {
    pub units: u64,
    pub statements: u64,
    pub virtual_ms: f64,
    /// Workload units per virtual second.
    pub throughput_per_vsec: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Summed resource demand over the whole arm — per-node cpu and io plus
    /// network delay — for the closed-loop MVA solver. Its mean over `units`
    /// is the per-unit demand profile; the serial `units_per_vsec` metric
    /// alone cannot show aggregate cluster capacity.
    pub demand: DistCost,
}

/// Distributed vs single-node numbers for one §4 pattern.
#[derive(Debug, Clone)]
pub struct PatternBench {
    pub pattern: Pattern,
    pub distributed: ArmStats,
    pub single_node: ArmStats,
}

fn bench_arm(
    r: &mut dyn SqlRunner,
    pattern: Pattern,
    scales: &SimScales,
    distributed: bool,
    seed: u64,
    units: u64,
) -> PgResult<ArmStats> {
    setup_pattern(r, pattern, scales, distributed, seed)?;
    let mut driver = Driver::new(pattern, scales, seed);
    if let (true, Driver::Analytics { rollup, .. }) = (distributed, &mut driver) {
        // The distributed arm serves the dashboard from an incrementally
        // maintained rollup (DESIGN.md §12) — the deployment shape the paper
        // describes for real-time analytics. The single-node mirror keeps
        // the raw per-read aggregate a lone PostgreSQL would run. The unit
        // stream is otherwise identical (same rng, same draws).
        r.run(&gharchive::rollup_definition())?;
        *rollup = true;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00BE_4C11);
    let mut metered = MeteredRunner::new(r);
    for _ in 0..units {
        driver.run_unit(&mut metered, scales, &mut rng)?;
    }
    let virtual_ms = metered.demand.elapsed_ms;
    Ok(ArmStats {
        units,
        statements: metered.statements,
        virtual_ms,
        throughput_per_vsec: if virtual_ms > 0.0 { units as f64 * 1000.0 / virtual_ms } else { 0.0 },
        p50_ms: metered.hist.percentile(0.50),
        p95_ms: metered.hist.percentile(0.95),
        p99_ms: metered.hist.percentile(0.99),
        demand: metered.take(),
    })
}

/// The §4 evaluation for one pattern: the identical workload-unit stream on
/// a distributed cluster and on a single pgmini node, with per-statement
/// virtual-latency percentiles and unit throughput for both arms. Runs with
/// snapshot isolation off — the paper's semantics and the committed
/// regression baseline; [`bench_pattern_snapshot_isolation`] measures the
/// mode-on overhead against it.
pub fn bench_pattern(
    pattern: Pattern,
    scales: &SimScales,
    seed: u64,
    units: u64,
    workers: u32,
    shard_count: u32,
    executor_threads: usize,
) -> PgResult<PatternBench> {
    bench_pattern_mode(pattern, scales, seed, units, workers, shard_count, executor_threads, false)
}

/// The mode-on arm of the same evaluation: identical stream, identical
/// cluster shape, `ClusterConfig::snapshot_isolation` enabled — so the
/// difference in `units_per_vsec` against [`bench_pattern`] *is* the token
/// machinery's overhead (expected: none on the virtual clock; the clock
/// draw and registry publish are not modelled costs, and the token adds no
/// wire traffic).
pub fn bench_pattern_snapshot_isolation(
    pattern: Pattern,
    scales: &SimScales,
    seed: u64,
    units: u64,
    workers: u32,
    shard_count: u32,
    executor_threads: usize,
) -> PgResult<PatternBench> {
    bench_pattern_mode(pattern, scales, seed, units, workers, shard_count, executor_threads, true)
}

#[allow(clippy::too_many_arguments)]
fn bench_pattern_mode(
    pattern: Pattern,
    scales: &SimScales,
    seed: u64,
    units: u64,
    workers: u32,
    shard_count: u32,
    executor_threads: usize,
    snapshot_isolation: bool,
) -> PgResult<PatternBench> {
    let mut cfg = SimConfig::new(seed);
    cfg.workers = workers;
    cfg.shard_count = shard_count;
    cfg.executor_threads = executor_threads;
    cfg.snapshot_isolation = snapshot_isolation;
    let cluster = build_cluster(&cfg)?;
    // The distributed arm runs MX-routed (§2.3): tenant transactions pin to
    // their placement's worker and bypass the coordinator, cross-shard
    // shapes escalate. This is the deployment shape the paper benchmarks.
    let mut dist = MxRunner { session: cluster.mx_session() };
    let distributed = bench_arm(&mut dist, pattern, scales, true, seed, units)?;
    let engine = Engine::new_default();
    let mut local = LocalRunner { session: engine.session()? };
    let single_node = bench_arm(&mut local, pattern, scales, false, seed, units)?;
    Ok(PatternBench { pattern, distributed, single_node })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let cfg = SimConfig::new(12);
        assert_eq!(derive_schedule(&cfg), derive_schedule(&cfg));
        let other = SimConfig::new(13);
        assert_ne!(derive_schedule(&cfg), derive_schedule(&other));
    }

    #[test]
    fn schedules_guarantee_lifecycle_coverage() {
        for seed in 0..40u64 {
            let cfg = SimConfig::new(seed);
            let ev = derive_schedule(&cfg);
            let moves = ev.iter().filter(|e| matches!(e, SimEvent::Move { .. })).count();
            let failovers = ev.iter().filter(|e| matches!(e, SimEvent::Failover { .. })).count();
            let txns = ev.iter().filter(|e| matches!(e, SimEvent::Txn { .. })).count();
            assert!(moves >= 2, "seed {seed}: {moves} moves");
            assert!(failovers >= 1, "seed {seed}: {failovers} failovers");
            assert!(txns >= 1, "seed {seed}: {txns} txns");
            assert!(!ev.iter().any(|e| matches!(e, SimEvent::Corrupt { .. })));
        }
    }

    #[test]
    fn enabled_patterns_never_mix_tpcc_and_tpch() {
        for seed in 0..64u64 {
            let cfg = SimConfig::new(seed);
            let pats = enabled_patterns(&cfg);
            assert!(!pats.is_empty() && pats.len() <= 2, "seed {seed}: {pats:?}");
            let mt = pats.contains(&Pattern::MultiTenant);
            let dw = pats.contains(&Pattern::DataWarehousing);
            assert!(!(mt && dw), "seed {seed} mixes conflicting schemas: {pats:?}");
        }
    }

    #[test]
    fn ddl_names_unique_within_a_schedule() {
        for seed in 0..20u64 {
            let ev = derive_schedule(&SimConfig::new(seed));
            let mut names: Vec<u32> = ev
                .iter()
                .filter_map(|e| match e {
                    SimEvent::Ddl { n } => Some(*n),
                    _ => None,
                })
                .collect();
            let total = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), total, "seed {seed}: duplicate DDL names");
        }
    }

    #[test]
    fn snapshot_isolation_covers_both_modes_across_the_corpus() {
        // Even seeds run mode-on, odd seeds mode-off: every corpus sweep
        // exercises both token and latest-snapshot visibility against the
        // mirror oracle.
        for seed in 0..16u64 {
            assert_eq!(SimConfig::new(seed).snapshot_isolation, seed % 2 == 0, "seed {seed}");
        }
    }

    #[test]
    fn read_skew_invariant_flags_the_frozen_window_mode_off_only() {
        for si in [false, true] {
            let mut cc = ClusterConfig::default();
            cc.shard_count = 8;
            cc.snapshot_isolation = si;
            let c = Cluster::new(cc);
            c.add_worker().unwrap();
            c.add_worker().unwrap();
            let mut s = c.session().unwrap();
            s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
            s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
            for k in 0..16 {
                s.execute(&format!("INSERT INTO t VALUES ({k}, 0)")).unwrap();
            }
            let split = citrus::interleave::freeze_commit_prepared(&c, NodeId(2));
            s.execute("UPDATE t SET v = v + 1").unwrap();
            assert_eq!(split.frozen_gids().len(), 1);
            if si {
                // decided timestamp published before COMMIT PREPARED: token
                // readers see the frozen half, no skew window exists
                check_read_skew(&c).unwrap();
                // ...but the half is still a stuck-prepared violation
                assert!(check_invariants(&c).unwrap_err().contains("stuck prepared"));
            } else {
                let err = check_invariants(&c).unwrap_err();
                assert!(err.contains("read skew"), "{err}");
            }
            split.release().unwrap();
            check_invariants(&c).unwrap();
        }
    }

    #[test]
    fn classify_routes_statement_kinds() {
        assert!(matches!(classify("SELECT create_distributed_table('t','k')"), StmtClass::DistOnly));
        assert!(matches!(classify("BEGIN"), StmtClass::TxnControl));
        assert!(matches!(classify("INSERT INTO t VALUES (1)"), StmtClass::Write));
        assert!(matches!(classify("CREATE INDEX i ON t (k)"), StmtClass::Ddl));
        assert!(matches!(classify("SELECT * FROM t ORDER BY k"), StmtClass::Read { ordered: true }));
        assert!(matches!(classify("SELECT count(*) FROM t"), StmtClass::Read { ordered: false }));
    }
}
