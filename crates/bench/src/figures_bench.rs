//! The body of the `figures_bench` binary: the paper's own evaluation (§4),
//! Tables 1–3 and Figures 6–10, as the `BENCH_figures` report for one
//! [`Scale`], so `tests/figures.rs` can run the smoke scale in-process.
//!
//! Every figure compares the four [`Setup`]s on one workload. Each setup is a
//! [`Target`] with the paper's memory-to-data ratio where the figure depends
//! on it; multi-client figures (6, 9, 10) sample per-transaction costs
//! through one [`MeteredRunner`] and solve the closed-loop model over their
//! mean, single-session figures (7, 8) report virtual elapsed time.

use crate::{solve_closed_loop, Scale, Setup, Target};
use citrus::cost::DistCost;
use pgmini::error::PgResult;
use workloads::gharchive;
use workloads::patterns::{requires, scale_requirements, Capability, Pattern};
use workloads::pgbench::{self, PgbenchConfig, PgbenchDriver};
use workloads::runner::{MeteredRunner, SqlRunner};
use workloads::tpcc::{self, TpccConfig, TxnKind};
use workloads::tpch;
use workloads::ycsb::{self, YcsbConfig, YcsbDriver};

/// The workload sizes of every figure at one scale.
struct Params {
    warehouses: u32,
    tpcc_samples: u64,
    events: usize,
    sf: f64,
    records: u64,
    ycsb_samples: u64,
    twopc_samples: u64,
}

impl Params {
    fn of(scale: Scale) -> Params {
        match scale {
            Scale::Smoke => Params {
                warehouses: 4,
                tpcc_samples: 40,
                events: 400,
                sf: 0.001,
                records: 2_000,
                ycsb_samples: 40,
                twopc_samples: 40,
            },
            Scale::Full => Params {
                warehouses: 16,
                tpcc_samples: 400,
                events: 4_000,
                sf: 0.05,
                records: 20_000,
                ycsb_samples: 400,
                twopc_samples: 300,
            },
        }
    }
}

/// The report text and the numbers its orderings are judged on, per setup in
/// [`Setup::ALL`] order.
pub struct Report {
    /// `BENCH_figures.json` / `BENCH_figures_smoke.json`.
    pub json: String,
    /// Figure 6 new orders per minute.
    nopm: [f64; 4],
    /// Figure 7 virtual ms of (a) COPY, (b) the dashboard, (c) INSERT..SELECT.
    rta_ms: [[f64; 3]; 4],
    /// Figure 8 queries per hour.
    qph: [f64; 4],
    /// Figure 9 transactions per second, 1PC then 2PC, on 4+1 then 8+1.
    twopc_tps: [[f64; 2]; 2],
    /// Figure 10 operations per second.
    ycsb_ops: [f64; 4],
}

impl Report {
    /// The orderings EXPERIMENTS.md calls reproduced that fail in this
    /// report. A smoke report is judged on the ones that hold at smoke scale;
    /// a full report on all of them.
    pub fn failed_claims(&self, scale: Scale) -> Vec<&'static str> {
        let (pg, c0, c4, c8) = (0, 1, 2, 3);
        let (a, b, c) = (0, 1, 2);
        let ms = |s: usize, f: usize| self.rta_ms[s][f];
        // (judged at smoke scale too, holds, claim)
        let claims = [
            (true, self.nopm[c4] > self.nopm[pg], "Figure 6: 4+1 beats PostgreSQL"),
            (true, self.nopm[c8] > self.nopm[c4], "Figure 6: 8+1 beats 4+1"),
            (true, ms(c0, a) < ms(pg, a), "Figure 7a: 0+1 COPY beats PostgreSQL"),
            (true, ms(c4, b) < ms(pg, b), "Figure 7b: 4+1 beats PostgreSQL"),
            (true, ms(c8, b) < ms(c4, b), "Figure 7b: 8+1 beats 4+1"),
            (true, ms(c4, c) < ms(pg, c), "Figure 7c: 4+1 beats PostgreSQL"),
            (true, ms(c8, c) < ms(c4, c), "Figure 7c: 8+1 beats 4+1"),
            (true, self.qph[c4] > self.qph[pg], "Figure 8: 4+1 beats PostgreSQL"),
            (true, self.qph[c8] >= self.qph[c4], "Figure 8: 8+1 at least 4+1"),
            (false, self.qph[c0] > self.qph[pg], "Figure 8: 0+1 beats PostgreSQL"),
            (false, self.twopc_tps[0][1] < self.twopc_tps[0][0], "Figure 9: 2PC below 1PC on 4+1"),
            (false, self.twopc_tps[1][1] < self.twopc_tps[1][0], "Figure 9: 2PC below 1PC on 8+1"),
            (true, self.ycsb_ops[c4] > self.ycsb_ops[pg], "Figure 10: 4+1 beats PostgreSQL"),
            (true, self.ycsb_ops[c8] >= self.ycsb_ops[c4], "Figure 10: 8+1 at least 4+1"),
        ];
        claims
            .iter()
            .filter(|(smoke, holds, _)| (*smoke || scale == Scale::Full) && !holds)
            .map(|&(_, _, claim)| claim)
            .collect()
    }

    /// Every factor EXPERIMENTS.md quotes from the paper, next to the same
    /// factor in this report.
    fn paper_factors(&self) -> [PaperFactor; 8] {
        let (pg, c0, c4, c8) = (0, 1, 2, 3);
        let vs_pg = |v: &[f64; 4], s: usize| v[s] / v[pg].max(1e-9);
        let two_pc = |c: usize| self.twopc_tps[c][1] / self.twopc_tps[c][0].max(1e-9);
        let f = |figure, factor, paper, measured| PaperFactor { figure, factor, paper, measured };
        [
            f("6", "NOPM, 4+1 over PostgreSQL", PAPER_FIG6_C4_VS_PG, vs_pg(&self.nopm, c4)),
            f(
                "7c",
                "INSERT..SELECT time, 8+1 over PostgreSQL",
                PAPER_FIG7C_C8_TIME_VS_PG,
                self.rta_ms[c8][2] / self.rta_ms[pg][2].max(1e-9),
            ),
            f("8", "QPH, 0+1 over PostgreSQL", PAPER_FIG8_VS_PG[0], vs_pg(&self.qph, c0)),
            f("8", "QPH, 4+1 over PostgreSQL", PAPER_FIG8_VS_PG[1], vs_pg(&self.qph, c4)),
            f("8", "QPH, 8+1 over PostgreSQL", PAPER_FIG8_VS_PG[2], vs_pg(&self.qph, c8)),
            f("9", "TPS, 2PC over 1PC on 4+1", PAPER_FIG9_2PC_VS_1PC, two_pc(0)),
            f("9", "TPS, 2PC over 1PC on 8+1", PAPER_FIG9_2PC_VS_1PC, two_pc(1)),
            f("10", "ops/s, 8+1 over PostgreSQL", PAPER_FIG10_C8_VS_PG, vs_pg(&self.ycsb_ops, c8)),
        ]
    }

    /// The sum of every paper factor's `|ln(measured / paper)|`: 0 when each
    /// factor equals the paper's.
    pub fn paper_distance(&self) -> f64 {
        self.paper_factors().iter().map(PaperFactor::distance).sum()
    }
}

/// Figure 6: Citus 4+1 runs about 13× PostgreSQL's NOPM.
const PAPER_FIG6_C4_VS_PG: f64 = 13.0;
/// Figure 7c: 8+1 cuts the INSERT..SELECT runtime by 96 %.
const PAPER_FIG7C_C8_TIME_VS_PG: f64 = 0.04;
/// Figure 8: 0+1, 4+1 and 8+1 reach about 10×, 50× and 100× PostgreSQL's QPH.
const PAPER_FIG8_VS_PG: [f64; 3] = [10.0, 50.0, 100.0];
/// Figure 9: 2PC loses 20–30 % of 1PC's throughput; 0.75 is the middle of
/// the band.
const PAPER_FIG9_2PC_VS_1PC: f64 = 0.75;
/// Figure 10: Citus 8+1 runs about 8× PostgreSQL's YCSB operations per second.
const PAPER_FIG10_C8_VS_PG: f64 = 8.0;

/// One factor the paper states and the same factor measured here.
struct PaperFactor {
    figure: &'static str,
    factor: &'static str,
    paper: f64,
    measured: f64,
}

impl PaperFactor {
    /// `|ln(measured / paper)|`: how many e-folds the measurement is off,
    /// the same for a factor too high as for one too low.
    fn distance(&self) -> f64 {
        (self.measured.max(1e-9) / self.paper).ln().abs()
    }

    fn json(&self) -> String {
        format!(
            "{{\"figure\": \"{}\", \"factor\": \"{}\", \"paper\": {}, \"measured\": {:.3}, \
             \"distance\": {:.3}}}",
            self.figure,
            self.factor,
            self.paper,
            self.measured,
            self.distance()
        )
    }
}

/// `rows` as a JSON array, one row per line.
fn list(rows: &[String]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Simulated bytes in MB.
fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Run `n` units one after the other through one accumulator and keep the
/// summed statement cost of every unit that succeeded, with what it returned.
fn sample<T>(
    r: &mut dyn SqlRunner,
    n: u64,
    mut unit: impl FnMut(&mut dyn SqlRunner) -> PgResult<T>,
) -> Vec<(T, DistCost)> {
    let mut metered = MeteredRunner::new(r);
    let mut out = Vec::new();
    for _ in 0..n {
        let outcome = unit(&mut metered);
        let cost = metered.take();
        if let Ok(t) = outcome {
            out.push((t, cost));
        }
    }
    out
}

/// The mean per-unit cost of `samples`.
fn mean<T>(samples: &[(T, DistCost)]) -> DistCost {
    let mut sum = DistCost::default();
    for (_, c) in samples {
        sum.add(c);
    }
    sum.mean(samples.len() as u64)
}

/// Tables 1–3 from `workloads::patterns`, verbatim to the paper.
fn tables() -> [String; 3] {
    let cells = |label: &str, name: &str, cell: &dyn Fn(Pattern) -> String| {
        let cols: Vec<String> = ["MT", "RA", "HC", "DW"]
            .iter()
            .zip(Pattern::ALL)
            .map(|(col, p)| format!("\"{col}\": \"{}\"", cell(p)))
            .collect();
        format!("{{\"{label}\": \"{name}\", {}}}", cols.join(", "))
    };
    let table1 = [
        cells("requirement", "Typical query latency", &|p| {
            let ms = scale_requirements(p).typical_latency_ms;
            if ms >= 1000.0 { format!("{}s+", ms / 1000.0) } else { format!("{ms}ms") }
        }),
        cells("requirement", "Typical query throughput", &|p| {
            let tps = scale_requirements(p).typical_throughput_per_sec;
            if tps >= 1000.0 { format!("{}k/s", tps / 1000.0) } else { format!("{tps}/s") }
        }),
        cells("requirement", "Typical data size", &|p| {
            format!("{}TB", scale_requirements(p).typical_data_bytes >> 40)
        }),
    ];
    let table2: Vec<String> = Capability::ALL
        .iter()
        .map(|&c| cells("capability", c.name(), &|p| requires(p, c).cell().to_string()))
        .collect();
    let table3: Vec<String> = Pattern::ALL
        .iter()
        .map(|p| {
            format!("{{\"workload\": \"{}\", \"benchmark\": \"{}\"}}", p.name(), p.benchmark())
        })
        .collect();
    [list(&table1), list(&table2), list(&table3)]
}

/// Figure 6: HammerDB TPC-C-derived NOPM at 250 virtual users with a 1 ms
/// keying delay. The paper's shape: 0+1 near PostgreSQL (planning overhead,
/// no extra hardware), 4+1 around an order of magnitude up (the working set
/// now fits in cluster memory: I/O-bound → CPU-bound), 8+1 higher but
/// sublinear (the ~7 % cross-warehouse transactions are RTT-bound).
fn figure6(p: &Params, threads: usize) -> (String, [f64; 4]) {
    let cfg = TpccConfig { warehouses: p.warehouses, items: 400, ..Default::default() };
    let (clients, think_ms) = (250, 1.0);
    let mut nopm = [0.0; 4];
    let mut rows = Vec::new();
    for (i, setup) in Setup::ALL.into_iter().enumerate() {
        let mut target = Target::build(setup, 32, threads);
        target.create(&tpcc::schema_statements(), &tpcc::distribution_statements());
        tpcc::load(target.runner(), &cfg, 42).expect("load");
        if let Some(c) = &target.cluster {
            // the paper delegates the HammerDB stored procedures by
            // warehouse id (§4.1)
            tpcc::register_procedures(c).expect("register procedures");
        }
        target.set_sim_widths(tpcc::SIM_WIDTHS);
        // the paper's knife-edge: data ≈ 100 GB, nodes have 64 GB
        let data = target.size_pools(0.64);

        let mut driver = tpcc::TpccDriver::new(cfg.clone(), 7);
        let mut txn = |r: &mut dyn SqlRunner| {
            let kind = driver.next_kind();
            let run = if setup.is_citus() {
                driver.run_via_procedures(r, kind)
            } else {
                driver.run(r, kind)
            };
            run.map(|_| kind)
        };
        let r = target.runner();
        for _ in 0..100 {
            let _ = txn(r);
        }
        let samples = sample(r, p.tpcc_samples, txn);
        let new_order: Vec<f64> = samples
            .iter()
            .filter(|(kind, _)| *kind == TxnKind::NewOrder)
            .map(|(_, c)| c.elapsed_ms)
            .collect();
        let nodes = target.data_nodes();
        let solved = solve_closed_loop(&mean(&samples), &nodes, clients, think_ms);
        nopm[i] = solved.throughput_per_sec * 60.0 * 0.45;
        rows.push(format!(
            "{{\"setup\": \"{}\", \"sim_data_mb\": {:.1}, \"nopm\": {:.0}, \"vs_pg\": {:.2}, \
             \"resp_ms\": {:.2}, \"new_order_ms\": {:.2}, \"bottleneck\": \"{}\", \
             \"cross_warehouse_pct\": {:.1}}}",
            setup.name(),
            mb(data),
            nopm[i],
            nopm[i] / nopm[0].max(1e-9),
            solved.response_ms,
            new_order.iter().sum::<f64>() / new_order.len().max(1) as f64,
            solved.bottleneck,
            100.0 * driver.cross_warehouse_txns as f64 / driver.total_txns as f64
        ));
    }
    let json = format!(
        "{{\"warehouses\": {}, \"samples\": {}, \"clients\": {clients}, \"think_ms\": {think_ms}, \
         \"setups\": {}}}",
        p.warehouses,
        p.tpcc_samples,
        list(&rows)
    );
    (json, nopm)
}

/// Figure 7: real-time analytics microbenchmarks over GitHub-Archive-style
/// JSON events with a trigram GIN index: (a) single-session COPY ingest,
/// (b) the dashboard query (jsonb path + ILIKE + GROUP BY day), (c) the
/// INSERT..SELECT transformation. Paper shape: (a) 0+1 already beats
/// PostgreSQL (per-shard COPY streams parallelise index maintenance), 4+1
/// faster, 8+1 flat (the single COPY stream saturates one coordinator core);
/// (b) CPU-bound, parallelism wins everywhere; (c) ~96 % runtime reduction
/// on 8+1.
fn figure7(p: &Params, threads: usize) -> ([String; 3], [[f64; 3]; 4]) {
    let mut ms = [[0.0; 3]; 4];
    for (i, setup) in Setup::ALL.into_iter().enumerate() {
        let mut target = Target::build(setup, 32, threads);
        target.create(&gharchive::schema_statements(), &[gharchive::distribution_statement()]);
        // warm-up month: day 1
        gharchive::load_day(target.runner(), 1, p.events, 17).expect("load day 1");
        target.set_sim_widths(&[("github_events", gharchive::SIM_ROW_WIDTH)]);

        // (a) COPY of the next day, single session (sum over batches)
        let r = target.runner();
        let mut metered = MeteredRunner::new(r);
        gharchive::load_day(&mut metered, 2, p.events, 18).expect("load day 2");
        ms[i][0] = metered.take().elapsed_ms;

        // (b) dashboard query (run twice; report the warm run, like the
        // paper's average-excluding-first)
        r.run(&gharchive::dashboard_query()).expect("dashboard cold");
        r.run(&gharchive::dashboard_query()).expect("dashboard warm");
        ms[i][1] = r.last_cost().elapsed_ms;

        // (c) INSERT..SELECT transformation
        target.create(
            &gharchive::transformation_schema(),
            &[gharchive::transformation_distribution()],
        );
        let r = target.runner();
        r.run(&gharchive::transformation_query()).expect("transformation");
        ms[i][2] = r.last_cost().elapsed_ms;
    }
    let section = |f: usize, key: &str, precision: usize| {
        let rows: Vec<String> = Setup::ALL
            .iter()
            .enumerate()
            .map(|(i, setup)| {
                format!(
                    "{{\"setup\": \"{}\", \"{key}\": {:.precision$}, \"vs_pg\": {:.2}}}",
                    setup.name(),
                    ms[i][f],
                    ms[0][f] / ms[i][f].max(1e-9)
                )
            })
            .collect();
        format!("{{\"events\": {}, \"setups\": {}}}", p.events, list(&rows))
    };
    let json = [
        section(0, "copy_ms", 0),
        section(1, "dashboard_ms", 1),
        section(2, "insert_select_ms", 0),
    ];
    (json, ms)
}

/// Figure 8: data warehousing — the 18 Citus-supported TPC-H queries over a
/// single session, reported as queries per hour and, per query, as modelled
/// milliseconds (`query_ms`, keyed by query number). The paper's shape: TPC-H
/// scans everything; the single server is I/O-bound while the cluster keeps
/// data in memory and is CPU-bound, giving two orders of magnitude on 8+1.
fn figure8(p: &Params, threads: usize) -> (String, [f64; 4]) {
    let mut qph = [0.0; 4];
    let mut rows = Vec::new();
    for (i, setup) in Setup::ALL.into_iter().enumerate() {
        let mut target = Target::build(setup, 8, threads);
        target.create(&tpch::schema_statements(), &tpch::distribution_statements());
        tpch::gen::load(target.runner(), p.sf, 33).expect("load");
        target.set_sim_widths(tpch::SIM_WIDTHS);
        // SF100 ≈ 135 GB vs 64 GB nodes
        let data = target.size_pools(64.0 / 135.0);

        let r = target.runner();
        let mut total_ms = 0.0;
        let mut slowest = (0u32, 0.0f64);
        let mut query_ms = Vec::new();
        for n in tpch::queries::SUPPORTED {
            let q = tpch::queries::query(n).expect("supported query");
            r.run(&q).unwrap_or_else(|e| panic!("{}: q{n}: {e}", setup.name()));
            let ms = r.last_cost().elapsed_ms;
            total_ms += ms;
            if ms > slowest.1 {
                slowest = (n, ms);
            }
            query_ms.push(format!("\"{n}\": {ms:.2}"));
        }
        qph[i] = 18.0 * 3_600_000.0 / total_ms;
        rows.push(format!(
            "{{\"setup\": \"{}\", \"sim_data_mb\": {:.1}, \"total_ms\": {total_ms:.0}, \
             \"qph\": {:.0}, \"vs_pg\": {:.1}, \"slowest_query\": {}, \"slowest_ms\": {:.0}, \
             \"query_ms\": {{{}}}}}",
            setup.name(),
            mb(data),
            qph[i],
            qph[i] / qph[0].max(1e-9),
            slowest.0,
            slowest.1,
            query_ms.join(", ")
        ));
    }
    let json = format!(
        "{{\"sf\": {}, \"setups\": {}, \"unsupported\": {:?}}}",
        p.sf,
        list(&rows),
        tpch::queries::UNSUPPORTED
    );
    (json, qph)
}

/// Figure 9: distributed-transaction overhead — the pgbench two-update
/// transaction with the same key (single shard group → 1PC delegation) vs
/// different keys (2PC when the keys land on different nodes), 250
/// connections. The paper reports a 20–30 % penalty for 2PC that still
/// scales with the number of workers.
fn figure9(p: &Params, threads: usize) -> (String, [[f64; 2]; 2]) {
    let clients = 250;
    let mut tps = [[0.0; 2]; 2];
    let mut rows = Vec::new();
    for (i, setup) in [Setup::Citus4Plus1, Setup::Citus8Plus1].into_iter().enumerate() {
        let mut arms = Vec::new();
        for (arm, same_key) in [true, false].into_iter().enumerate() {
            let mut target = Target::build(setup, 32, threads);
            target.create(&pgbench::schema_statements(), &pgbench::distribution_statements());
            let cfg = PgbenchConfig { rows_per_table: 2_000, same_key };
            pgbench::load(target.runner(), &cfg).expect("load");
            let width = pgbench::SIM_ROW_WIDTH;
            target.set_sim_widths(&[("a1", width), ("a2", width)]);
            let mut driver = PgbenchDriver::new(cfg, 77);
            let r = target.runner();
            // the paper's 2×50 GB tables fit in cluster memory; warm the
            // buffer pools so the measurement is RTT-bound, not cold-cache
            r.run("SELECT count(*) FROM a1").expect("warm a1");
            r.run("SELECT count(*) FROM a2").expect("warm a2");
            for _ in 0..100 {
                let _ = driver.run(r);
            }
            let demand = mean(&sample(r, p.twopc_samples, |r| driver.run(r)));
            let solved = solve_closed_loop(&demand, &target.data_nodes(), clients, 0.0);
            tps[i][arm] = solved.throughput_per_sec;
            arms.push(format!(
                "{{\"tps\": {:.0}, \"resp_ms\": {:.3}, \"net_ms\": {:.3}, \"bottleneck\": \"{}\"}}",
                solved.throughput_per_sec, solved.response_ms, demand.net_ms, solved.bottleneck
            ));
        }
        rows.push(format!(
            "{{\"setup\": \"{}\", \"one_pc\": {}, \"two_pc\": {}, \"penalty_pct\": {:.1}}}",
            setup.name(),
            arms[0],
            arms[1],
            100.0 * (1.0 - tps[i][1] / tps[i][0].max(1e-9))
        ));
    }
    let json = format!(
        "{{\"samples\": {}, \"clients\": {clients}, \"setups\": {}}}",
        p.twopc_samples,
        list(&rows)
    );
    (json, tps)
}

/// Figure 10: YCSB workload A (50 % reads / 50 % updates, uniform keys) —
/// the high-performance CRUD benchmark. The paper runs every node as a
/// coordinator (metadata syncing / MX mode) with clients load-balanced
/// across nodes; the workload is I/O bound, so throughput scales with the
/// cluster's aggregate I/O capacity.
fn figure10(p: &Params, threads: usize) -> (String, [f64; 4]) {
    let clients = 256;
    let cfg = YcsbConfig { record_count: p.records, ..Default::default() };
    let mut ops = [0.0; 4];
    let mut rows = Vec::new();
    for (i, setup) in Setup::ALL.into_iter().enumerate() {
        let mut target = Target::build(setup, 32, threads);
        target.create(&[ycsb::schema_statement()], &[ycsb::distribution_statement()]);
        ycsb::load(target.runner(), &cfg, 99).expect("load");
        target.set_sim_widths(&[("usertable", ycsb::SIM_ROW_WIDTH)]);
        if let Some(c) = &target.cluster {
            c.enable_mx(); // every node acts as coordinator (§3.2.1)
        }
        // 100M × 1 KB rows vs 64 GB nodes: I/O-bound everywhere but the
        // biggest cluster
        let data = target.size_pools(0.64);
        // load-balance the sampled clients over the nodes, like the paper's
        // YCSB configuration
        let nodes = target.data_nodes();
        let mut samples = Vec::new();
        for (n, &node) in nodes.iter().enumerate() {
            let mut runner = target.runner_on(node);
            let mut driver = YcsbDriver::new(cfg.clone(), 1000 + n as u64);
            for _ in 0..20 {
                let _ = driver.run(runner.as_mut());
            }
            let per_node = p.ycsb_samples / nodes.len() as u64;
            samples.extend(sample(runner.as_mut(), per_node, |r| driver.run(r)));
        }
        let solved = solve_closed_loop(&mean(&samples), &nodes, clients, 0.0);
        ops[i] = solved.throughput_per_sec;
        rows.push(format!(
            "{{\"setup\": \"{}\", \"sim_data_mb\": {:.2}, \"ops_s\": {:.0}, \"vs_pg\": {:.2}, \
             \"update_resp_ms\": {:.3}, \"bottleneck\": \"{}\"}}",
            setup.name(),
            mb(data),
            ops[i],
            ops[i] / ops[0].max(1e-9),
            solved.response_ms,
            solved.bottleneck
        ));
    }
    let json = format!(
        "{{\"records\": {}, \"samples\": {}, \"clients\": {clients}, \"setups\": {}}}",
        p.records,
        p.ycsb_samples,
        list(&rows)
    );
    (json, ops)
}

/// Tables 1–3 and Figures 6–10 at `scale`, the Citus setups fanning out
/// over `executor_threads` threads (the report does not depend on it).
pub fn report(scale: Scale, executor_threads: usize) -> Report {
    let p = Params::of(scale);
    let t = executor_threads;
    eprintln!("==> Tables 1–3");
    let [table1, table2, table3] = tables();
    eprintln!("==> Figure 6: TPC-C ({} warehouses, {} samples)", p.warehouses, p.tpcc_samples);
    let (fig6, nopm) = figure6(&p, t);
    eprintln!("==> Figure 7: real-time analytics ({} events/day)", p.events);
    let ([fig7a, fig7b, fig7c], rta_ms) = figure7(&p, t);
    eprintln!("==> Figure 8: TPC-H (sf {})", p.sf);
    let (fig8, qph) = figure8(&p, t);
    eprintln!("==> Figure 9: 1PC vs 2PC ({} samples)", p.twopc_samples);
    let (fig9, twopc_tps) = figure9(&p, t);
    eprintln!("==> Figure 10: YCSB A ({} records, {} samples)", p.records, p.ycsb_samples);
    let (fig10, ycsb_ops) = figure10(&p, t);
    let mut report = Report { json: String::new(), nopm, rta_ms, qph, twopc_tps, ycsb_ops };
    let factors: Vec<String> = report.paper_factors().iter().map(PaperFactor::json).collect();
    let paper = format!(
        "{{\"distance_sum\": {:.3}, \"factors\": {}}}",
        report.paper_distance(),
        list(&factors)
    );
    report.json = format!(
        "{{\n  \"bench\": \"figures\",\n  \"smoke\": {},\n  \"executor_threads\": {t},\n  \
         \"table1\": {table1},\n  \"table2\": {table2},\n  \"table3\": {table3},\n  \
         \"figure6\": {fig6},\n  \"figure7a\": {fig7a},\n  \"figure7b\": {fig7b},\n  \
         \"figure7c\": {fig7c},\n  \"figure8\": {fig8},\n  \"figure9\": {fig9},\n  \
         \"figure10\": {fig10},\n  \"paper\": {paper}\n}}\n",
        scale.is_smoke()
    );
    report
}
