//! Vectorized-execution differential wall.
//!
//! The batched columnar path must be *semantically invisible*: any workload
//! over columnar distributed tables returns the same rows, affected counts,
//! and error codes with `vectorized` on or off — including under an injected
//! fault plan with a fixed seed. Within one mode, the §6 determinism contract
//! still holds: costs and trace fingerprints are byte-identical at 1 and 8
//! executor threads. Costs are *not* compared across modes — the vectorized
//! path is cheaper by design.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::cost::DistCost;
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use proptest::prelude::*;
use std::sync::Arc;

fn cluster(threads: usize, vectorized: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 16;
    cfg.executor_threads = threads;
    if !vectorized {
        cfg.engine = pgmini::engine::EngineConfig::volcano();
    }
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    c
}

/// Columnar measurements table plus a reference dimension, loaded with
/// enough rows that every shard holds multiple stripes' worth of data.
fn setup(c: &Arc<Cluster>) -> citrus::cluster::ClientSession {
    let mut s = c.session().unwrap();
    s.execute(
        "CREATE TABLE m (k bigint, a bigint, b float, label text) USING columnar",
    )
    .unwrap();
    s.execute("SELECT create_distributed_table('m', 'k')").unwrap();
    s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("INSERT INTO r VALUES (0, 'l0'), (1, 'l1'), (2, 'l2')").unwrap();
    // multi-row inserts split per shard: each batch appends one stripe per
    // target shard
    for chunk in 0..6i64 {
        let rows: Vec<String> = (0..50i64)
            .map(|i| {
                let k = chunk * 50 + i;
                format!("({k}, {}, {}.5, 'l{}')", k % 17, k % 23, k % 3)
            })
            .collect();
        s.execute(&format!("INSERT INTO m VALUES {}", rows.join(", "))).unwrap();
    }
    s
}

fn total_pages(d: &DistCost) -> u64 {
    d.per_node.values().map(|c| c.pages_read).sum()
}

fn total_batches(d: &DistCost) -> u64 {
    d.per_node.values().map(|c| c.batches).sum()
}

/// The differential workload: scans, filters, partial aggregates, group-bys
/// (on and off the distribution column), CASE arithmetic, reference joins,
/// filters and an aggregate argument with no batch kernel (a function call:
/// the scan selects its rows row by row even with `vectorized` on),
/// appends, an append-only violation, and a runtime error.
fn workload() -> Vec<&'static str> {
    vec![
        "SELECT count(*), sum(a), min(b), max(b), avg(a) FROM m",
        "SELECT label, count(*), sum(a) FROM m GROUP BY label ORDER BY 1",
        "SELECT count(*) FROM m WHERE a % 3 = 0 AND b < 11.0",
        "SELECT k, a FROM m WHERE a > 14 ORDER BY k LIMIT 5",
        "SELECT sum(a + CASE WHEN b > 10 THEN 1 ELSE 0 END) FROM m",
        "SELECT k, count(*) FROM m WHERE k < 40 GROUP BY k ORDER BY 1",
        "SELECT r.label, count(*) FROM m JOIN r ON m.label = r.label \
         GROUP BY r.label ORDER BY 1",
        "SELECT a FROM m WHERE k = 7",
        "SELECT count(*), sum(a) FROM m WHERE abs(a) > 3",
        "SELECT label, count(*) FROM m WHERE upper(label) = 'L1' GROUP BY label ORDER BY 1",
        "SELECT sum(abs(a)) FROM m",
        "INSERT INTO m VALUES (500, 1, 2.0, 'l1'), (501, 2, 3.0, 'l2')",
        "SELECT count(*) FROM m",
        "UPDATE m SET a = 0 WHERE k = 7",
        "SELECT count(*) FROM m WHERE 10 / (a - a) > 0",
        "SELECT avg(b), max(a) FROM m WHERE label = 'l1' AND a BETWEEN 2 AND 9",
    ]
}

/// Run the workload and fold every cross-mode observable into strings:
/// rows and affected counts for successes, the error *code* for failures
/// (the batched path may surface a different failing row first, but never a
/// different code).
fn run_results(
    threads: usize,
    vectorized: bool,
    faults: Option<(FaultPlan, u64)>,
) -> (Vec<String>, u64) {
    let c = cluster(threads, vectorized);
    let mut s = setup(&c);
    let inj = faults.map(|(plan, seed)| c.install_faults(plan, seed));
    let out = workload()
        .iter()
        .map(|sql| match s.execute(sql) {
            Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
            Err(e) => format!("err:{:?}", e.code),
        })
        .collect();
    (out, inj.map(|i| i.fingerprint()).unwrap_or(0))
}

/// Run the workload and fold every within-mode observable into strings:
/// full outcomes plus per-statement cost accounting and rendered traces.
fn run_observables(threads: usize, vectorized: bool) -> Vec<String> {
    let c = cluster(threads, vectorized);
    let mut s = setup(&c);
    let mut out = Vec::new();
    for sql in workload() {
        c.tracer.clear();
        out.push(match s.execute(sql) {
            Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
            Err(e) => format!("err:{:?}:{}", e.code, e.message),
        });
        out.push(format!("{:?}", s.last_dist_cost()));
        if let Some(t) = c.tracer.last_statement() {
            out.push(t.render());
        }
    }
    out
}

#[test]
fn vectorized_matches_volcano_results() {
    let vec = run_results(1, true, None);
    let vol = run_results(1, false, None);
    assert_eq!(vec.0, vol.0, "batched execution changed observable results");
}

#[test]
fn vectorized_matches_volcano_under_faults() {
    let plan = || {
        FaultPlan::new()
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .with_tag("select")
                    .always()
                    .with_probability(0.25),
            )
            .with(FaultRule::stmt_error(1, "select"))
    };
    let vec = run_results(4, true, Some((plan(), 11)));
    let vol = run_results(4, false, Some((plan(), 11)));
    assert_eq!(vec.0, vol.0, "fault outcomes diverged between modes");
    assert_eq!(vec.1, vol.1, "fault fingerprints diverged between modes");
}

#[test]
fn costs_and_traces_thread_invariant_in_both_modes() {
    for vectorized in [true, false] {
        let base = run_observables(1, vectorized);
        let par = run_observables(8, vectorized);
        assert_eq!(base, par, "vectorized={vectorized} diverged at 8 threads");
    }
}

/// The vectorized path actually runs: batch counts show up in the cost
/// accounting, a filter with no kernel selects row by row and books none,
/// and turning the path off drops them to zero.
#[test]
fn batch_counters_flow_through_distributed_costs() {
    let c = cluster(1, true);
    let mut s = setup(&c);
    s.execute("SELECT count(*), sum(a) FROM m").unwrap();
    let batched = total_batches(&s.last_dist_cost());
    assert!(batched > 0, "columnar aggregate reported no batches");
    s.execute("SELECT count(*), sum(a) FROM m WHERE abs(a) > 3").unwrap();
    assert_eq!(total_batches(&s.last_dist_cost()), 0, "kernel-less filter counted batches");

    let c = cluster(1, false);
    let mut s = setup(&c);
    s.execute("SELECT count(*), sum(a) FROM m").unwrap();
    assert_eq!(total_batches(&s.last_dist_cost()), 0, "volcano mode counted batches");
}

/// Satellite regression: columnar I/O is charged per referenced column. An
/// aggregate touching one narrow bigint column reads fewer pages than one
/// touching the wide text column, and far fewer than a full-width scan.
#[test]
fn columnar_io_charged_per_referenced_column() {
    // few shards, many rows: per-shard page counts must rise above the
    // one-page-per-scan floor for the width discount to be visible
    let load = |vectorized: bool| {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 4;
        cfg.executor_threads = 1;
        if !vectorized {
            cfg.engine = pgmini::engine::EngineConfig::volcano();
        }
        let c = Cluster::new(cfg);
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE m (k bigint, a bigint, b float, label text) USING columnar")
            .unwrap();
        s.execute("SELECT create_distributed_table('m', 'k')").unwrap();
        for chunk in 0..20i64 {
            let rows: Vec<String> = (0..200i64)
                .map(|i| {
                    let k = chunk * 200 + i;
                    format!("({k}, {}, {}.5, 'l{}')", k % 17, k % 23, k % 3)
                })
                .collect();
            s.execute(&format!("INSERT INTO m VALUES {}", rows.join(", "))).unwrap();
        }
        (c, s)
    };
    let (_c, mut s) = load(true);
    s.execute("SELECT sum(a) FROM m").unwrap();
    let narrow = total_pages(&s.last_dist_cost());
    s.execute("SELECT count(label) FROM m").unwrap();
    let wide = total_pages(&s.last_dist_cost());
    s.execute("SELECT count(*) FROM m WHERE k + a > 0 AND b > -1.0 AND label <> ''")
        .unwrap();
    let full = total_pages(&s.last_dist_cost());
    assert!(
        narrow < wide,
        "narrow column scan ({narrow} pages) not cheaper than wide ({wide} pages)"
    );
    assert!(wide <= full, "wide scan ({wide}) costlier than full-width ({full})");

    // the discount follows the projection, not the execution mode
    let (_c, mut s) = load(false);
    s.execute("SELECT sum(a) FROM m").unwrap();
    assert_eq!(
        total_pages(&s.last_dist_cost()),
        narrow,
        "volcano mode charges different I/O for the same projection"
    );
}

/// Satellite regression: the projection actually reaches the scan — the
/// worker plan marks the referenced columns, so untouched columns are never
/// materialized (the old path passed `None` and cloned every column).
#[test]
fn worker_plans_push_projection_into_columnar_scans() {
    let engine = pgmini::engine::Engine::new(pgmini::engine::EngineConfig::default());
    let mut s = engine.session().unwrap();
    s.execute("CREATE TABLE m (k bigint, a bigint, b float, label text) USING columnar")
        .unwrap();
    s.execute("INSERT INTO m VALUES (1, 2, 3.0, 'wide-payload')").unwrap();
    let r = s.execute("EXPLAIN SELECT sum(a) FROM m").unwrap();
    let text = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("(cols: 1)"), "scan not projected to one column: {text}");
}

#[test]
fn explain_surfaces_the_vectorized_path() {
    let c = cluster(1, true);
    let mut s = setup(&c);
    // static EXPLAIN: the columnar anchor prefers the aggregate split even
    // though GROUP BY k would allow full pushdown
    let r = s
        .execute("EXPLAIN (DISTRIBUTED) SELECT k, sum(a) FROM m GROUP BY k")
        .unwrap();
    let text = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("Vectorized: columnar shards"), "{text}");
    assert!(text.contains("Merge: partial aggregation on coordinator"), "{text}");

    // EXPLAIN ANALYZE: task spans carry batch counts
    let r = s
        .execute("EXPLAIN (ANALYZE, DISTRIBUTED) SELECT count(*), sum(a) FROM m")
        .unwrap();
    let text = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("vectorized=true"), "{text}");
    assert!(text.contains("batches="), "{text}");
}

// ---------------- property: equivalence over random workloads ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scan/filter/aggregate workloads over a columnar table with
    /// NULL in every column, NaN, timestamps and repeated text observe
    /// identical results with vectorization on and off.
    #[test]
    fn random_columnar_workloads_mode_invariant(
        cells in prop::collection::vec((0i64..40, 0usize..8), 30..90),
        ops in prop::collection::vec((0usize..14, 0i64..40), 1..10),
    ) {
        const TEXT: [&str; 8] = ["''", "'MAIL'", "'SHIP'", "'air'", "'héllo'", "'MAIL'", "NULL", "'SHIP'"];
        let rows: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(k, (x, pick))| {
                let a = if x % 9 == 0 { "NULL".to_string() } else { (x % 7).to_string() };
                let b = match x % 13 {
                    0 => "'NaN'::float".to_string(),
                    1 => "NULL".to_string(),
                    2 => "-0.0".to_string(),
                    _ => format!("{}.25", x % 11),
                };
                let t = match x % 10 {
                    0 => "NULL".to_string(),
                    d => format!("timestamp '2020-01-{:02}'", d * 3),
                };
                format!("({k}, {a}, {b}, {t}, {})", TEXT[*pick])
            })
            .collect();
        let run = |vectorized: bool| {
            let c = cluster(1, vectorized);
            let mut s = c.session().unwrap();
            s.execute("CREATE TABLE m (k bigint, a bigint, b float, t timestamp, s text) USING columnar")
                .unwrap();
            s.execute("SELECT create_distributed_table('m', 'k')").unwrap();
            for chunk in rows.chunks(30) {
                s.execute(&format!("INSERT INTO m VALUES {}", chunk.join(", "))).unwrap();
            }
            let mut out = Vec::new();
            for (op, x) in &ops {
                let sql = match op {
                    0 => format!("SELECT count(*) FROM m WHERE a > {}", x % 7),
                    1 => format!("SELECT sum(a), min(b) FROM m WHERE k < {x}"),
                    2 => format!("SELECT a, count(*) FROM m WHERE b > {}.0 GROUP BY a ORDER BY 1", x % 11),
                    3 => format!("SELECT k, a, b, t, s FROM m WHERE k = {x}"),
                    4 => format!("INSERT INTO m VALUES ({}, 1, 0.5, NULL, 'air')", 1000 + x),
                    5 => format!("SELECT avg(b) FROM m WHERE a BETWEEN {} AND {}", x % 5, x % 5 + 3),
                    6 => format!("SELECT count(*) FROM m WHERE 1 / (a - {}) >= 0", x % 7),
                    7 => "SELECT s, count(*), sum(a), min(b), max(t) FROM m GROUP BY s ORDER BY 1".into(),
                    8 => format!("SELECT count(*) FROM m WHERE s IN ('MAIL', 'SHIP', 'x{x}')"),
                    9 => "SELECT k, s FROM m WHERE s LIKE '%A%' OR s ILIKE 'H_LLO' ORDER BY k".into(),
                    10 => format!(
                        "SELECT count(*), min(t), max(t) FROM m WHERE t < '2020-01-{:02}'",
                        x % 28 + 1
                    ),
                    11 => format!("SELECT t, count(*) FROM m WHERE b > {} GROUP BY t ORDER BY 1", x % 11),
                    12 => "SELECT count(*) FROM m WHERE s NOT LIKE 'M%' AND a IS NULL".into(),
                    _ => format!("SELECT sum(b), avg(b), count(s) FROM m WHERE s = 'air' OR k < {x}"),
                };
                out.push(match s.execute(&sql) {
                    Ok(r) => format!("ok:{:?}/{}", r.rows(), r.affected()),
                    Err(e) => format!("err:{:?}", e.code),
                });
            }
            out
        };
        prop_assert_eq!(run(true), run(false));
    }
}
