//! The body of the `rollup_bench` binary (its module doc says what is
//! measured and why): the `BENCH_rollup` report for one [`Scale`], as text,
//! so `tests/figures.rs` can run the smoke scale in-process.

use crate::{RatioReport, Scale};
use citrus::cluster::{Cluster, ClusterConfig};
use workloads::runner::{ClusterRunner, SqlRunner};

struct Arm {
    rounds: u64,
    serving_statements: u64,
    virtual_ms: f64,
    units_per_vsec: f64,
    deltas_applied: u64,
}

/// Deterministic row stream shared by both arms: (k, day, amount). Rows
/// arrive in day order — the ingest pattern rollups exist for — so each
/// refresh only touches the newest bucket or two while a recompute rescans
/// every day ever loaded.
fn row_values(k: u64, rows_per_day: u64) -> (u64, u64, i64) {
    let mut x = k.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 31;
    (k, k / rows_per_day, (x >> 8) as i64 % 1000)
}

fn insert_batch(r: &mut ClusterRunner, from: u64, n: u64, rows_per_day: u64) {
    for k in from..from + n {
        let (k, day, amount) = row_values(k, rows_per_day);
        r.run(&format!(
            "INSERT INTO events (k, day, amount) VALUES ({k}, {day}, {amount})"
        ))
        .expect("insert");
    }
}

/// Bulk-load the pre-rollup base via COPY (untimed setup; the rollup backfill
/// covers these rows, so they never ride the changefeed).
fn copy_base(r: &mut ClusterRunner, rows: u64, rows_per_day: u64) {
    use pgmini::types::Datum;
    let mut k = 0;
    while k < rows {
        let n = (rows - k).min(2000);
        let batch: Vec<Vec<Datum>> = (k..k + n)
            .map(|k| {
                let (k, day, amount) = row_values(k, rows_per_day);
                vec![Datum::Int(k as i64), Datum::Int(day as i64), Datum::Int(amount)]
            })
            .collect();
        r.copy("events", &[], batch).expect("copy base rows");
        k += n;
    }
}

const DEFINING_QUERY: &str = "SELECT day, count(*) AS n, sum(amount) AS total, \
     max(amount) AS hi FROM events GROUP BY day";

fn run_arm(incremental: bool, base_rows: u64, batch: u64, rounds: u64) -> Arm {
    let rows_per_day = (base_rows / 40).max(25);
    let cfg = ClusterConfig { shard_count: 16, executor_threads: 4, ..ClusterConfig::default() };
    let cluster = Cluster::new(cfg);
    for _ in 0..4 {
        cluster.add_worker().unwrap();
    }
    let session = cluster.session().unwrap();
    let mut r = ClusterRunner { session };
    r.run("CREATE TABLE events (k bigint PRIMARY KEY, day bigint, amount bigint)")
        .expect("schema");
    r.run("SELECT create_distributed_table('events', 'k')").expect("distribute");
    copy_base(&mut r, base_rows, rows_per_day);
    if incremental {
        r.run(&format!("CREATE ROLLUP events_by_day AS {DEFINING_QUERY}"))
            .expect("create rollup");
    }

    let mut next_k = base_rows;
    let mut virtual_ms = 0.0;
    let mut serving_statements = 0u64;
    for _ in 0..rounds {
        insert_batch(&mut r, next_k, batch, rows_per_day);
        next_k += batch;
        // time only the serving statements: the insert batches above are
        // identical in both arms and would dilute the ratio under test
        let before = cluster.metrics.statement_elapsed.sum_ms();
        if incremental {
            r.run("SELECT citrus_refresh_rollup('events_by_day')").expect("refresh");
            r.run("SELECT day, n, total, hi FROM events_by_day ORDER BY day")
                .expect("rollup read");
            serving_statements += 2;
        } else {
            r.run(&format!("{DEFINING_QUERY} ORDER BY day")).expect("recompute");
            serving_statements += 1;
        }
        virtual_ms += cluster.metrics.statement_elapsed.sum_ms() - before;
    }

    let deltas =
        cluster.metrics.rollup_deltas_applied.load(std::sync::atomic::Ordering::Relaxed);
    Arm {
        rounds,
        serving_statements,
        virtual_ms,
        units_per_vsec: rounds as f64 * 1000.0 / virtual_ms,
        deltas_applied: deltas,
    }
}

/// Incremental over recompute.
pub fn report(scale: Scale) -> RatioReport {
    let smoke = scale.is_smoke();
    let (base_rows, batch, rounds): (u64, u64, u64) =
        if smoke { (6_000, 100, 4) } else { (20_000, 200, 10) };

    let rows_per_day = (base_rows / 40).max(25);
    eprintln!(
        "==> rollup bench ({base_rows} base rows, {rounds} rounds of {batch}-row \
         batches, {rows_per_day} rows/day)"
    );
    let incr = run_arm(true, base_rows, batch, rounds);
    let rec = run_arm(false, base_rows, batch, rounds);
    let speedup = incr.units_per_vsec / rec.units_per_vsec;
    eprintln!(
        "    incremental {:.1} rounds/vsec ({} deltas) vs recompute {:.1} rounds/vsec \
         — {speedup:.2}x",
        incr.units_per_vsec, incr.deltas_applied, rec.units_per_vsec
    );

    assert!(incr.deltas_applied > 0, "incremental arm applied no deltas");
    assert_eq!(rec.deltas_applied, 0, "recompute arm must not touch the rollup path");

    let arm_json = |a: &Arm| {
        format!(
            "{{\"rounds\": {}, \"serving_statements\": {}, \"virtual_ms\": {:.3}, \
             \"units_per_vsec\": {:.3}, \"deltas_applied\": {}}}",
            a.rounds, a.serving_statements, a.virtual_ms, a.units_per_vsec, a.deltas_applied
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"rollup\",\n  \"smoke\": {smoke},\n  \"base_rows\": {base_rows},\n  \
         \"batch\": {batch},\n  \"rows_per_day\": {rows_per_day},\n  \"cluster\": {{\"workers\": 4, \
         \"shards\": 16, \"executor_threads\": 4}},\n  \"incremental\": {},\n  \
         \"recompute\": {},\n  \"speedup\": {speedup:.3}\n}}\n",
        arm_json(&incr),
        arm_json(&rec)
    );
    RatioReport { json, speedup }
}
