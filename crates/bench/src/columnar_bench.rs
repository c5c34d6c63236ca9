//! The body of the `columnar_bench` binary (its module doc says what is
//! measured and why): the `BENCH_columnar` report for one [`Scale`], as
//! text, so `tests/figures.rs` can run the smoke scale in-process.

use crate::{RatioReport, Scale};
use citrus::cluster::{Cluster, ClusterConfig};
use workloads::runner::{ClusterRunner, SqlRunner};
use workloads::tpch;

/// The vectorizable query mix: pure scan→filter→aggregate over lineitem.
fn queries() -> Vec<String> {
    vec![
        tpch::queries::query(1).expect("q1"),
        tpch::queries::query(6).expect("q6"),
        // filtered partial aggregates with arithmetic kernels
        "SELECT count(*), sum(l_quantity * (1 + l_tax)), max(l_extendedprice) \
         FROM lineitem WHERE l_discount BETWEEN 0.02 AND 0.08"
            .to_string(),
        "SELECT l_returnflag, avg(l_extendedprice), min(l_quantity) \
         FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY 1"
            .to_string(),
    ]
}

struct Arm {
    statements: u64,
    virtual_ms: f64,
    units_per_vsec: f64,
    batches: u64,
    pages: u64,
}

fn run_arm(vectorized: bool, sf: f64, reps: u64) -> Arm {
    let mut cfg = ClusterConfig { shard_count: 16, executor_threads: 4, ..ClusterConfig::default() };
    cfg.engine = if vectorized { cfg.engine } else { pgmini::EngineConfig::volcano() };
    let cluster = Cluster::new(cfg);
    for _ in 0..4 {
        cluster.add_worker().unwrap();
    }
    let session = cluster.session().unwrap();
    let mut r = ClusterRunner { session };
    for s in tpch::schema_statements() {
        r.run(&s).expect("schema");
    }
    for s in tpch::distribution_statements() {
        r.run(&s).expect("distribute");
    }
    tpch::gen::load(&mut r, sf, 33).expect("load");
    // the paper's warehousing cluster keeps the working set in memory and is
    // CPU-bound; size the buffer pools so both arms measure compute, not
    // first-touch page faults
    for n in cluster.nodes() {
        n.engine().buffer.set_capacity(1 << 20);
    }

    let qs = queries();
    // one untimed warmup pass: first-touch page faults hit both arms with the
    // same absolute I/O, which would dilute the (much faster) vectorized arm
    // disproportionately — the steady-state CPU ratio is the number under test
    for q in &qs {
        r.run(q).unwrap_or_else(|e| panic!("warmup failed: {e:?}\n{q}"));
    }
    let mut virtual_ms = 0.0;
    let mut statements = 0u64;
    let mut batches = 0u64;
    let mut pages = 0u64;
    for _ in 0..reps {
        for q in &qs {
            r.run(q).unwrap_or_else(|e| panic!("query failed: {e:?}\n{q}"));
            let d = r.session.last_dist_cost();
            virtual_ms += d.elapsed_ms;
            batches += d.per_node.values().map(|c| c.batches).sum::<u64>();
            pages += d.per_node.values().map(|c| c.pages_read).sum::<u64>();
            statements += 1;
        }
    }
    Arm {
        statements,
        virtual_ms,
        units_per_vsec: statements as f64 * 1000.0 / virtual_ms,
        batches,
        pages,
    }
}

/// Vectorized over volcano.
pub fn report(scale: Scale) -> RatioReport {
    let smoke = scale.is_smoke();
    let (sf, reps): (f64, u64) = if smoke { (0.002, 2) } else { (0.01, 10) };

    eprintln!("==> columnar bench (sf {sf}, {reps} reps, {} queries)", queries().len());
    let vec_arm = run_arm(true, sf, reps);
    let vol_arm = run_arm(false, sf, reps);
    let speedup = vec_arm.units_per_vsec / vol_arm.units_per_vsec;
    eprintln!(
        "    vectorized {:.1} stmts/vsec ({} batches) vs volcano {:.1} stmts/vsec — {speedup:.2}x",
        vec_arm.units_per_vsec, vec_arm.batches, vol_arm.units_per_vsec
    );

    assert!(vec_arm.batches > 0, "vectorized arm processed no batches");
    assert_eq!(vol_arm.batches, 0, "volcano arm must not use batched kernels");
    assert_eq!(vec_arm.pages, vol_arm.pages, "both arms must read the same pages");

    let arm_json = |a: &Arm| {
        format!(
            "{{\"statements\": {}, \"virtual_ms\": {:.3}, \"units_per_vsec\": {:.3}, \
             \"batches\": {}, \"pages_read\": {}}}",
            a.statements, a.virtual_ms, a.units_per_vsec, a.batches, a.pages
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"columnar\",\n  \"smoke\": {smoke},\n  \"sf\": {sf},\n  \
         \"reps\": {reps},\n  \"cluster\": {{\"workers\": 4, \"shards\": 16, \
         \"executor_threads\": 4}},\n  \"vectorized\": {},\n  \"volcano\": {},\n  \
         \"speedup\": {speedup:.3}\n}}\n",
        arm_json(&vec_arm),
        arm_json(&vol_arm)
    );
    RatioReport { json, speedup }
}
