//! Engine-level benchmarks: columnar vs heap scans, the distributed COPY
//! data path, and the 1PC-vs-2PC commit protocols (real wall time).

use criterion::{criterion_group, criterion_main, Criterion};
use pgmini::types::Datum;

/// Columnar vs heap scan (the Table 2 "columnar storage" capability).
fn columnar_scan(c: &mut Criterion) {
    let heap = pgmini::engine::Engine::new_default();
    let mut hs = heap.session().unwrap();
    hs.execute("CREATE TABLE t (k bigint, v float)").unwrap();
    let col = pgmini::engine::Engine::new_default();
    let mut cs = col.session().unwrap();
    cs.execute("CREATE TABLE t (k bigint, v float)").unwrap();
    col.set_columnar("t").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..20_000i64).map(|i| vec![Datum::Int(i), Datum::Float(i as f64)]).collect();
    hs.copy_rows("t", &[], rows.clone()).unwrap();
    cs.copy_rows("t", &[], rows).unwrap();
    let mut group = c.benchmark_group("columnar_scan");
    group.bench_function("heap_sum", |b| {
        b.iter(|| hs.execute("SELECT sum(v) FROM t WHERE k % 7 = 0").unwrap())
    });
    group.bench_function("columnar_sum", |b| {
        b.iter(|| cs.execute("SELECT sum(v) FROM t WHERE k % 7 = 0").unwrap())
    });
    group.finish();
}

/// Per-row hash routing throughput of distributed COPY.
fn copy_partitioning(c: &mut Criterion) {
    let cluster = citrus::cluster::Cluster::new_default();
    cluster.add_worker().unwrap();
    cluster.add_worker().unwrap();
    let mut s = cluster.session().unwrap();
    s.execute("CREATE TABLE t (k bigint, v text)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    let mut next = 0i64;
    c.bench_function("distributed_copy_1k_rows", |b| {
        b.iter(|| {
            let rows: Vec<Vec<Datum>> = (0..1000)
                .map(|i| {
                    next += 1;
                    vec![Datum::Int(next * 1000 + i), Datum::text(format!("v{i}"))]
                })
                .collect();
            let mut cs = cluster.session().unwrap();
            cs.copy("t", &[], rows).unwrap()
        })
    });
}

/// 1PC single-node delegation vs full 2PC commit path.
fn two_pc(c: &mut Criterion) {
    let cluster = citrus::cluster::Cluster::new_default();
    for _ in 0..4 {
        cluster.add_worker().unwrap();
    }
    let mut s = cluster.session().unwrap();
    s.execute("CREATE TABLE a1 (key bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('a1', 'key')").unwrap();
    s.execute("CREATE TABLE a2 (key bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('a2', 'key', 'a1')").unwrap();
    for k in 0..512i64 {
        s.execute(&format!("INSERT INTO a1 VALUES ({k}, 0)")).unwrap();
        s.execute(&format!("INSERT INTO a2 VALUES ({k}, 0)")).unwrap();
    }
    // keys known to be on different nodes vs the same group
    let (k_same, k_a, k_b) = {
        let meta = cluster.metadata.read();
        let mut found = (0, 0, 1);
        'outer: for a in 0..512i64 {
            for b in 0..512i64 {
                let ba = meta.shard_index_for_value("a1", &Datum::Int(a)).unwrap();
                let bb = meta.shard_index_for_value("a2", &Datum::Int(b)).unwrap();
                let dt = meta.table("a1").unwrap();
                let na = meta.shard(dt.shards[ba]).unwrap().placements[0];
                let nb = meta.shard(dt.shards[bb]).unwrap().placements[0];
                if na != nb {
                    found = (a, a, b);
                    break 'outer;
                }
            }
        }
        found
    };
    let mut group = c.benchmark_group("two_pc");
    group.bench_function("single_node_1pc", |b| {
        b.iter(|| {
            s.execute("BEGIN").unwrap();
            s.execute(&format!("UPDATE a1 SET v = v + 1 WHERE key = {k_same}")).unwrap();
            s.execute(&format!("UPDATE a2 SET v = v - 1 WHERE key = {k_same}")).unwrap();
            s.execute("COMMIT").unwrap();
        })
    });
    group.bench_function("multi_node_2pc", |b| {
        b.iter(|| {
            s.execute("BEGIN").unwrap();
            s.execute(&format!("UPDATE a1 SET v = v + 1 WHERE key = {k_a}")).unwrap();
            s.execute(&format!("UPDATE a2 SET v = v - 1 WHERE key = {k_b}")).unwrap();
            s.execute("COMMIT").unwrap();
        })
    });
    group.finish();
}

criterion_group!(
    name = engine;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = columnar_scan, copy_partitioning, two_pc
);
criterion_main!(engine);
