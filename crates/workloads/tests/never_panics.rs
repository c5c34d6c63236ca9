//! No statement panics the server. A statement that is wrong ends with a
//! `PgError` (an ERROR and its SQLSTATE), never a panic, on one engine and on
//! a 2-worker cluster alike. The inputs are the statements the workloads
//! issue: the 18 supported TPC-H texts and what the TPC-C and YCSB drivers
//! send (captured with `sim::RecordingRunner`), each mutated a few times
//! from one seed: a token dropped, duplicated or swapped with its
//! neighbour, or a literal replaced with an edge value. The test also runs
//! in the debug build, whose integer overflow checks panic where clippy
//! sees nothing.

use citrus::cluster::{Cluster, ClusterConfig};
use pgmini::engine::Engine;
use pgmini::error::PgResult;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::runner::{ClusterRunner, LocalRunner, SqlRunner};
use workloads::sim::{RecordingRunner, SimScales};
use workloads::tpcc::TpccDriver;
use workloads::ycsb::YcsbDriver;
use workloads::{tpcc, tpch, ycsb};

const SEED: u64 = 0x5eed_0f_7e57;
/// Mutants of each captured statement.
const MUTANTS: usize = 40;
const EDGE_LITERALS: [&str; 5] = ["NULL", "-9223372036854775808", "''", "1e308", "0"];

/// The statement's tokens: words and numbers, quoted strings, runs of
/// comparison operator characters, and single punctuation marks. Joined by
/// spaces they read as the statement did.
fn tokens(sql: &str) -> Vec<String> {
    let word = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    let op = |c: char| "<>=!:|".contains(c);
    let mut out = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        let mut token = c.to_string();
        if c == '\'' {
            for ch in chars.by_ref() {
                token.push(ch);
                if ch == '\'' {
                    break;
                }
            }
        } else if word(c) || op(c) {
            let same = if word(c) { word } else { op };
            while let Some(ch) = chars.next_if(|ch| same(*ch)) {
                token.push(ch);
            }
        } else if c.is_whitespace() {
            continue;
        }
        out.push(token);
    }
    out
}

fn is_literal(token: &str) -> bool {
    token.starts_with('\'') || token.starts_with(|c: char| c.is_ascii_digit())
}

/// `sql` with one seeded mutation applied.
fn mutate(sql: &str, rng: &mut StdRng) -> String {
    let mut t = tokens(sql);
    if t.len() < 2 {
        return sql.to_string();
    }
    let i = rng.random_range(0..t.len() - 1);
    match rng.random_range(0..4u32) {
        0 => {
            t.remove(i);
        }
        1 => t.insert(i, t[i].clone()),
        2 => t.swap(i, i + 1),
        _ => {
            let literals: Vec<usize> = (0..t.len()).filter(|&j| is_literal(&t[j])).collect();
            if !literals.is_empty() {
                let at = literals[rng.random_range(0..literals.len())];
                t[at] = EDGE_LITERALS[rng.random_range(0..EDGE_LITERALS.len())].to_string();
            }
        }
    }
    t.join(" ")
}

/// The statements the TPC-C and YCSB drivers send in a few transactions
/// and operations.
fn captured_oltp(scales: &SimScales) -> Vec<String> {
    let mut rec = RecordingRunner { log: Vec::new() };
    let mut tpcc_driver = TpccDriver::new(scales.tpcc.clone(), SEED);
    for kind in [
        tpcc::TxnKind::NewOrder,
        tpcc::TxnKind::Payment,
        tpcc::TxnKind::OrderStatus,
        tpcc::TxnKind::Delivery,
        tpcc::TxnKind::StockLevel,
    ] {
        tpcc_driver.run(&mut rec, kind).expect("recorded");
    }
    let mut ycsb_driver = YcsbDriver::new(scales.ycsb.clone(), SEED);
    for _ in 0..12 {
        ycsb_driver.run(&mut rec).expect("recorded");
    }
    // one of each statement shape is enough: the drivers repeat themselves
    let mut seen = std::collections::HashSet::new();
    rec.log
        .into_iter()
        .filter(|s| {
            sqlparse::parse(s).map_or(true, |stmt| seen.insert(sqlparse::shape::shape_hash(&stmt)))
        })
        .collect()
}

/// One engine and one 2-worker cluster, each with `schema` created (and
/// distributed on the cluster) and loaded by `load`.
fn targets(
    schema: &[String],
    distribution: &[String],
    load: impl Fn(&mut dyn SqlRunner) -> PgResult<()>,
) -> (LocalRunner, ClusterRunner) {
    let mut local = LocalRunner { session: Engine::new_default().session().unwrap() };
    let cluster = Cluster::new(ClusterConfig { shard_count: 4, ..ClusterConfig::default() });
    for _ in 0..2 {
        cluster.add_worker().unwrap();
    }
    let mut dist = ClusterRunner { session: cluster.session().unwrap() };
    for s in schema {
        local.run(s).unwrap();
        dist.run(s).unwrap();
    }
    for s in distribution {
        dist.run(s).unwrap();
    }
    load(&mut local).unwrap();
    load(&mut dist).unwrap();
    (local, dist)
}

/// Run `MUTANTS` mutants of each statement of `bases` on both targets; the
/// mutants that panicked, by target.
fn panics(
    bases: &[String],
    (local, dist): &mut (LocalRunner, ClusterRunner),
    rng: &mut StdRng,
) -> Vec<String> {
    let mut out = Vec::new();
    for base in bases {
        for _ in 0..MUTANTS {
            let sql = mutate(base, rng);
            for (name, r) in [("engine", local as &mut dyn SqlRunner), ("cluster", dist)] {
                if catch_unwind(AssertUnwindSafe(|| r.run(&sql))).is_err() {
                    out.push(format!("{name}: {sql}"));
                }
                // a mutant may open a transaction block or fail inside one
                let _ = catch_unwind(AssertUnwindSafe(|| r.run("ROLLBACK")));
            }
        }
    }
    out
}

#[test]
fn no_mutated_workload_statement_panics() {
    let scales = SimScales::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let tpch_texts: Vec<String> =
        tpch::queries::SUPPORTED.iter().filter_map(|&n| tpch::queries::query(n)).collect();
    let mut warehouse =
        targets(&tpch::schema_statements(), &tpch::distribution_statements(), |r| {
            tpch::gen::load(r, scales.tpch_sf, SEED).map(|_| ())
        });
    let mut found = panics(&tpch_texts, &mut warehouse, &mut rng);
    let mut schema = tpcc::schema_statements();
    schema.push(ycsb::schema_statement());
    let mut distribution = tpcc::distribution_statements();
    distribution.push(ycsb::distribution_statement());
    let mut oltp = targets(&schema, &distribution, |r| {
        tpcc::load(r, &scales.tpcc, SEED)?;
        ycsb::load(r, &scales.ycsb, SEED)
    });
    found.extend(panics(&captured_oltp(&scales), &mut oltp, &mut rng));
    assert!(found.is_empty(), "statements that panicked:\n{}", found.join("\n"));
}
