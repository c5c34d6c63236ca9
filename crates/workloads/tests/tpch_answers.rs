//! The 18 supported TPC-H answers on one pgmini engine, pinned as digests.
//!
//! A planner change that reorders joins or swaps hash-join sides may change
//! the order rows are produced in and the order floating-point sums add up
//! in, never the answer. Each query is reduced to its row count, a hash of
//! its exact (non-float) cells taken over the sorted rows, and the sum of its
//! float cells, which must match within a relative tolerance.

use pgmini::engine::Engine;
use pgmini::types::{Datum, Row};
use workloads::runner::{LocalRunner, SqlRunner};
use workloads::tpch;

const SF: f64 = 0.01;
const SEED: u64 = 21;

/// (query, rows, hash of the exact cells, sum of the float cells)
const PINNED: [(u32, usize, u64, f64); 18] = [
    (1, 6, 0x1a242108f916f52c, 246492926.0168882),
    (3, 10, 0x9ac69d9eda0be2ac, 91562.0468),
    (4, 5, 0xdc7c5916160d840a, 0.0),
    (5, 5, 0x477b89ba168898db, 78546.6432),
    (6, 1, 0xaf63c74c8601c8dd, 94082.78170000008),
    (7, 4, 0x4cdb12aacb83b1f1, 87383.3911),
    (8, 2, 0x08547e07b5084555, 3991.0879652167373),
    (9, 96, 0x9d537707591801b6, -5115753.477899999),
    (10, 20, 0x37f08dce888a8169, 239250.82800000004),
    (11, 378, 0xd51691c8efe537f3, 1037248705.0100011),
    (12, 2, 0xfbeba3d6435ae020, 0.0),
    (14, 1, 0xaf63c74c8601c8dd, 16.22326259988424),
    (15, 1, 0xd81f05f3103aebe7, 42680.0911),
    (16, 50, 0xf6d2c3618f037c07, 0.0),
    (18, 1, 0x3116d7711a6ae8d6, 353931.9276),
    (19, 1, 0xaf63c74c8601c8dd, 426396.4004999995),
    (21, 7, 0x2c01fcb9602bea12, 0.0),
    (22, 0, 0xcbf29ce484222325, 0.0),
];

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// (rows, exact-cell hash, float sum) of one answer.
fn digest(rows: &[Row]) -> (usize, u64, f64) {
    let mut exact: Vec<String> = Vec::new();
    let mut sum = 0.0;
    for row in rows {
        let mut cells = String::new();
        for d in row {
            match d {
                Datum::Float(f) => sum += f,
                other => cells += &format!("{other:?}|"),
            }
        }
        exact.push(cells);
    }
    exact.sort();
    let hash = exact.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| fnv(fnv(h, r.as_bytes()), b"\n"));
    (rows.len(), hash, sum)
}

#[test]
fn tpch_answers_match_their_pinned_digests() {
    let mut r = LocalRunner { session: Engine::new_default().session().unwrap() };
    for s in tpch::schema_statements() {
        r.run(&s).unwrap();
    }
    tpch::gen::load(&mut r, SF, SEED).unwrap();
    let mut got = Vec::new();
    for n in tpch::queries::SUPPORTED {
        let q = tpch::queries::query(n).unwrap();
        let rows = r.run(&q).unwrap_or_else(|e| panic!("q{n}: {e}")).into_rows();
        got.push((n, digest(&rows)));
    }
    let table: Vec<String> = got
        .iter()
        .map(|(n, (rows, hash, sum))| format!("    ({n}, {rows}, {hash:#018x}, {sum:?}),"))
        .collect();
    let table = table.join("\n");
    for ((n, (rows, hash, sum)), (pn, prows, phash, psum)) in got.iter().zip(PINNED) {
        assert_eq!(*n, pn);
        assert_eq!((*rows, *hash), (prows, phash), "q{n}; this run's digests:\n{table}");
        let tolerance = 1e-6 * psum.abs().max(1.0);
        assert!((sum - psum).abs() <= tolerance, "q{n}: {sum} vs {psum}; digests:\n{table}");
    }
}
