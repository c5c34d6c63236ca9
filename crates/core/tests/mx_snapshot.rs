//! Differential wall for distributed snapshot isolation (§3.7.4 opt-in).
//!
//! The contract mirrors `executor_pipeline.rs`: the snapshot-token machinery
//! changes *which committed state a concurrent reader sees*, never what a
//! statement returns in a serial stream. Every test here runs the same
//! statement stream with `snapshot_isolation` on and off, at 1 and 8
//! executor threads, and demands:
//!
//! * identical rows, affected counts, and final table state across all four
//!   runs — without concurrency the mode is invisible;
//! * byte-identical trace fingerprints across thread counts *and* across
//!   modes (commit timestamps are never traced, so the token path adds zero
//!   wire or trace surface);
//! * under a frozen multi-node commit, an MX-routed pinned session reads the
//!   decided-but-unapplied half atomically with the mode on — through the
//!   worker's local-execution fast path — and sees the documented §3.7.4
//!   skew with it off, identically at 1 and 8 threads.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use pgmini::types::Datum;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

mod common;
use common::row_keys;

const SEED_ROWS: i64 = 16;

/// 2 workers, 8 shards, `t(k, v)` seeded — snapshot isolation on or off.
fn build(threads: usize, snapshot_isolation: bool, tracing: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    cfg.tracing = tracing;
    cfg.snapshot_isolation = snapshot_isolation;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..SEED_ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10)).unwrap();
    }
    c
}

type Op = (u8, i64, i64);

fn op_sql(op: &Op, index: usize) -> (String, bool /* ordered */, bool /* write */) {
    let (kind, a, b) = *op;
    let key = a.rem_euclid(2 * SEED_ROWS);
    match kind % 7 {
        0 => (format!("INSERT INTO t VALUES ({}, {b})", 100 + index as i64), false, true),
        1 => (format!("UPDATE t SET v = {b} WHERE k = {key}"), false, true),
        2 => (format!("DELETE FROM t WHERE k = {key}"), false, true),
        3 => (format!("SELECT v FROM t WHERE k = {key}"), false, false),
        4 => ("SELECT count(*), sum(v) FROM t".to_string(), false, false),
        5 => ("SELECT v, count(*) FROM t GROUP BY v".to_string(), false, false),
        _ => ("SELECT k, v FROM t ORDER BY k LIMIT 5".to_string(), true, false),
    }
}

/// Statement stream with transaction grouping (chunk `i` wrapped in
/// BEGIN/COMMIT when bit `i` of `txn_mask` is set) — in-transaction streams
/// are where the token must stay stable across statements.
fn stream(ops: &[Op], txn_mask: u32) -> Vec<(String, bool, bool)> {
    let mut out = Vec::new();
    for (chunk_idx, chunk) in ops.chunks(3).enumerate() {
        let txn = chunk.len() > 1 && txn_mask & (1 << (chunk_idx % 32)) != 0;
        if txn {
            out.push(("BEGIN".to_string(), false, false));
        }
        for (j, op) in chunk.iter().enumerate() {
            out.push(op_sql(op, chunk_idx * 3 + j));
        }
        if txn {
            out.push(("COMMIT".to_string(), false, false));
        }
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Out {
    Rows(Vec<String>),
    Affected(u64),
    Control,
}

struct RunResult {
    outcomes: Vec<Out>,
    final_state: Vec<String>,
    fingerprint: u64,
}

fn run_stream(
    threads: usize,
    snapshot_isolation: bool,
    stmts: &[(String, bool, bool)],
) -> Result<RunResult, TestCaseError> {
    let c = build(threads, snapshot_isolation, true);
    let mut s = c.session().unwrap();
    let mut outcomes = Vec::new();
    for (sql, ordered, write) in stmts {
        let r = s.execute(sql).map_err(|e| {
            TestCaseError::fail(format!("si={snapshot_isolation} threads={threads} `{sql}`: {e:?}"))
        })?;
        outcomes.push(match (sql.as_str(), write) {
            ("BEGIN" | "COMMIT", _) => Out::Control,
            (_, true) => Out::Affected(r.affected()),
            (_, false) => Out::Rows(row_keys(&r, *ordered)),
        });
    }
    let final_state = row_keys(&s.execute("SELECT k, v FROM t").unwrap(), false);
    let renders: Vec<String> = c.tracer.statements().iter().map(|t| t.render()).collect();
    Ok(RunResult {
        outcomes,
        final_state,
        fingerprint: citrus::trace::fingerprint_str(&renders.join("\n")),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The four-way differential: snapshot isolation on and off at 1 and 8
    /// threads agree on every result, and the trace bytes are identical
    /// across threads *and* modes — the token path is free until a commit
    /// actually races a read.
    #[test]
    fn snapshot_isolation_is_invisible_without_concurrency(
        ops in prop::collection::vec((0..7u8, 0..64i64, -50..50i64), 1..12),
        txn_mask in any::<u32>(),
    ) {
        let stmts = stream(&ops, txn_mask);
        let si1 = run_stream(1, true, &stmts)?;
        let si8 = run_stream(8, true, &stmts)?;
        let off1 = run_stream(1, false, &stmts)?;
        let off8 = run_stream(8, false, &stmts)?;

        prop_assert_eq!(&si1.outcomes, &off1.outcomes, "si vs off outcomes");
        prop_assert_eq!(&si1.outcomes, &si8.outcomes, "si thread-count outcomes");
        prop_assert_eq!(&off1.outcomes, &off8.outcomes, "off thread-count outcomes");
        prop_assert_eq!(&si1.final_state, &off1.final_state, "final table state");
        prop_assert_eq!(&si1.final_state, &si8.final_state, "si final state");

        // §3.6 determinism, and the mode leaves no trace residue at all
        prop_assert_eq!(si1.fingerprint, si8.fingerprint, "si trace thread-invariant");
        prop_assert_eq!(off1.fingerprint, off8.fingerprint, "off trace thread-invariant");
        prop_assert_eq!(si1.fingerprint, off1.fingerprint, "mode leaves no trace residue");
    }
}

/// Two keys of `pairs` on different nodes plus the node holding the second.
fn keys_on_two_nodes(c: &Arc<Cluster>) -> (i64, i64, NodeId) {
    let meta = c.metadata.read();
    let dt = meta.table("pairs").unwrap();
    for a in 0..16i64 {
        for b in 0..16i64 {
            let ba = meta.shard_index_for_value("pairs", &Datum::Int(a)).unwrap();
            let bb = meta.shard_index_for_value("pairs", &Datum::Int(b)).unwrap();
            let na = meta.shard(dt.shards[ba]).unwrap().placements[0];
            let nb = meta.shard(dt.shards[bb]).unwrap().placements[0];
            if na != nb {
                return (a, b, nb);
            }
        }
    }
    panic!("no two keys on different nodes");
}

/// The MX × token interaction, at both thread counts: a pinned worker
/// session reads a frozen multi-node transfer through local execution. With
/// the mode on, the still-prepared half on its own node is visible through
/// the commit-clock registry (the read is atomic); with it off, the routed
/// read documents the §3.7.4 skew — it sees the half-applied state.
#[test]
fn mx_routed_reads_respect_snapshot_tokens() {
    for threads in [1usize, 8] {
        for si in [true, false] {
            let mut cfg = ClusterConfig::default();
            cfg.shard_count = 8;
            cfg.executor_threads = threads;
            cfg.snapshot_isolation = si;
            let c = Cluster::new(cfg);
            for _ in 0..3 {
                c.add_worker().unwrap();
            }
            let mut s = c.session().unwrap();
            s.execute("CREATE TABLE pairs (k bigint PRIMARY KEY, v bigint)").unwrap();
            s.execute("SELECT create_distributed_table('pairs', 'k')").unwrap();
            for k in 0..16i64 {
                s.execute(&format!("INSERT INTO pairs VALUES ({k}, 0)")).unwrap();
            }
            let (ka, kb, victim) = keys_on_two_nodes(&c);
            let split = citrus::interleave::freeze_commit_prepared(&c, victim);
            s.execute("BEGIN").unwrap();
            s.execute(&format!("UPDATE pairs SET v = v + 5 WHERE k = {ka}")).unwrap();
            s.execute(&format!("UPDATE pairs SET v = v - 5 WHERE k = {kb}")).unwrap();
            s.execute("COMMIT").unwrap();
            assert_eq!(split.frozen_gids().len(), 1, "threads={threads} si={si}");

            // the MX reader: routed single-key reads run in the owning
            // worker's backend; the multi-shard sum escalates and fans out
            let mut mx = c.mx_session();
            let r = mx.execute(&format!("SELECT v FROM pairs WHERE k = {kb}")).unwrap();
            let expect_kb = if si { -5 } else { 0 };
            assert_eq!(
                r.rows()[0][0],
                Datum::Int(expect_kb),
                "threads={threads} si={si}: victim's half via MX routing"
            );
            let r = mx.execute("SELECT sum(v) FROM pairs").unwrap();
            let expect_sum = if si { 0 } else { 5 };
            assert_eq!(
                r.rows()[0][0],
                Datum::Int(expect_sum),
                "threads={threads} si={si}: fan-out sum inside the window"
            );
            assert!(mx.routed >= 1, "threads={threads} si={si}: reads must route");

            // release: both modes converge to the atomic final state
            split.release().unwrap();
            let r = mx.execute("SELECT sum(v) FROM pairs").unwrap();
            assert_eq!(r.rows()[0][0], Datum::Int(0), "threads={threads} si={si}");
            let r = mx.execute(&format!("SELECT v FROM pairs WHERE k = {kb}")).unwrap();
            assert_eq!(r.rows()[0][0], Datum::Int(-5), "threads={threads} si={si}");
        }
    }
}
