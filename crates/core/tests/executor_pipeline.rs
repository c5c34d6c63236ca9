//! Differential wall for the two executor fast paths: pipelined statement
//! batching and local execution (the worker half of MX mode).
//!
//! The contract: both fast paths change *where wire time is spent*, never
//! what a statement returns. Every test here runs the same statement stream
//! with the fast paths on (the default) and force-disabled (the legacy
//! one-RTT-per-task model), at 1 and 8 executor threads, and demands:
//!
//! * identical rows, affected counts, and final table state across all four
//!   runs;
//! * identical virtual costs and byte-identical trace fingerprints across
//!   thread counts *within* each mode (§3.6 determinism);
//! * strictly lower virtual cost in pipelined mode for multi-statement
//!   remote transactions — so force-disabling the fast path into divergence
//!   makes this suite fail, not silently pass;
//! * clean per-statement fallback when a fault plan errors or crashes a
//!   node mid-batch;
//! * the protocol's shape in exact wire-round counts (`Metrics::wire_rounds`,
//!   never timings): one round per protocol step pipelined, one per message
//!   with pipelining off.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use netsim::fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use pgmini::cost::{CONNECT_MS, NET_RTT_MS};
use pgmini::error::ErrorCode;
use pgmini::session::QueryResult;
use pgmini::types::Datum;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::Ordering;
use std::sync::Arc;

mod common;
use common::row_keys;

const SEED_ROWS: i64 = 16;

/// 2 workers, 8 shards, `t(k, v)` seeded — with the fast paths on or off.
fn build(threads: usize, fast: bool, tracing: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    cfg.tracing = tracing;
    cfg.pipeline = fast;
    cfg.local_execution = fast;
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

/// Statement stream with transaction grouping: ops are chunked in threes and
/// chunk `i` is wrapped in BEGIN/COMMIT when bit `i` of `txn_mask` is set —
/// multi-statement transactions are where exchange-riding coalescing lives.
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

/// One full run of a statement stream: per-statement outcomes, the summed
/// virtual elapsed time, the final table state, and the trace fingerprint.
struct RunResult {
    outcomes: Vec<Out>,
    elapsed_ms: f64,
    final_state: Vec<String>,
    fingerprint: u64,
}

fn run_stream(
    threads: usize,
    fast: bool,
    stmts: &[(String, bool, bool)],
) -> Result<RunResult, TestCaseError> {
    let c = build(threads, fast, true);
    let mut s = c.session().unwrap();
    let mut outcomes = Vec::new();
    let mut elapsed_ms = 0.0;
    for (sql, ordered, write) in stmts {
        let r = s.execute(sql).map_err(|e| {
            TestCaseError::fail(format!("fast={fast} threads={threads} `{sql}`: {e:?}"))
        })?;
        if sql == "BEGIN" {
            outcomes.push(Out::Control);
            continue; // last_dist_cost is stale until a statement runs
        }
        elapsed_ms += s.last_dist_cost().elapsed_ms;
        outcomes.push(match (sql.as_str(), write) {
            ("COMMIT", _) => Out::Control,
            (_, true) => Out::Affected(r.affected()),
            (_, false) => Out::Rows(row_keys(&r, *ordered)),
        });
    }
    let final_state = row_keys(&s.execute("SELECT k, v FROM t").unwrap(), false);
    let renders: Vec<String> = c.tracer.statements().iter().map(|t| t.render()).collect();
    Ok(RunResult {
        outcomes,
        elapsed_ms,
        final_state,
        fingerprint: citrus::trace::fingerprint_str(&renders.join("\n")),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The four-way differential: fast and legacy modes at 1 and 8 threads
    /// agree on every result; each mode is cost- and trace-deterministic
    /// across thread counts; and the fast paths never cost more.
    #[test]
    fn fast_paths_are_invisible_to_results(
        ops in prop::collection::vec((0..7u8, 0..64i64, -50..50i64), 1..12),
        txn_mask in any::<u32>(),
    ) {
        let stmts = stream(&ops, txn_mask);
        let fast1 = run_stream(1, true, &stmts)?;
        let fast8 = run_stream(8, true, &stmts)?;
        let legacy1 = run_stream(1, false, &stmts)?;
        let legacy8 = run_stream(8, false, &stmts)?;

        // results are mode- and thread-invisible
        prop_assert_eq!(&fast1.outcomes, &legacy1.outcomes, "fast vs legacy outcomes");
        prop_assert_eq!(&fast1.outcomes, &fast8.outcomes, "fast thread-count outcomes");
        prop_assert_eq!(&legacy1.outcomes, &legacy8.outcomes, "legacy thread-count outcomes");
        prop_assert_eq!(&fast1.final_state, &legacy1.final_state, "final table state");
        prop_assert_eq!(&fast1.final_state, &fast8.final_state, "fast final state");

        // §3.6 determinism: virtual cost and trace bytes ignore parallelism
        prop_assert_eq!(fast1.elapsed_ms, fast8.elapsed_ms, "fast cost thread-invariant");
        prop_assert_eq!(legacy1.elapsed_ms, legacy8.elapsed_ms, "legacy cost thread-invariant");
        prop_assert_eq!(fast1.fingerprint, fast8.fingerprint, "fast trace thread-invariant");
        prop_assert_eq!(legacy1.fingerprint, legacy8.fingerprint, "legacy trace thread-invariant");

        // batching can only remove wire time, never add it
        prop_assert!(
            fast1.elapsed_ms <= legacy1.elapsed_ms + 1e-9,
            "pipelined cost {} exceeds per-statement cost {}",
            fast1.elapsed_ms,
            legacy1.elapsed_ms
        );
    }
}

/// Distributed execute with bounded client re-submission for reads whose
/// executor retries were exhausted by the fault plan.
fn execute_with_resubmit(
    s: &mut citrus::cluster::ClientSession,
    sql: &str,
    write: bool,
) -> Result<QueryResult, TestCaseError> {
    let mut last = None;
    for _ in 0..12 {
        match s.execute(sql) {
            Ok(r) => return Ok(r),
            Err(e) if !write && e.code == ErrorCode::ConnectionFailure => last = Some(e),
            Err(e) => return Err(TestCaseError::fail(format!("`{sql}` failed: {e:?}"))),
        }
    }
    Err(TestCaseError::fail(format!("`{sql}` still failing after 12 attempts: {last:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded fault plan (read errors absorbed by executor retries, latency
    /// everywhere): fault draws are keyed, not arrival-ordered, so both
    /// modes see the same failures and still agree on every result.
    #[test]
    fn fault_plans_do_not_open_divergence(
        seed in any::<u64>(),
        ops in prop::collection::vec((0..7u8, 0..64i64, -50..50i64), 1..10),
    ) {
        let plan = || {
            FaultPlan::new()
                .with(
                    FaultRule::new(FaultOp::Statement, FaultKind::Error)
                        .with_tag("select")
                        .always()
                        .with_probability(0.2),
                )
                .with(
                    FaultRule::new(FaultOp::Statement, FaultKind::Latency(2.0))
                        .always()
                        .with_probability(0.25),
                )
        };
        let mut results = Vec::new();
        for fast in [true, false] {
            let c = build(2, fast, false);
            c.install_faults(plan(), seed);
            let mut s = c.session().unwrap();
            let mut outcomes = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let (sql, ordered, write) = op_sql(op, i);
                let r = execute_with_resubmit(&mut s, &sql, write)?;
                outcomes.push(if write {
                    Out::Affected(r.affected())
                } else {
                    Out::Rows(row_keys(&r, ordered))
                });
            }
            let fin = row_keys(&execute_with_resubmit(&mut s, "SELECT k, v FROM t", false)?, false);
            results.push((outcomes, fin));
        }
        prop_assert_eq!(&results[0].0, &results[1].0, "outcomes under faults");
        prop_assert_eq!(&results[0].1, &results[1].1, "final state under faults");
    }
}

/// The force-disable detector: a multi-statement single-shard transaction
/// and a multi-shard scan must be strictly cheaper pipelined than with the
/// legacy one-RTT-per-statement wire model, and their trace shapes must
/// differ (wire= and batch spans). If someone turns the fast path off — or
/// breaks its accounting so it silently stops coalescing — this fails.
#[test]
fn pipelining_strictly_beats_per_statement_wire_cost() {
    let txn: Vec<(String, bool, bool)> = vec![
        ("BEGIN".into(), false, false),
        ("SELECT v FROM t WHERE k = 1".into(), false, false),
        ("UPDATE t SET v = v + 1 WHERE k = 1".into(), false, true),
        ("SELECT v FROM t WHERE k = 1".into(), false, false),
        ("UPDATE t SET v = v + 1 WHERE k = 1".into(), false, true),
        ("COMMIT".into(), false, false),
        // multi-shard: 8 shard tasks collapse to one exchange per worker
        ("SELECT count(*), sum(v) FROM t".into(), false, false),
    ];
    let fast = run_stream(1, true, &txn).unwrap();
    let legacy = run_stream(1, false, &txn).unwrap();
    assert_eq!(fast.outcomes, legacy.outcomes);
    assert!(
        fast.elapsed_ms < legacy.elapsed_ms,
        "pipelined cost {:.3}ms must be strictly below per-statement cost {:.3}ms",
        fast.elapsed_ms,
        legacy.elapsed_ms
    );
    assert_ne!(
        fast.fingerprint, legacy.fingerprint,
        "pipelined traces must carry the wire=/batch evidence"
    );
}

/// Mid-batch statement error inside a pipelined transaction: the statement
/// fails cleanly, ROLLBACK discards the transaction's writes, and the
/// session (its exchange re-synced by the per-statement fallback) keeps
/// working — identically in both wire modes.
#[test]
fn mid_batch_error_falls_back_cleanly() {
    for fast in [true, false] {
        let c = build(1, fast, false);
        let mut s = c.session().unwrap();
        // one-shot, pinned to the shard holding k=1: the in-transaction read
        // of that shard dies mid-batch (scoping keeps the shot off the
        // transaction-id assignment RPC, which is also a tagged select)
        let shard_scope = {
            let meta = c.metadata.read();
            let b = meta.shard_index_for_value("t", &Datum::Int(1)).unwrap();
            format!("s{}", meta.table("t").unwrap().shards[b].0)
        };
        let inj = c.install_faults(
            FaultPlan::new().with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .with_tag("select")
                    .scoped_to(&shard_scope),
            ),
            0,
        );
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = v + 100 WHERE k = 1").unwrap();
        let err = s.execute("SELECT v FROM t WHERE k = 1").unwrap_err();
        assert_eq!(err.code, ErrorCode::ConnectionFailure, "fast={fast}");
        assert_eq!(inj.fired(), 1, "fast={fast}");
        s.execute("ROLLBACK").unwrap();

        // the aborted transaction left nothing behind
        let r = s.execute("SELECT v FROM t WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(10), "fast={fast}: update must be rolled back");

        // and the session still pipelines fresh transactions
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = v + 1 WHERE k = 1").unwrap();
        s.execute("COMMIT").unwrap();
        let r = s.execute("SELECT v FROM t WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(11), "fast={fast}: post-fault txn commits");
    }
}

/// Mid-batch node crash on a replicated read: the executor fails over to a
/// surviving placement inside the batch and answers identically in both
/// wire modes.
#[test]
fn mid_batch_crash_fails_over_identically() {
    let mut answers = Vec::new();
    for fast in [true, false] {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 8;
        cfg.executor_threads = 1;
        cfg.pipeline = fast;
        cfg.local_execution = fast;
        let c = Cluster::new(cfg);
        for _ in 0..2 {
            c.add_worker().unwrap();
        }
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
        s.execute("SELECT create_reference_table('r')").unwrap();
        s.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
        let inj = c.install_faults(
            FaultPlan::new().with(
                FaultRule::new(FaultOp::Statement, FaultKind::Crash)
                    .on_node(0)
                    .with_tag("select"),
            ),
            0,
        );
        let r = s.execute("SELECT count(*) FROM r").unwrap();
        assert_eq!(inj.fired(), 1, "fast={fast}");
        assert!(!c.node(NodeId(0)).unwrap().is_active(), "fast={fast}: replica crashed");
        answers.push(row_keys(&r, false));
    }
    assert_eq!(answers[0], answers[1], "failover rows agree across wire modes");
}

/// The worker holding the shard for `t.k = key`.
fn node_of_key(c: &Arc<Cluster>, key: i64) -> NodeId {
    let meta = c.metadata.read();
    let b = meta.shard_index_for_value("t", &Datum::Int(key)).unwrap();
    let dt = meta.table("t").unwrap();
    meta.shard(dt.shards[b]).unwrap().placements[0]
}

/// Two seeded keys on worker 1 and one on worker 2.
fn keys_by_worker(c: &Arc<Cluster>) -> (i64, i64, i64) {
    let on = |n: u32| (0..SEED_ROWS).filter(move |k| node_of_key(c, *k) == NodeId(n));
    let mut w1 = on(1);
    (w1.next().unwrap(), w1.next().unwrap(), on(2).next().unwrap())
}

/// Run `stmts` on a fresh session and return the wire rounds each one paid.
fn rounds_per_statement(c: &Arc<Cluster>, stmts: &[String]) -> Vec<u64> {
    let mut s = c.session().unwrap();
    stmts
        .iter()
        .map(|sql| {
            let before = c.metrics.wire_rounds.load(Ordering::Relaxed);
            s.execute(sql).unwrap_or_else(|e| panic!("`{sql}`: {e:?}"));
            c.metrics.wire_rounds.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// The three transaction shapes the wire-round contract is stated on: two
/// updates on two workers (2PC), two on one worker (delegated commit), and
/// one in-transaction update whose tasks land on both workers.
fn wire_shapes(c: &Arc<Cluster>) -> [Vec<String>; 3] {
    let (k1, k1b, k2) = keys_by_worker(c);
    let upd = |k: i64| format!("UPDATE t SET v = v + 1 WHERE k = {k}");
    let txn = |body: Vec<String>| {
        let mut v = vec!["BEGIN".to_string()];
        v.extend(body);
        v.push("COMMIT".to_string());
        v
    };
    [
        txn(vec![upd(k1), upd(k2)]),
        txn(vec![upd(k1), upd(k1b)]),
        txn(vec!["UPDATE t SET v = v + 1".to_string()]),
    ]
}

/// One wire round per protocol step. Pipelined, BEGIN and the transaction-id
/// assignment ride the statement that opens a worker's block, a statement is
/// one round however many workers its tasks reach, and each commit phase is
/// one round: a two-worker transaction pays 4 round trips and a delegated
/// one 2. With pipelining off every message pays: 10 and 5.
#[test]
fn a_protocol_step_is_one_wire_round() {
    let fast = build(1, true, false);
    let [two_pc, delegated, fan_out] = wire_shapes(&fast);
    assert_eq!(rounds_per_statement(&fast, &two_pc), [0, 1, 1, 2], "2PC, pipelined");
    assert_eq!(rounds_per_statement(&fast, &delegated), [0, 1, 0, 1], "delegated, pipelined");
    assert_eq!(rounds_per_statement(&fast, &fan_out), [0, 1, 2], "multi-worker update, pipelined");
    assert_eq!(fast.metrics.twopc_commits.load(Ordering::Relaxed), 2);
    assert_eq!(fast.metrics.delegated_commits.load(Ordering::Relaxed), 1);

    // per message: BEGIN + assignment + UPDATE per new participant, one
    // PREPARE and one COMMIT PREPARED each; 8 shard tasks behind 2 BEGINs
    // and 2 assignments
    let legacy = build(1, false, false);
    assert_eq!(rounds_per_statement(&legacy, &two_pc), [0, 3, 3, 4], "2PC, per message");
    assert_eq!(rounds_per_statement(&legacy, &delegated), [0, 3, 1, 1], "delegated, per message");
    assert_eq!(rounds_per_statement(&legacy, &fan_out), [0, 12, 4], "multi-worker update, per message");
}

/// The round shapes change only where wall-clock wire time is spent: on the
/// three contract shapes both wire modes return the same results and final
/// state, and each mode's virtual cost and trace are thread-invariant.
#[test]
fn wire_rounds_are_invisible_to_results_costs_and_traces() {
    for shape in wire_shapes(&build(1, true, false)) {
        let stmts: Vec<(String, bool, bool)> =
            shape.into_iter().map(|sql| (sql, false, true)).collect();
        let fast1 = run_stream(1, true, &stmts).unwrap();
        let fast8 = run_stream(8, true, &stmts).unwrap();
        let legacy1 = run_stream(1, false, &stmts).unwrap();
        let legacy8 = run_stream(8, false, &stmts).unwrap();
        assert_eq!(fast1.outcomes, legacy1.outcomes);
        assert_eq!(fast1.final_state, legacy1.final_state);
        assert_eq!(fast1.final_state, fast8.final_state);
        assert_eq!(legacy1.final_state, legacy8.final_state);
        assert_eq!(fast1.elapsed_ms, fast8.elapsed_ms);
        assert_eq!(legacy1.elapsed_ms, legacy8.elapsed_ms);
        assert_eq!(fast1.fingerprint, fast8.fingerprint);
        assert_eq!(legacy1.fingerprint, legacy8.fingerprint);
        assert!(fast1.elapsed_ms < legacy1.elapsed_ms);
    }
}

/// Faults on the second participant's PREPARE TRANSACTION — the message
/// that now rides the first one's round. A lost request aborts the whole
/// transaction (first participant rolled back from prepared, nothing left
/// behind); a crash after the remote PREPARE leaves one orphan that recovery
/// rolls back. Same outcome in both wire modes, and the abort is one round.
#[test]
fn a_fault_on_the_riding_prepare_aborts_and_recovers_as_before() {
    for fast in [true, false] {
        for crash in [false, true] {
            let c = build(1, fast, false);
            let (k1, _, k2) = keys_by_worker(&c);
            let mut s = c.session().unwrap();
            let rule = if crash {
                FaultRule::crash_after(2, "prepare_transaction")
            } else {
                FaultRule::stmt_error(2, "prepare_transaction")
            };
            let inj = c.install_faults(FaultPlan::new().with(rule), 0);
            s.execute("BEGIN").unwrap();
            s.execute(&format!("UPDATE t SET v = 777 WHERE k = {k1}")).unwrap();
            s.execute(&format!("UPDATE t SET v = 777 WHERE k = {k2}")).unwrap();
            let before = c.metrics.wire_rounds.load(Ordering::Relaxed);
            let err = s.execute("COMMIT").unwrap_err();
            let paid = c.metrics.wire_rounds.load(Ordering::Relaxed) - before;
            let ctx = format!("fast={fast} crash={crash}");
            assert_eq!(err.code, ErrorCode::ConnectionFailure, "{ctx}");
            assert_eq!(inj.fired(), 1, "{ctx}");
            // first-phase round (PREPARE to worker 1, plus worker 2's when it
            // got out), then the abort round: ROLLBACK to worker 2 — which a
            // crashed node never receives — and ROLLBACK PREPARED to worker 1
            assert_eq!(paid, if fast { 2 } else { 3 }, "{ctx}");

            let prepared =
                |n: u32| c.node(NodeId(n)).unwrap().engine().txns.prepared_gids().len();
            assert_eq!(prepared(1), 0, "{ctx}: first participant rolled back from prepared");
            assert_eq!(prepared(2), usize::from(crash), "{ctx}");
            if crash {
                citrus::ha::heal_node(&c, NodeId(2)).unwrap();
                let stats = citrus::recovery::recover_once(&c).unwrap();
                assert_eq!((stats.rolled_back, stats.committed), (1, 0), "{ctx}");
                assert_eq!(prepared(2), 0, "{ctx}");
            }
            let r = s.execute(&format!("SELECT v FROM t WHERE k IN ({k1}, {k2})")).unwrap();
            let mut vs: Vec<i64> = r.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
            vs.sort();
            let mut seeded = [k1 * 10, k2 * 10];
            seeded.sort();
            assert_eq!(vs, seeded, "{ctx}: neither write survived");

            // the session keeps committing two-worker transactions
            s.execute("BEGIN").unwrap();
            s.execute(&format!("UPDATE t SET v = 1 WHERE k = {k1}")).unwrap();
            s.execute(&format!("UPDATE t SET v = 1 WHERE k = {k2}")).unwrap();
            s.execute("COMMIT").unwrap();
            assert_eq!(c.metrics.twopc_commits.load(Ordering::Relaxed), 1, "{ctx}");
        }
    }
}

/// One in-transaction statement whose tasks split between the client's own
/// backend and a remote worker: the local half runs with no connection, the
/// remote half is one wire round on one connection that the next statement
/// to that shard group rides, and the local write forces 2PC at commit.
#[test]
fn a_statement_mixing_local_and_remote_writes_is_one_round() {
    for threads in [1, 8] {
        let c = build(threads, true, true);
        c.enable_mx();
        let (_, _, k2) = keys_by_worker(&c);
        let mut s = c.session_on(NodeId(1)).unwrap();
        let rounds = |c: &Arc<Cluster>| c.metrics.wire_rounds.load(Ordering::Relaxed);
        let conns_before = c.connections_to(NodeId(2));
        s.execute("BEGIN").unwrap();

        c.tracer.clear();
        let before = rounds(&c);
        let r = s.execute("UPDATE t SET v = v + 1").unwrap();
        assert_eq!(r.affected(), SEED_ROWS as u64);
        assert_eq!(rounds(&c) - before, 1, "BEGIN and four tasks ride one round");
        let cost = s.last_dist_cost();
        let nodes: Vec<u32> = cost.per_node.keys().map(|n| n.0).collect();
        assert_eq!(nodes, [1, 2]);
        // BEGIN's round trip plus the statement's, and one connect
        assert_eq!(cost.net_ms, CONNECT_MS + 2.0 * NET_RTT_MS);
        let trace = c.tracer.last_statement().expect("statement trace recorded");
        assert_eq!(trace.field("wire"), Some("exchange"));
        let where_ran: Vec<(&str, bool)> = trace
            .find_all("task")
            .iter()
            .map(|t| (t.field("node").unwrap(), t.field("exec") == Some("local")))
            .collect();
        let local = where_ran.iter().filter(|(n, l)| *n == "worker-1" && *l).count();
        let remote = where_ran.iter().filter(|(n, l)| *n == "worker-2" && !*l).count();
        assert_eq!((local, remote), (4, 4), "{}", trace.render());
        let batch = trace.find("batch").expect("remote tasks form one batch");
        assert_eq!((batch.field("exchanges"), batch.field("coalesced")), (Some("1"), Some("3")));

        // affinity: the shard group is bound to the open connection, whose
        // exchange the next statement rides
        let before = rounds(&c);
        s.execute(&format!("UPDATE t SET v = v + 1 WHERE k = {k2}")).unwrap();
        assert_eq!(rounds(&c) - before, 0, "same worker, same exchange");
        assert_eq!(
            c.connections_to(NodeId(2)) - conns_before,
            1,
            "one connection serves the transaction"
        );

        // local_writes: this node is a participant, so no delegation
        s.execute("COMMIT").unwrap();
        assert_eq!(c.metrics.twopc_commits.load(Ordering::Relaxed), 1);
        assert_eq!(c.metrics.delegated_commits.load(Ordering::Relaxed), 0);
        let r = s.execute(&format!("SELECT v FROM t WHERE k = {k2}")).unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(k2 * 10 + 2));
    }
}

/// The MX half: a routed tenant transaction plans, executes, and commits on
/// the worker owning its placement — zero coordinator involvement, and the
/// worker's tasks run in the client backend via local execution.
#[test]
fn mx_sessions_stay_off_the_coordinator() {
    let c = build(2, true, false);
    let mut mx = c.mx_session();
    mx.execute("BEGIN").unwrap();
    for sql in [
        "SELECT v FROM t WHERE k = 1",
        "UPDATE t SET v = v + 1 WHERE k = 1",
    ] {
        mx.execute(sql).unwrap();
        let d = mx.last_dist_cost();
        assert!(
            !d.per_node.contains_key(&NodeId(0)),
            "`{sql}` booked work on the coordinator: {:?}",
            d.per_node
        );
    }
    mx.execute("COMMIT").unwrap();
    assert_eq!(mx.escalated, 0, "nothing escalated");
    assert!(mx.routed >= 2, "statements routed to the owning worker");
    assert_ne!(mx.last_node(), NodeId(0), "transaction pinned to a worker");
    assert!(
        c.metrics.local_exec_tasks.load(Ordering::Relaxed) > 0,
        "routed tasks must run in the worker backend via local execution"
    );
    // escalation still reaches the coordinator when the shape needs it
    mx.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(mx.escalated, 1);
    assert_eq!(mx.last_node(), NodeId(0));
}
