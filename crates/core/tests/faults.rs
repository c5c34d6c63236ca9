//! Fault-injection tests: deterministic failure schedules driven through the
//! cluster fabric (netsim::fault), exercising the adaptive executor's
//! retry/backoff path and 2PC recovery's handling of in-doubt transactions.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::NodeId;
use netsim::fault::{FaultKind, FaultOp, FaultPhase, FaultPlan, FaultRule};
use pgmini::cost::{CONNECT_MS, NET_RTT_MS};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use std::sync::Arc;

fn cluster_with(workers: u32) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

/// `t(k bigint, v bigint)` distributed on `k`, rows k = 0..40 with v = 1.
fn dist_table_cluster(workers: u32) -> Arc<Cluster> {
    let c = cluster_with(workers);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    c
}

/// The worker holding the shard for `t.k = key`.
fn node_of_key(c: &Arc<Cluster>, key: i64) -> NodeId {
    let meta = c.metadata.read();
    let b = meta.shard_index_for_value("t", &Datum::Int(key)).unwrap();
    let dt = meta.table("t").unwrap();
    meta.shard(dt.shards[b]).unwrap().placements[0]
}

/// A key from 0..40 whose shard lives on `node`.
fn key_on_node(c: &Arc<Cluster>, node: NodeId) -> i64 {
    (0..40).find(|k| node_of_key(c, *k) == node).expect("some key maps to the node")
}

fn v_of(s: &mut citrus::cluster::ClientSession, k: i64) -> i64 {
    let r = s.execute(&format!("SELECT v FROM t WHERE k = {k}")).unwrap();
    r.rows()[0][0].as_i64().unwrap()
}

fn commit_records(s: &mut citrus::cluster::ClientSession) -> i64 {
    let r = s.execute("SELECT count(*) FROM pg_dist_transaction").unwrap();
    r.rows()[0][0].as_i64().unwrap()
}

// ---------------- 2PC in-doubt windows ----------------

/// The coordinator's COMMIT PREPARED to one worker is lost after the commit
/// record became durable: the prepared transaction is in doubt, and
/// `recover_once` must COMMIT it (record present) on every placement.
#[test]
fn lost_commit_prepared_reply_recovers_to_commit() {
    let c = dist_table_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let mut s = c.session().unwrap();

    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(w1.0, "commit_prepared")),
        0,
    );
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 100 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 100 WHERE k = {k2}")).unwrap();
    // the commit itself succeeds: the second phase is best-effort
    s.execute("COMMIT").unwrap();
    assert_eq!(inj.fired(), 1, "exactly the scripted fault fired");

    // w1 is in doubt: prepared transaction parked, commit record retained
    assert_eq!(c.node(w1).unwrap().engine().txns.prepared_gids().len(), 1);
    assert!(c.node(w2).unwrap().engine().txns.prepared_gids().is_empty());
    assert_eq!(commit_records(&mut s), 1);

    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.committed, 1, "commit record present: recovery commits");
    assert_eq!(stats.rolled_back, 0);
    assert!(c.node(w1).unwrap().engine().txns.prepared_gids().is_empty());
    assert_eq!(commit_records(&mut s), 0, "record deleted once settled");

    // atomicity: both placements show the committed value
    assert_eq!(v_of(&mut s, k1), 100);
    assert_eq!(v_of(&mut s, k2), 100);
}

/// A worker crashes between PREPARE and COMMIT PREPARED — after its PREPARE
/// succeeded but before the coordinator wrote a commit record. The commit
/// fails, and once the worker is back `recover_once` must ROLL BACK the
/// orphaned prepared transaction (no record), leaving no
/// committed-on-one/aborted-on-another outcome.
#[test]
fn crash_between_prepare_and_commit_prepared_rolls_back() {
    let c = dist_table_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let mut s = c.session().unwrap();

    // w1 sorts first in the prepare round, so its PREPARE executes, the
    // node dies, and the coordinator never reaches the commit-record write
    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::crash_after(w1.0, "prepare_transaction")),
        0,
    );
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 200 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 200 WHERE k = {k2}")).unwrap();
    let err = s.execute("COMMIT").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(inj.fired(), 1);
    assert!(!c.node(w1).unwrap().is_active(), "fault crashed the worker");

    // the prepared transaction is parked on the dead worker; no record exists
    assert_eq!(c.node(w1).unwrap().engine().txns.prepared_gids().len(), 1);
    assert_eq!(commit_records(&mut s), 0);

    // recovery cannot reach the dead node yet
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.rolled_back, 0);
    assert_eq!(stats.unreachable_nodes, 1);

    // heal the partition (engine state intact) and recover for real
    citrus::ha::heal_node(&c, w1).unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.rolled_back, 1, "no commit record: recovery aborts");
    assert!(c.node(w1).unwrap().engine().txns.prepared_gids().is_empty());

    // atomicity: neither placement kept the aborted write
    assert_eq!(v_of(&mut s, k1), 1);
    assert_eq!(v_of(&mut s, k2), 1);
}

/// The commit record's lifecycle with a participant held prepared: the
/// record outlives a pass that cannot reach the prepared worker, and the
/// pass after the heal commits the gid and sweeps the record.
#[test]
fn commit_record_outlives_an_unreachable_prepared_participant() {
    let c = dist_table_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let mut s = c.session().unwrap();
    let split = citrus::interleave::freeze_commit_prepared(&c, w1);
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 300 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 300 WHERE k = {k2}")).unwrap();
    s.execute("COMMIT").unwrap();
    let gids = split.frozen_gids();
    assert_eq!(gids.len(), 1);
    c.clear_faults();
    let (_, number) = citrus::extension::parse_gid(&gids[0]).unwrap();
    let r = s.execute("SELECT number FROM pg_dist_transaction").unwrap();
    assert_eq!(r.rows(), [vec![Datum::Int(number as i64)]], "one record names the transaction");

    citrus::ha::crash_node(&c, w1).unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!((stats.committed, stats.unreachable_nodes, stats.swept), (0, 1, 0));
    assert_eq!(commit_records(&mut s), 1, "the prepared half may still need it");

    citrus::ha::heal_node(&c, w1).unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!((stats.committed, stats.unreachable_nodes, stats.swept), (1, 0, 1));
    assert_eq!(commit_records(&mut s), 0);
    assert_eq!(v_of(&mut s, k1), 300);
    assert_eq!(v_of(&mut s, k2), 300);
}

/// A healthy 2PC writes one commit record whatever its participant count,
/// in one local statement, and keeps it: one recovery pass removes it.
#[test]
fn healthy_two_pc_leaves_one_record_until_a_pass() {
    let c = traced_dist_cluster(2);
    let mut s = c.session().unwrap();
    let k2 = key_on_node(&c, NodeId(2));
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = 5").unwrap();
    s.execute(&format!("UPDATE t SET v = 6 WHERE k = {k2}")).unwrap();
    s.execute("COMMIT").unwrap();
    let trace = c.tracer.last_statement().expect("commit traced");
    assert!(trace.find_all("2pc.prepare").len() >= 2, "{}", trace.render());
    assert_eq!(trace.find_all("2pc.record").len(), 1, "{}", trace.render());
    assert_eq!(commit_records(&mut s), 1);

    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!((stats.committed, stats.rolled_back, stats.swept), (0, 0, 1));
    assert_eq!(commit_records(&mut s), 0);
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats, Default::default(), "nothing left to sweep");
}

/// A connection that died under a commit-protocol message is a broken
/// socket and must not go back to the session's pool: after the worker is
/// promoted, the same session's next write to it succeeds first try (writes
/// are never retried, so a pooled dead connection would fail it once).
#[test]
fn connection_lost_in_the_commit_protocol_is_not_pooled() {
    // (message that loses its reply to a crash, transaction that sends it;
    // K1 / K2 stand for a key on worker 1 / worker 2)
    let scenarios: [(&str, &[&str]); 3] = [
        // second phase of a two-worker 2PC
        (
            "commit_prepared",
            &["BEGIN", "UPDATE t SET v = 2 WHERE k = K1", "UPDATE t SET v = 2 WHERE k = K2", "COMMIT"],
        ),
        // COMMIT of a read-only participant beside a delegated write
        (
            "commit",
            &["BEGIN", "SELECT v FROM t WHERE k = K1", "UPDATE t SET v = 2 WHERE k = K2", "COMMIT"],
        ),
        // abort path
        ("rollback", &["BEGIN", "UPDATE t SET v = 2 WHERE k = K1", "ROLLBACK"]),
    ];
    for (tag, txn) in scenarios {
        let c = dist_table_cluster(2);
        let (w1, w2) = (NodeId(1), NodeId(2));
        let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
        let mut s = c.session().unwrap();
        let inj = c.install_faults(FaultPlan::new().with(FaultRule::crash_after(w1.0, tag)), 0);
        for template in txn {
            let sql = template.replace("K1", &k1.to_string()).replace("K2", &k2.to_string());
            s.execute(&sql).unwrap_or_else(|e| panic!("{tag}: `{sql}`: {e:?}"));
        }
        assert_eq!(inj.fired(), 1, "{tag}");
        citrus::ha::promote_standby(&c, w1).unwrap();
        s.execute(&format!("UPDATE t SET v = 3 WHERE k = {k1}"))
            .unwrap_or_else(|e| panic!("{tag}: first statement after the loss: {e:?}"));
        assert_eq!(v_of(&mut s, k1), 3, "{tag}");
    }
}

// ---------------- executor retry / backoff ----------------

/// A one-shot statement error on a read task is absorbed by a retry, with
/// the backoff charged to the virtual clock.
#[test]
fn read_task_retries_after_one_shot_stmt_error() {
    let c = dist_table_cluster(2);
    let mut s = c.session().unwrap();
    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(1, "select")),
        0,
    );
    let before = c.clock.now_micros();
    let r = s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(40), "the retried query is correct");
    assert_eq!(inj.fired(), 1);
    assert_eq!(c.task_retry_count(), 1);
    // one retry at the base backoff (10 ms on the virtual clock)
    assert_eq!(c.clock.now_micros() - before, 10_000);
}

/// A one-shot refused connection on a read is equally retryable.
#[test]
fn read_task_retries_after_refused_connect() {
    let c = dist_table_cluster(2);
    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::refuse_connect(1)),
        0,
    );
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(40));
    assert_eq!(inj.fired(), 1);
    assert_eq!(c.task_retry_count(), 1);
}

/// `after(n)`: the first n matching operations pass untouched, the n+1-th
/// fails — and still recovers via retry.
#[test]
fn one_shot_error_after_n_messages() {
    let c = dist_table_cluster(2);
    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(1, "select").after(2)),
        0,
    );
    let mut s = c.session().unwrap();
    for _ in 0..3 {
        let r = s.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(40));
    }
    assert_eq!(inj.fired(), 1);
    assert_eq!(c.task_retry_count(), 1);
}

/// Write tasks are never retried: a lost write request surfaces a clean
/// connection error and leaves no effect behind.
#[test]
fn write_task_failure_is_clean_and_not_retried() {
    let c = dist_table_cluster(2);
    let mut s = c.session().unwrap();
    let target = node_of_key(&c, 99);
    c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(target.0, "insert")),
        0,
    );
    let err = s.execute("INSERT INTO t VALUES (99, 7)").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(c.task_retry_count(), 0, "writes must not be re-attempted");
    // no duplicate / partial effect: the row does not exist
    let r = s.execute("SELECT count(*) FROM t WHERE k = 99").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(0));
    // and the next attempt (fault exhausted) succeeds exactly once
    s.execute("INSERT INTO t VALUES (99, 7)").unwrap();
    let r = s.execute("SELECT count(*) FROM t WHERE k = 99").unwrap();
    assert_eq!(r.rows()[0][0], Datum::Int(1));
}

/// When the node serving a replicated (reference) shard dies mid-read, the
/// executor retries on a surviving placement instead of erroring. Reference
/// shards live on every node and reads prefer the local replica, so the
/// fault crashes that replica under the read's feet.
#[test]
fn reference_read_fails_over_to_surviving_placement() {
    let c = cluster_with(3);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();

    let before = s.execute("SELECT count(*) FROM r").unwrap();
    let inj = c.install_faults(
        FaultPlan::new().with(
            FaultRule::new(FaultOp::Statement, FaultKind::Crash)
                .on_node(0)
                .with_tag("select"),
        ),
        0,
    );
    let after = s.execute("SELECT count(*) FROM r").unwrap();
    assert_eq!(before.rows(), after.rows(), "failover answered identically");
    assert_eq!(inj.fired(), 1);
    assert!(c.task_retry_count() >= 1, "the dead placement cost a retry");
    assert!(!c.node(NodeId(0)).unwrap().is_active(), "local replica is down");

    c.clear_faults();
    citrus::ha::heal_node(&c, NodeId(0)).unwrap();
    let healed = s.execute("SELECT count(*) FROM r").unwrap();
    assert_eq!(before.rows(), healed.rows());
}

/// The same failover, pinned exactly: the failed local attempt is one retry,
/// the re-entered read path adds one more with its base backoff, the work is
/// booked on the surviving node only, and the task span names that node with
/// no `exec=local` — identically at 1 and 8 executor threads.
#[test]
fn local_replica_failover_books_one_task_on_the_survivor() {
    let run = |threads: usize| {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 8;
        cfg.executor_threads = threads;
        cfg.tracing = true;
        let c = Cluster::new(cfg);
        for _ in 0..3 {
            c.add_worker().unwrap();
        }
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
        s.execute("SELECT create_reference_table('r')").unwrap();
        s.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();
        c.install_faults(
            FaultPlan::new().with(
                FaultRule::new(FaultOp::Statement, FaultKind::Crash)
                    .on_node(0)
                    .with_tag("select"),
            ),
            0,
        );
        c.tracer.clear();
        let clock_before = c.clock.now_micros();
        let r = s.execute("SELECT count(*) FROM r").unwrap();
        assert_eq!(r.rows()[0][0], Datum::Int(3));
        let cost = s.last_dist_cost();
        let nodes: Vec<u32> = cost.per_node.keys().map(|n| n.0).collect();
        let trace = c.tracer.last_statement().expect("statement trace recorded");
        let tasks = trace.find_all("task");
        assert_eq!(tasks.len(), 1, "one task, one span:\n{}", trace.render());
        let task = tasks[0];
        assert_eq!(task.field("node"), Some("worker-1"));
        assert_eq!(task.field("retries"), Some("2"));
        assert_eq!(task.field("backoff_ms"), Some("10.000"));
        assert_eq!(task.field("exec"), None, "the task did not run locally");
        assert_eq!(trace.field("wire"), Some("exchange"));
        assert!(
            trace.render().contains(
                "task{index=0 node=worker-1 shards=s102008 retries=2 backoff_ms=10.000 \
                 service_ms=0.187}"
            ),
            "{}",
            trace.render()
        );
        assert_eq!(c.task_retry_count(), 2);
        // the coordinator books its own planning and merge; the failed local
        // attempt books nothing there, the task's work is on the survivor
        assert_eq!(nodes, [0, 1]);
        let coordinator = cost.per_node[&NodeId(0)];
        assert_eq!(
            (coordinator.io_ms, coordinator.pages_read, coordinator.rows_processed),
            (0.0, 0, 0),
            "work is booked on the surviving placement only"
        );
        // one connect, the retry's backoff, one statement round trip
        assert_eq!(cost.net_ms, CONNECT_MS + 10.0 + NET_RTT_MS);
        assert_eq!(c.clock.now_micros() - clock_before, 10_000, "backoff on the virtual clock");
        (trace.render(), format!("{:?}", cost.elapsed_ms))
    };
    assert_eq!(run(1), run(8), "trace and elapsed time are thread-invariant");
}

/// Hash shards are single-placement: when their node stays down, retries run
/// out and the failure surfaces as a clean connection error.
#[test]
fn unreplicated_read_surfaces_connection_failure() {
    let c = dist_table_cluster(2);
    let mut s = c.session().unwrap();
    citrus::ha::crash_node(&c, NodeId(1)).unwrap();
    let err = s.execute("SELECT count(*) FROM t").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(c.task_retry_count(), citrus::executor::TASK_RETRIES as u64);
}

/// `t` with no rows, and a session, on a cluster of `workers` (0 = every
/// shard on the coordinator, so every COPY batch runs locally).
fn empty_table(workers: u32) -> (Arc<Cluster>, citrus::cluster::ClientSession) {
    let c = cluster_with(workers);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    (c, s)
}

fn forty_rows() -> Vec<Vec<Datum>> {
    (0..40i64).map(|k| vec![Datum::Int(k), Datum::Int(1)]).collect()
}

fn row_count(s: &mut citrus::cluster::ClientSession) -> i64 {
    s.execute("SELECT count(*) FROM t").unwrap().rows()[0][0].as_i64().unwrap()
}

/// The COPY atomicity drill: a COPY is one write statement, so a fault at
/// any shard boundary leaves zero rows or all of them. Failing the k-th
/// `copy` message, before it runs or after it ran, leaves no rows for every
/// k, on two workers and on 0+1 where every batch is local. (A COPY that
/// autocommits each batch keeps the k-1 batches before the fault.)
#[test]
fn copy_fault_at_any_shard_boundary_leaves_no_rows() {
    for workers in [2, 0] {
        let (c, mut s) = empty_table(workers);
        let batches = {
            let meta = c.metadata.read();
            let mut buckets: Vec<usize> = (0..40)
                .map(|k| meta.shard_index_for_value("t", &Datum::Int(k)).unwrap())
                .collect();
            buckets.sort();
            buckets.dedup();
            buckets.len() as u64
        };
        for phase in [FaultPhase::Before, FaultPhase::After] {
            for k in 1..=batches {
                let inj = c.install_faults(
                    FaultPlan::new().with(
                        FaultRule::new(FaultOp::Statement, FaultKind::Error)
                            .with_tag("copy")
                            .at(phase)
                            .after(k - 1),
                    ),
                    0,
                );
                s.copy("t", &[], forty_rows()).unwrap_err();
                assert_eq!(inj.fired(), 1, "{workers} workers, {phase:?}, k = {k}");
                c.clear_faults();
                assert_eq!(row_count(&mut s), 0, "{workers} workers, {phase:?}, k = {k}");
            }
        }
        assert_eq!(s.copy("t", &[], forty_rows()).unwrap(), 40);
        assert_eq!(row_count(&mut s), 40, "{workers} workers: the unfaulted COPY loads all");
    }
}

/// A COPY over two workers commits through 2PC, so its in-doubt windows
/// settle like any write's: a participant that crashes after PREPARE leaves
/// no commit record and recovery rolls the COPY back everywhere; a lost
/// COMMIT PREPARED leaves the record and recovery commits the rest of it.
#[test]
fn copy_in_doubt_recovers_to_all_rows_or_none() {
    let (c, mut s) = empty_table(2);
    let w1 = NodeId(1);
    let crash = FaultRule::crash_after(w1.0, "prepare_transaction");
    let inj = c.install_faults(FaultPlan::new().with(crash), 0);
    let err = s.copy("t", &[], forty_rows()).unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert_eq!(inj.fired(), 1);
    assert_eq!(commit_records(&mut s), 0);
    citrus::ha::heal_node(&c, w1).unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.rolled_back, 1, "no commit record: recovery aborts");
    assert_eq!(row_count(&mut s), 0);

    let inj =
        c.install_faults(FaultPlan::new().with(FaultRule::stmt_error(w1.0, "commit_prepared")), 0);
    assert_eq!(s.copy("t", &[], forty_rows()).unwrap(), 40);
    assert_eq!(inj.fired(), 1);
    assert_eq!(commit_records(&mut s), 1);
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.committed, 1, "commit record present: recovery commits");
    assert_eq!(row_count(&mut s), 40);
}

/// Latency faults charge the virtual clock without failing anything.
#[test]
fn latency_fault_advances_virtual_clock() {
    let c = dist_table_cluster(2);
    let mut s = c.session().unwrap();
    c.install_faults(
        FaultPlan::new().with(
            FaultRule::new(FaultOp::Statement, FaultKind::Latency(5.0))
                .on_node(1)
                .with_tag("select")
                .times(3),
        ),
        0,
    );
    let before = c.clock.now_micros();
    for _ in 0..4 {
        s.execute("SELECT count(*) FROM t").unwrap();
    }
    assert_eq!(c.task_retry_count(), 0, "latency does not fail operations");
    assert_eq!(c.clock.now_micros() - before, 15_000, "3 × 5 ms, then exhausted");
}

// ---------------- trace coverage of daemons and retries ----------------

/// `dist_table_cluster` with tracing enabled from the start.
fn traced_dist_cluster(workers: u32) -> Arc<Cluster> {
    let c = {
        let mut cfg = ClusterConfig::default();
        cfg.shard_count = 8;
        cfg.tracing = true;
        let c = Cluster::new(cfg);
        for _ in 0..workers {
            c.add_worker().unwrap();
        }
        c
    };
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    c
}

/// A retried read records its fault and retry in the statement trace: the
/// failing task span carries `retries`/`backoff_ms` plus a `fault` child
/// naming the rule that fired.
#[test]
fn retried_read_trace_records_fault_and_backoff() {
    let c = traced_dist_cluster(2);
    c.tracer.clear();
    let inj = c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(1, "select")),
        0,
    );
    let mut s = c.session().unwrap();
    s.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(inj.fired(), 1);

    let trace = c.tracer.last_statement().expect("statement trace recorded");
    let retried: Vec<_> = trace
        .find_all("task")
        .into_iter()
        .filter(|t| t.field("retries").is_some())
        .collect();
    assert_eq!(retried.len(), 1, "exactly one task retried:\n{}", trace.render());
    let task = retried[0];
    assert_eq!(task.field("retries"), Some("1"));
    assert_eq!(task.field("backoff_ms"), Some("10.000"), "base backoff charged");
    let fault = task.find("fault").expect("fault event attached to the task span");
    assert_eq!(fault.field("kind"), Some("Error"));
    assert_eq!(fault.field("tag"), Some("select"));
}

/// A recovery pass that settles an in-doubt transaction via its commit
/// record emits a `recovery.pass` daemon span with a `recovery.commit` child
/// naming the node and gid.
#[test]
fn recovery_commit_emits_daemon_trace() {
    let c = traced_dist_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let mut s = c.session().unwrap();
    c.install_faults(
        FaultPlan::new().with(FaultRule::stmt_error(w1.0, "commit_prepared")),
        0,
    );
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 100 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 100 WHERE k = {k2}")).unwrap();
    s.execute("COMMIT").unwrap();

    c.tracer.clear();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.committed, 1);
    let passes = c.tracer.daemon_spans();
    let pass = passes
        .iter()
        .find(|p| p.label() == "recovery.pass")
        .expect("recovery pass traced");
    assert_eq!(pass.field("committed"), Some("1"));
    assert_eq!(pass.field("rolled_back"), Some("0"));
    let commit = pass.find("recovery.commit").expect("commit action traced");
    assert_eq!(commit.field("node"), Some("worker-1"));
    assert!(commit.field("gid").unwrap().starts_with("citrus_"), "gid recorded");
    assert_eq!(c.metrics.recovery_commits.load(std::sync::atomic::Ordering::Relaxed), 1);

    // a quiescent pass records nothing
    c.tracer.clear();
    citrus::recovery::recover_once(&c).unwrap();
    assert!(c.tracer.daemon_spans().is_empty(), "no-op passes stay silent");
}

/// A recovery pass that aborts an orphaned prepared transaction (no commit
/// record) emits a `recovery.rollback` child instead.
#[test]
fn recovery_rollback_emits_daemon_trace() {
    let c = traced_dist_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let mut s = c.session().unwrap();
    c.install_faults(
        FaultPlan::new().with(FaultRule::crash_after(w1.0, "prepare_transaction")),
        0,
    );
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 200 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 200 WHERE k = {k2}")).unwrap();
    s.execute("COMMIT").unwrap_err();
    citrus::ha::heal_node(&c, w1).unwrap();

    c.tracer.clear();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    assert_eq!(stats.rolled_back, 1);
    let passes = c.tracer.daemon_spans();
    let pass = passes
        .iter()
        .find(|p| p.label() == "recovery.pass")
        .expect("recovery pass traced");
    assert_eq!(pass.field("rolled_back"), Some("1"));
    let rb = pass.find("recovery.rollback").expect("rollback action traced");
    assert_eq!(rb.field("node"), Some("worker-1"));
    assert_eq!(c.metrics.recovery_rollbacks.load(std::sync::atomic::Ordering::Relaxed), 1);
}

/// A detected distributed deadlock leaves a `deadlock.check` daemon span
/// whose `deadlock.victim` child names the cancelled transaction — the merged
/// wait-for graph (both edges come from different engines), the cycle length,
/// and the youngest-victim choice are all observable from the trace.
#[test]
fn deadlock_detection_emits_check_and_victim_trace() {
    let c = traced_dist_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    c.tracer.clear();

    let c1 = c.clone();
    let c2 = c.clone();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let (b1, b2) = (barrier.clone(), barrier.clone());
    let h1 = std::thread::spawn(move || {
        let mut s = c1.session().unwrap();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("UPDATE t SET v = 10 WHERE k = {k1}")).unwrap();
        b1.wait();
        let r = s.execute(&format!("UPDATE t SET v = 10 WHERE k = {k2}"));
        let _ = if r.is_ok() { s.execute("COMMIT") } else { s.execute("ROLLBACK") };
        r.map(|_| ())
    });
    let h2 = std::thread::spawn(move || {
        let mut s = c2.session().unwrap();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("UPDATE t SET v = 20 WHERE k = {k2}")).unwrap();
        b2.wait();
        let r = s.execute(&format!("UPDATE t SET v = 20 WHERE k = {k1}"));
        let _ = if r.is_ok() { s.execute("COMMIT") } else { s.execute("ROLLBACK") };
        r.map(|_| ())
    });
    let mut victim = None;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if let Some(v) = citrus::deadlock::detect_once(&c).unwrap() {
            victim = Some(v);
            break;
        }
        if h1.is_finished() && h2.is_finished() {
            break;
        }
    }
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    let victim = victim.expect("the crossed updates must deadlock");
    let failures = [&r1, &r2].iter().filter(|r| r.is_err()).count();
    assert_eq!(failures, 1, "exactly one victim: {r1:?} {r2:?}");

    let spans = c.tracer.daemon_spans();
    let check = spans
        .iter()
        .find(|s| s.label() == "deadlock.check" && s.find("deadlock.victim").is_some())
        .expect("the cancelling pass left a check span with a victim child");
    // the merged graph saw both distributed transactions and both edges
    assert!(check.field("graph_nodes").unwrap().parse::<usize>().unwrap() >= 2);
    assert!(check.field("edges").unwrap().parse::<usize>().unwrap() >= 2);
    let v = check.find("deadlock.victim").unwrap();
    assert_eq!(
        v.field("txn"),
        Some(format!("{}:{}", victim.origin_node, victim.number).as_str()),
        "the trace names the transaction detect_once cancelled"
    );
    assert_eq!(v.field("cycle_len"), Some("2"));
    assert_eq!(c.metrics.deadlock_victims.load(std::sync::atomic::Ordering::Relaxed), 1);
}

// ---------------- determinism ----------------

/// One full scenario: a probabilistic fault plan over a mixed workload plus
/// a scripted mid-2PC crash and recovery. Returns everything observable.
fn faulty_scenario(seed: u64) -> (Vec<String>, u64, u64, usize, String) {
    let c = dist_table_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let (k1, k2) = (key_on_node(&c, w1), key_on_node(&c, w2));
    let inj = c.install_faults(
        FaultPlan::new()
            .with(
                FaultRule::new(FaultOp::Statement, FaultKind::Error)
                    .with_tag("select")
                    .always()
                    .with_probability(0.3),
            )
            .with(FaultRule::crash_after(w1.0, "prepare_transaction")),
        seed,
    );
    let mut s = c.session().unwrap();
    let mut outcomes = Vec::new();
    for i in 0..30 {
        let out = match s.execute(&format!("SELECT count(*) FROM t WHERE k >= {}", i % 5)) {
            Ok(r) => format!("ok:{:?}", r.rows()),
            Err(e) => format!("err:{:?}:{}", e.code, e.message),
        };
        outcomes.push(out);
    }
    // scripted mid-2PC crash, then heal + recover
    s.execute("BEGIN").unwrap();
    let txn = s
        .execute(&format!("UPDATE t SET v = 9 WHERE k = {k1}"))
        .and_then(|_| s.execute(&format!("UPDATE t SET v = 9 WHERE k = {k2}")))
        .and_then(|_| s.execute("COMMIT"));
    outcomes.push(format!("txn:{:?}", txn.as_ref().map(|_| ()).map_err(|e| e.code)));
    if txn.is_err() {
        let _ = s.execute("ROLLBACK");
    }
    citrus::ha::heal_node(&c, w1).unwrap();
    let stats = citrus::recovery::recover_once(&c).unwrap();
    let events = inj.events();
    (outcomes, inj.fingerprint(), c.task_retry_count(), events.len(), format!("{stats:?}"))
}

/// The acceptance bar: a fault schedule is fully determined by
/// `(FaultPlan, seed)` — the same scenario twice yields byte-identical
/// results, fired-fault logs, retry counts, and recovery stats.
#[test]
fn same_plan_and_seed_replays_byte_identically() {
    let a = faulty_scenario(42);
    let b = faulty_scenario(42);
    assert_eq!(a, b, "identical (plan, seed) must replay identically");
    let c = faulty_scenario(43);
    assert_ne!(a.1, c.1, "a different seed draws a different schedule");
}
