//! Crash-safety drills for the shard rebalancer (§3.4 + §3.9).
//!
//! Every drill kills a shard-group move at a phase boundary — with a
//! coordinator-observed error, or a node crash followed by standby
//! promotion — and asserts that one `recover_moves` pass restores the
//! placement invariant: every shard has exactly one live placement, no
//! orphan physical shard tables exist on any node, and the move journal has
//! no pending records. A proptest runs moves under concurrent writes and a
//! seeded fault plan and checks the cluster still agrees with a single-node
//! pgmini oracle.

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::metadata::{NodeId, FIRST_SHARD_ID};
use citrus::movejournal::{self, MovePhase};
use citrus::rebalancer;
use netsim::fault::{FaultKind, FaultOp, FaultPhase, FaultPlan, FaultRule};
use pgmini::error::ErrorCode;
use pgmini::types::Datum;
use pgmini::wal::WalRecord;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

fn cluster_with(workers: u32, threads: usize, tracing: bool) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.executor_threads = threads;
    cfg.tracing = tracing;
    let c = Cluster::new(cfg);
    for _ in 0..workers {
        c.add_worker().unwrap();
    }
    c
}

/// `t(k bigint PRIMARY KEY, v bigint)` with index `t_v`, distributed on `k`,
/// rows k = 0..40.
fn dist_table_cluster(workers: u32) -> Arc<Cluster> {
    let c = cluster_with(workers, 1, false);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    s.execute("CREATE INDEX t_v ON t (v)").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    c
}

/// `(bucket, from, to)` for the shard group holding `t.k = key`, with `to`
/// the other worker.
fn move_coords(c: &Arc<Cluster>, key: i64) -> (usize, NodeId, NodeId) {
    let meta = c.metadata.read();
    let bucket = meta.shard_index_for_value("t", &Datum::Int(key)).unwrap();
    let dt = meta.table("t").unwrap();
    let from = meta.shard(dt.shards[bucket]).unwrap().placements[0];
    let to = if from == NodeId(1) { NodeId(2) } else { NodeId(1) };
    (bucket, from, to)
}

/// A table's indexes by what they index (method, expressions, predicate,
/// unique), names left out: shard indexes are named per shard.
fn index_set(engine: &pgmini::engine::Engine, table: &str) -> Vec<String> {
    let indexes = engine.table_meta(table).unwrap().indexes.clone();
    let mut set: Vec<String> = indexes
        .iter()
        .map(|iid| engine.index_meta(*iid).unwrap())
        .map(|i| format!("{:?} {:?} {:?} unique={}", i.method, i.exprs, i.predicate, i.unique))
        .collect();
    set.sort();
    set
}

/// The tentpole invariant: every shard has exactly one live placement whose
/// physical table exists on exactly that node and carries the shell's
/// indexes, no node holds an orphan physical shard table, and the move
/// journal has no pending records.
fn assert_placement_invariant(c: &Arc<Cluster>) {
    let meta = c.metadata.read();
    let shell = c.node(NodeId(0)).unwrap().engine();
    // (node, physical table) → the shell's index set
    let mut expected: std::collections::HashMap<(NodeId, String), Vec<String>> = Default::default();
    for t in meta.tables() {
        for sid in &t.shards {
            let shard = meta.shard(*sid).unwrap();
            if t.is_reference() {
                continue; // reference tables place everywhere by design
            }
            assert_eq!(
                shard.placements.len(),
                1,
                "shard {sid:?} of {} must have exactly one placement",
                t.name
            );
            let node = shard.placements[0];
            assert!(c.node(node).unwrap().is_active(), "placement node of {sid:?} is down");
            expected.insert((node, shard.physical_name()), index_set(&shell, &t.name));
        }
    }
    drop(meta);
    for node in c.nodes() {
        if !node.is_active() {
            continue;
        }
        let names = node.engine().catalog.read().table_names();
        for name in names {
            // physical shard tables are named `{base}_{shard_id}`
            let Some((_, id)) = name.rsplit_once('_') else { continue };
            let Ok(id) = id.parse::<u64>() else { continue };
            if id < FIRST_SHARD_ID {
                continue;
            }
            assert!(
                expected.contains_key(&(node.id, name.clone())),
                "orphan physical table {name} on node {}",
                node.name
            );
        }
    }
    for ((node, physical), shell_indexes) in &expected {
        let engine = c.node(*node).unwrap().engine();
        let exists = engine.table_meta(physical).is_ok();
        assert!(exists, "placement {physical} missing on node {}", node.0);
        assert_eq!(
            &index_set(&engine, physical),
            shell_indexes,
            "placement {physical} on node {} lost indexes",
            node.0
        );
    }
    let pending = rebalancer::pending_moves(c).unwrap();
    assert!(pending.is_empty(), "move journal still has pending records: {pending:?}");
}

fn count_rows(c: &Arc<Cluster>) -> i64 {
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT count(*) FROM t").unwrap();
    r.rows()[0][0].as_i64().unwrap()
}

// ---------------- per-phase error drills ----------------

/// A coordinator-observed error at each phase boundary: the move fails, the
/// cluster stays queryable, and one recovery pass aborts (before the
/// journaled switch) or rolls forward (at/after it).
#[test]
fn error_at_each_phase_boundary_recovers() {
    // (tag, phase, rolls_forward)
    let drills = [
        ("move_create", FaultPhase::Before, false),
        ("move_copy", FaultPhase::Before, false),
        ("move_copy", FaultPhase::After, false),
        ("move_catchup", FaultPhase::Before, false),
        ("move_switch", FaultPhase::Before, false),
        ("move_switch", FaultPhase::After, true),
        ("move_drop", FaultPhase::Before, true),
    ];
    for (tag, phase, rolls_forward) in drills {
        let c = dist_table_cluster(2);
        let (bucket, from, to) = move_coords(&c, 7);
        let inj = c.install_faults(
            FaultPlan::new()
                .with(FaultRule::new(FaultOp::Move, FaultKind::Error).with_tag(tag).at(phase)),
            0,
        );
        let err = rebalancer::move_shard_group(&c, "t", bucket, from, to)
            .expect_err("injected fault must surface");
        assert_eq!(err.code, ErrorCode::ConnectionFailure, "drill {tag}/{phase:?}");
        assert_eq!(inj.fired(), 1, "exactly the scripted fault fired ({tag})");
        c.clear_faults();

        // the cluster is still queryable: locks were released on the error
        // path, and whichever side the journal left authoritative has the data
        assert_eq!(count_rows(&c), 40, "queryable after {tag}/{phase:?}");
        let pending = rebalancer::pending_moves(&c).unwrap();
        assert_eq!(pending.len(), 1, "journal record left for recovery ({tag})");
        assert_eq!(
            pending[0].phase.reached_switch(),
            rolls_forward,
            "journal phase {:?} vs expected direction ({tag}/{phase:?})",
            pending[0].phase
        );

        let stats = rebalancer::recover_moves(&c).unwrap();
        if rolls_forward {
            assert_eq!(stats.rolled_forward, 1, "{tag}/{phase:?}");
            assert_eq!(stats.aborted, 0);
        } else {
            assert_eq!(stats.aborted, 1, "{tag}/{phase:?}");
            assert_eq!(stats.rolled_forward, 0);
        }
        assert_placement_invariant(&c);
        assert_eq!(count_rows(&c), 40, "no rows lost ({tag}/{phase:?})");
        // the moved-or-restored shard still accepts writes
        let mut s = c.session().unwrap();
        let r = s.execute("UPDATE t SET v = 99 WHERE k = 7").unwrap();
        assert_eq!(r.affected(), 1);
        // recovery is idempotent: a second pass finds nothing
        assert_eq!(rebalancer::recover_moves(&c).unwrap(), Default::default());
    }
}

// ---------------- node crash + promote drills ----------------

/// A node crash at each phase boundary (target during create/copy, source
/// during catch-up/switch/drop): after standby promotion the recovery pass
/// run by `promote_standby` restores the invariant.
#[test]
fn crash_and_promote_at_each_phase_recovers() {
    // (tag, phase, victim is target?, rolls_forward)
    let drills = [
        ("move_create", FaultPhase::Before, true, false),
        ("move_copy", FaultPhase::After, true, false),
        ("move_catchup", FaultPhase::Before, false, false),
        ("move_switch", FaultPhase::After, false, true),
        ("move_drop", FaultPhase::Before, false, true),
    ];
    for (tag, phase, victim_is_target, rolls_forward) in drills {
        let c = dist_table_cluster(2);
        let (bucket, from, to) = move_coords(&c, 7);
        let victim = if victim_is_target { to } else { from };
        c.install_faults(
            FaultPlan::new().with(
                FaultRule::new(FaultOp::Move, FaultKind::Crash)
                    .on_node(victim.0)
                    .with_tag(tag)
                    .at(phase),
            ),
            0,
        );
        let err = rebalancer::move_shard_group(&c, "t", bucket, from, to)
            .expect_err("crash must surface");
        assert_eq!(err.code, ErrorCode::ConnectionFailure, "drill {tag}/{phase:?}");
        assert!(!c.node(victim).unwrap().is_active(), "victim is down ({tag})");
        c.clear_faults();

        let report = citrus::ha::promote_standby(&c, victim).unwrap();
        if rolls_forward {
            assert_eq!(report.move_recovery.rolled_forward, 1, "{tag}/{phase:?}");
        } else {
            assert_eq!(report.move_recovery.aborted, 1, "{tag}/{phase:?}");
        }
        assert_placement_invariant(&c);
        assert_eq!(count_rows(&c), 40, "no rows lost ({tag}/{phase:?})");
        let mut s = c.session().unwrap();
        let r = s.execute("UPDATE t SET v = 77 WHERE k = 7").unwrap();
        assert_eq!(r.affected(), 1);
    }
}

/// Recovery defers records whose nodes are down (like unreachable prepared
/// transactions) and settles them once the node is back.
#[test]
fn recovery_defers_unreachable_nodes_until_heal() {
    let c = dist_table_cluster(2);
    let (bucket, from, to) = move_coords(&c, 7);
    c.install_faults(
        FaultPlan::new().with(
            FaultRule::new(FaultOp::Move, FaultKind::Crash).on_node(to.0).with_tag("move_copy"),
        ),
        0,
    );
    rebalancer::move_shard_group(&c, "t", bucket, from, to).expect_err("crash must surface");
    c.clear_faults();
    // target (which holds the orphans) is down: the pass defers
    let stats = rebalancer::recover_moves(&c).unwrap();
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.unreachable_nodes, 1);
    assert_eq!(rebalancer::pending_moves(&c).unwrap().len(), 1);
    // partition heals (engine state intact): the next pass aborts the move
    citrus::ha::heal_node(&c, to).unwrap();
    let stats = rebalancer::recover_moves(&c).unwrap();
    assert_eq!(stats.aborted, 1);
    assert_placement_invariant(&c);
}

/// The maintenance daemon runs the move-recovery pass on its own: a crashed
/// move settles without any explicit recovery call.
#[test]
fn maintenance_daemon_settles_crashed_move() {
    let c = dist_table_cluster(2);
    let (bucket, from, to) = move_coords(&c, 7);
    c.install_faults(
        FaultPlan::new()
            .with(FaultRule::new(FaultOp::Move, FaultKind::Error).with_tag("move_catchup")),
        0,
    );
    rebalancer::move_shard_group(&c, "t", bucket, from, to).expect_err("fault must surface");
    c.clear_faults();
    assert_eq!(rebalancer::pending_moves(&c).unwrap().len(), 1);

    let mut daemon = citrus::maintenance::start(&c);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !rebalancer::pending_moves(&c).unwrap().is_empty() {
        assert!(std::time::Instant::now() < deadline, "daemon never recovered the move");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    daemon.stop();
    assert_placement_invariant(&c);
    assert!(c.metrics.moves_aborted.load(std::sync::atomic::Ordering::Relaxed) >= 1);
}

// ---------------- journal lifecycle + satellites ----------------

/// A clean move journals the full phase lifecycle, ends `done` with its
/// per-move counters, and leaves no cleanup records.
#[test]
fn journal_records_full_lifecycle() {
    let c = dist_table_cluster(2);
    let (bucket, from, to) = move_coords(&c, 7);
    let report = rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap();
    assert!(report.rows_moved > 0);
    let all = movejournal::all(&c).unwrap();
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].phase, MovePhase::Done);
    assert_eq!(all[0].rows_moved, report.rows_moved);
    assert_eq!(all[0].from, from);
    assert_eq!(all[0].to, to);
    assert!(movejournal::cleanup_records(&c, all[0].move_id).unwrap().is_empty());
    assert_placement_invariant(&c);
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(c.metrics.moves_started.load(Relaxed), 1);
    assert_eq!(c.metrics.moves_completed.load(Relaxed), 1);
}

/// Satellite: a crashed *source* is rejected up front with a
/// ConnectionFailure naming the node — no journal record, no target orphans.
#[test]
fn move_from_crashed_source_fails_fast() {
    let c = dist_table_cluster(2);
    let (bucket, from, to) = move_coords(&c, 7);
    citrus::ha::crash_node(&c, from).unwrap();
    let err = rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    let name = &c.node(from).unwrap().name;
    assert!(err.message.contains(name.as_str()), "error names the source: {}", err.message);
    assert!(movejournal::all(&c).unwrap().is_empty(), "nothing journaled");
    // no orphan shard tables appeared on the target
    let names = c.node(to).unwrap().engine().catalog.read().table_names();
    let meta = c.metadata.read();
    let dt = meta.table("t").unwrap();
    let moved_physical = meta.shard(dt.shards[bucket]).unwrap().physical_name();
    assert!(!names.contains(&moved_physical));
}

/// Satellite regression: a refused restore point (node down) must not leave
/// a partial named restore point on the nodes visited before the failure.
#[test]
fn refused_restore_point_leaves_no_partial_record() {
    let c = dist_table_cluster(2);
    citrus::ha::crash_node(&c, NodeId(2)).unwrap();
    let mut s = c.session().unwrap();
    let err = s.execute("SELECT citus_create_restore_point('rp-partial')").unwrap_err();
    assert_eq!(err.code, ErrorCode::ConnectionFailure);
    assert!(err.message.contains("worker-2"), "error names the down node: {}", err.message);
    for node in c.nodes() {
        let partial = node.engine().wal.all().iter().any(
            |r| matches!(r, WalRecord::RestorePoint { name } if name == "rp-partial"),
        );
        assert!(!partial, "no partial restore point on {}", node.name);
    }
    // heal and retry: now it lands everywhere
    citrus::ha::heal_node(&c, NodeId(2)).unwrap();
    s.execute("SELECT citus_create_restore_point('rp-partial')").unwrap();
    for node in c.nodes() {
        let present = node.engine().wal.all().iter().any(
            |r| matches!(r, WalRecord::RestorePoint { name } if name == "rp-partial"),
        );
        assert!(present, "restore point present on {}", node.name);
    }
}

/// Satellite: the rebalance UDF surfaces per-move context, and the
/// `citus_rebalance_status` relation exposes the journal with the per-move
/// rows_moved / catchup_rows.
#[test]
fn rebalance_udf_and_status_relation_report_moves() {
    let c = dist_table_cluster(2);
    c.add_worker().unwrap();
    let mut s = c.session().unwrap();
    let r = s.execute("SELECT rebalance_table_shards()").unwrap();
    let Datum::Text(summary) = &r.rows()[0][0] else { panic!("summary row expected") };
    assert!(summary.contains("moves=") && summary.contains("rows_moved="), "{summary}");
    let reported_moves: usize = summary
        .split_whitespace()
        .find_map(|p| p.strip_prefix("moves="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(reported_moves > 0);
    let reported_rows: i64 = summary
        .split_whitespace()
        .find_map(|p| p.strip_prefix("rows_moved="))
        .unwrap()
        .parse()
        .unwrap();
    let r = s
        .execute("SELECT count(*), sum(rows_moved) FROM citus_rebalance_status WHERE phase = 'done'")
        .unwrap();
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), reported_moves as i64);
    assert_eq!(r.rows()[0][1].as_i64().unwrap(), reported_rows);
    assert_placement_invariant(&c);
}

/// Satellite: backup/restore composed with failover. An in-doubt 2PC
/// transaction (commit record durable, one prepared leg parked) must settle
/// identically whether the cluster is (A) failed over in place or (B)
/// restored from the archive at a restore point.
#[test]
fn backup_restore_and_failover_settle_prepared_identically() {
    let c = dist_table_cluster(2);
    let (w1, w2) = (NodeId(1), NodeId(2));
    let meta = c.metadata.read();
    let k1 = (0..40)
        .find(|k| {
            let b = meta.shard_index_for_value("t", &Datum::Int(*k)).unwrap();
            meta.shard(meta.table("t").unwrap().shards[b]).unwrap().placements[0] == w1
        })
        .unwrap();
    let k2 = (0..40)
        .find(|k| {
            let b = meta.shard_index_for_value("t", &Datum::Int(*k)).unwrap();
            meta.shard(meta.table("t").unwrap().shards[b]).unwrap().placements[0] == w2
        })
        .unwrap();
    drop(meta);
    let mut s = c.session().unwrap();
    // lose w1's COMMIT PREPARED reply: prepared txn parked, record durable
    c.install_faults(FaultPlan::new().with(FaultRule::stmt_error(w1.0, "commit_prepared")), 0);
    s.execute("BEGIN").unwrap();
    s.execute(&format!("UPDATE t SET v = 500 WHERE k = {k1}")).unwrap();
    s.execute(&format!("UPDATE t SET v = 500 WHERE k = {k2}")).unwrap();
    s.execute("COMMIT").unwrap();
    c.clear_faults();
    assert_eq!(c.node(w1).unwrap().engine().txns.prepared_gids().len(), 1, "in doubt");
    s.execute("SELECT citus_create_restore_point('pre-failover')").unwrap();
    let backup = citrus::backup::archive(&c);

    // Path A: crash the in-doubt worker and promote its standby
    citrus::ha::crash_node(&c, w1).unwrap();
    let report = citrus::ha::promote_standby(&c, w1).unwrap();
    assert_eq!(report.recovery.committed, 1, "commit record present: recovery commits");
    // Path B: restore the whole cluster from the archive
    let restored = citrus::backup::restore_cluster(&backup, "pre-failover").unwrap();

    // both paths settle the prepared transaction the same way
    for (label, cluster) in [("failover", &c), ("restore", &restored)] {
        let mut cs = cluster.session().unwrap();
        let r = cs.execute(&format!("SELECT v FROM t WHERE k = {k1}")).unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), 500, "{label}: w1 leg committed");
        let r = cs.execute(&format!("SELECT v FROM t WHERE k = {k2}")).unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), 500, "{label}: w2 leg committed");
        let r = cs.execute("SELECT count(*) FROM pg_dist_transaction").unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), 0, "{label}: record cleared");
        for node in cluster.nodes() {
            assert!(node.engine().txns.prepared_gids().is_empty(), "{label}: nothing parked");
        }
    }
}

// ---------------- trace determinism ----------------

/// `rebalance.move` spans — for a clean move and a fault-killed one — are
/// byte-identical across executor_threads 1 vs 8 (the trace_golden
/// determinism contract extended to the rebalancer).
#[test]
fn move_trace_spans_identical_across_thread_counts() {
    let run = |threads: usize| -> Vec<String> {
        let c = cluster_with(2, threads, true);
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
        for k in 0..40i64 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
        }
        let (bucket, from, to) = move_coords(&c, 7);
        rebalancer::move_shard_group(&c, "t", bucket, from, to).unwrap();
        // and a fault-killed move on another bucket, recovered
        let (bucket2, from2, to2) = move_coords(&c, 11);
        c.install_faults(
            FaultPlan::new()
                .with(FaultRule::new(FaultOp::Move, FaultKind::Error).with_tag("move_copy")),
            0,
        );
        rebalancer::move_shard_group(&c, "t", bucket2, from2, to2).expect_err("fault");
        c.clear_faults();
        rebalancer::recover_moves(&c).unwrap();
        c.tracer
            .daemon_spans()
            .iter()
            .filter(|sp| sp.label() == "rebalance.move" || sp.label() == "rebalance.recover")
            .map(|sp| sp.render())
            .collect()
    };
    let a = run(1);
    let b = run(8);
    assert!(!a.is_empty());
    assert_eq!(a, b, "rebalance spans must be byte-identical across thread counts");
}

// ---------------- differential oracle under concurrent writes ----------------

/// Writer thread: update every key once while the move runs; retries absorb
/// the transient window where a statement routed to a just-dropped source.
fn run_writer(c: Arc<Cluster>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut s = c.session().unwrap();
        for k in 0..40i64 {
            let sql = format!("UPDATE t SET v = {} WHERE k = {k}", 1000 + k);
            let mut done = false;
            for _ in 0..50 {
                match s.execute(&sql) {
                    Ok(r) => {
                        assert_eq!(r.affected(), 1, "`{sql}` must hit its row");
                        done = true;
                        break;
                    }
                    Err(_) => std::thread::yield_now(),
                }
            }
            assert!(done, "`{sql}` kept failing");
        }
    })
}

fn run_oracle_case(threads: usize, seed: u64, drop_key: i64) -> Result<(), TestCaseError> {
    let c = cluster_with(2, threads, false);
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    let oracle = pgmini::engine::Engine::new_default();
    let mut os = oracle.session().unwrap();
    os.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    for k in 0..40i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
        os.execute(&format!("INSERT INTO t VALUES ({k}, 1)")).unwrap();
    }
    // every move phase can error or stall, drawn from the seed
    c.install_faults(
        FaultPlan::new()
            .with(
                FaultRule::new(FaultOp::Move, FaultKind::Error).always().with_probability(0.4),
            )
            .with(
                FaultRule::new(FaultOp::Move, FaultKind::Latency(1.5))
                    .always()
                    .with_probability(0.5),
            ),
        seed,
    );
    let writer = run_writer(c.clone());
    let (bucket, from, to) = move_coords(&c, drop_key);
    let moved = rebalancer::move_shard_group(&c, "t", bucket, from, to);
    if moved.is_err() {
        rebalancer::recover_moves(&c)
            .map_err(|e| TestCaseError::fail(format!("recover_moves: {e:?}")))?;
    }
    writer.join().map_err(|_| TestCaseError::fail("writer panicked"))?;
    c.clear_faults();
    // recovery may have deferred nothing; the invariant must hold regardless
    assert_placement_invariant(&c);
    // apply the same writes to the oracle and compare full table state
    for k in 0..40i64 {
        os.execute(&format!("UPDATE t SET v = {} WHERE k = {k}", 1000 + k)).unwrap();
    }
    let dist = s
        .execute("SELECT k, v FROM t")
        .map_err(|e| TestCaseError::fail(format!("dist read: {e:?}")))?;
    let oracle_r = os.execute("SELECT k, v FROM t").unwrap();
    let keys = |r: &pgmini::session::QueryResult| -> Vec<String> {
        let mut v: Vec<String> = r
            .rows()
            .iter()
            .map(|row| {
                format!("{},{}", row[0].as_i64().unwrap_or(-1), row[1].as_i64().unwrap_or(-1))
            })
            .collect();
        v.sort();
        v
    };
    prop_assert_eq!(
        keys(&dist),
        keys(&oracle_r),
        "threads={} seed={} moved={:?}",
        threads,
        seed,
        moved.map(|m| m.rows_moved)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent writes during a fault-drilled move (seeded error/latency
    /// plan over every phase) leave the cluster indistinguishable from a
    /// single pgmini node, at 1 and 8 executor threads.
    #[test]
    fn concurrent_writes_during_faulted_move_match_oracle(
        seed in any::<u64>(),
        drop_key in 0..40i64,
    ) {
        for threads in [1usize, 8] {
            run_oracle_case(threads, seed, drop_key)?;
        }
    }
}
