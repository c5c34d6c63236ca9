//! Golden-trace snapshots: one canonical query per planner tier, with the
//! rendered `EXPLAIN (DISTRIBUTED)` output and the executed statement's
//! trace tree pinned against checked-in snapshots. Durations in traces are
//! virtual-time (cost model on the virtual clock), so the full render —
//! including every `*_ms` field — is deterministic and safe to pin.
//!
//! The last tests prove the determinism contract (§6) extends to
//! observability: EXPLAIN text and trace fingerprints are byte-identical
//! across `executor_threads` counts, and a plan-cache hit still records the
//! chosen tier (the bookkeeping fix this PR locks in).

use citrus::cluster::{Cluster, ClusterConfig};
use citrus::planner::PlannerKind;
use std::sync::Arc;

/// Deterministic fixture: 2 workers, 8 shards, tracing on. `t(k, v)` is
/// hash-distributed on `k` (k = 0..16, v = k * 10), `r(id, label)` is a
/// reference table, and `big`/`small_t` are non-co-located so their join
/// needs the logical join-order tier.
fn golden_cluster(threads: usize) -> Arc<Cluster> {
    let mut cfg = ClusterConfig::default();
    cfg.shard_count = 8;
    cfg.tracing = true;
    cfg.executor_threads = threads;
    let c = Cluster::new(cfg);
    for _ in 0..2 {
        c.add_worker().unwrap();
    }
    let mut s = c.session().unwrap();
    s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('t', 'k')").unwrap();
    for k in 0..16i64 {
        s.execute(&format!("INSERT INTO t VALUES ({k}, {})", k * 10)).unwrap();
    }
    s.execute("CREATE TABLE r (id bigint PRIMARY KEY, label text)").unwrap();
    s.execute("SELECT create_reference_table('r')").unwrap();
    s.execute("INSERT INTO r VALUES (1, 'one'), (2, 'two')").unwrap();
    s.execute("CREATE TABLE big (k bigint, v bigint)").unwrap();
    s.execute("SELECT create_distributed_table('big', 'k')").unwrap();
    s.execute("CREATE TABLE small_t (v bigint, label text)").unwrap();
    s.execute("SELECT create_distributed_table('small_t', 'v', 'none')").unwrap();
    for i in 0..20i64 {
        s.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 4)).unwrap();
    }
    for v in 0..4i64 {
        s.execute(&format!("INSERT INTO small_t VALUES ({v}, 'label-{v}')")).unwrap();
    }
    c
}

/// One canonical query per planner tier.
const TIER_QUERIES: [(&str, PlannerKind); 4] = [
    ("SELECT v FROM t WHERE k = 5", PlannerKind::FastPath),
    (
        "SELECT t.v, r.label FROM t JOIN r ON r.id = 1 WHERE t.k = 5",
        PlannerKind::Router,
    ),
    ("SELECT count(*), sum(v) FROM t", PlannerKind::Pushdown),
    (
        "SELECT s.label, count(*) FROM big b JOIN small_t s ON b.v = s.v \
         GROUP BY s.label ORDER BY 1",
        PlannerKind::JoinOrder,
    ),
];

fn explain_text(s: &mut citrus::cluster::ClientSession, sql: &str) -> String {
    let r = s.execute(&format!("EXPLAIN (DISTRIBUTED) {sql}")).unwrap();
    r.rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Execute `sql` and return the rendered trace of the statement.
fn trace_of(c: &Arc<Cluster>, s: &mut citrus::cluster::ClientSession, sql: &str) -> String {
    c.tracer.clear();
    s.execute(sql).unwrap();
    c.tracer.last_statement().expect("statement trace recorded").render()
}

// ---------------- golden EXPLAIN (DISTRIBUTED) ----------------

const EXPLAIN_FAST_PATH: &str = "\
Custom Scan (Citrus Adaptive) via Fast Path Router
  Task Count: 1
  Shards: 1 of 8 (7 pruned)
  Tasks Shown: All
  ->  Task on worker-2 (shards s102011)
        SELECT v FROM t_102011 t WHERE k = 5";

const EXPLAIN_ROUTER: &str = "\
Custom Scan (Citrus Adaptive) via Router
  Task Count: 1
  Shards: 2 of 9 (7 pruned)
  Tasks Shown: All
  ->  Task on worker-2 (shards s102011+s102016)
        SELECT t.v, r.label FROM t_102011 t JOIN r_102016 r ON r.id = 1 WHERE t.k = 5";

const EXPLAIN_PUSHDOWN: &str = "\
Custom Scan (Citrus Adaptive) via Logical Pushdown
  Task Count: 8
  Shards: 8 of 8 (0 pruned)
  Merge: partial aggregation on coordinator
  Tasks Shown: All
  ->  Task on worker-1 (shards s102008)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102008 t
  ->  Task on worker-2 (shards s102009)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102009 t
  ->  Task on worker-1 (shards s102010)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102010 t
  ->  Task on worker-2 (shards s102011)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102011 t
  ->  Task on worker-1 (shards s102012)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102012 t
  ->  Task on worker-2 (shards s102013)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102013 t
  ->  Task on worker-1 (shards s102014)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102014 t
  ->  Task on worker-2 (shards s102015)
        SELECT count(*) AS p0, sum(v) AS p1 FROM t_102015 t";

const EXPLAIN_JOIN_ORDER: &str = "\
Custom Scan (Citrus Adaptive) via Logical Join Order
  Task Count: 8
  Shards: 8 of 16 (8 pruned)
  Merge: partial aggregation on coordinator
  Subplans: 1 (intermediate results)
  Tasks Shown: All
  ->  Task on worker-1 (shards s102017)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102017 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-2 (shards s102018)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102018 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-1 (shards s102019)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102019 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-2 (shards s102020)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102020 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-1 (shards s102021)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102021 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-2 (shards s102022)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102022 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-1 (shards s102023)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102023 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label
  ->  Task on worker-2 (shards s102024)
        SELECT s.label AS g0, count(*) AS p0 FROM big_102024 b JOIN citrus_bcast_0_small_t s ON b.v = s.v GROUP BY s.label";

#[test]
fn explain_distributed_matches_golden() {
    let c = golden_cluster(1);
    let mut s = c.session().unwrap();
    let entries_before = c.metrics.statement_entries().len();
    let golden = [EXPLAIN_FAST_PATH, EXPLAIN_ROUTER, EXPLAIN_PUSHDOWN, EXPLAIN_JOIN_ORDER];
    for ((sql, kind), want) in TIER_QUERIES.iter().zip(golden) {
        let got = explain_text(&mut s, sql);
        assert_eq!(got, want, "EXPLAIN (DISTRIBUTED) snapshot for {kind:?}");
    }
    // EXPLAIN plans without executing: no new statements were recorded
    assert_eq!(
        c.metrics.statement_entries().len(),
        entries_before,
        "EXPLAIN must not execute"
    );
}

// ---------------- golden trace trees ----------------

const TRACE_FAST_PATH: &str = "\
statement{sql=SELECT v FROM t WHERE k = 5 tier=Fast Path Router cache=miss planning_ms=0.200 tasks=1 wire=exchange rows=1 elapsed_ms=1.304}
  task{index=0 node=worker-2 shards=s102011 service_ms=0.604}
  batch{exchanges=1 coalesced=0}
  merge{kind=pass_through rows=1 affected=0}
";

const TRACE_ROUTER: &str = "\
statement{sql=SELECT t.v, r.label FROM t JOIN r ON r.id = 1 WHERE t.k = 5 tier=Router cache=miss planning_ms=0.200 tasks=1 wire=exchange rows=1 elapsed_ms=1.325}
  task{index=0 node=worker-2 shards=s102011+s102016 service_ms=0.625}
  batch{exchanges=1 coalesced=0}
  merge{kind=pass_through rows=1 affected=0}
";

const TRACE_PUSHDOWN: &str = "\
statement{sql=SELECT count(*), sum(v) FROM t tier=Logical Pushdown cache=miss planning_ms=0.200 tasks=8 wire=exchange rows=1 elapsed_ms=1.449}
  task{index=0 node=worker-1 shards=s102008 service_ms=0.186}
  task{index=1 node=worker-2 shards=s102009 service_ms=0.185}
  task{index=2 node=worker-1 shards=s102010 service_ms=0.186}
  task{index=3 node=worker-2 shards=s102011 service_ms=0.055}
  task{index=4 node=worker-1 shards=s102012 service_ms=0.187}
  task{index=5 node=worker-2 shards=s102013 service_ms=0.185}
  task{index=6 node=worker-1 shards=s102014 service_ms=0.186}
  task{index=7 node=worker-2 shards=s102015 service_ms=0.185}
  batch{exchanges=2 coalesced=6}
  merge{kind=group_agg rows=1 affected=0}
";

const TRACE_JOIN_ORDER: &str = "\
statement{sql=SELECT s.label, count(*) FROM big b JOIN small_t s ON b.v = s.v GROUP BY s.label ORDER BY 1 tier=Logical Join Order cache=miss planning_ms=0.200 tasks=8 subplans=1 wire=exchange rows=4 elapsed_ms=3.902}
  subplan{tier=Logical Pushdown cache=miss planning_ms=0.200 tasks=8 wire=exchange}
    task{index=0 node=worker-1 shards=s102025 service_ms=0.184}
    task{index=1 node=worker-2 shards=s102026 service_ms=0.050}
    task{index=2 node=worker-1 shards=s102027 service_ms=0.050}
    task{index=3 node=worker-2 shards=s102028 service_ms=0.184}
    task{index=4 node=worker-1 shards=s102029 service_ms=0.050}
    task{index=5 node=worker-2 shards=s102030 service_ms=0.184}
    task{index=6 node=worker-1 shards=s102031 service_ms=0.184}
    task{index=7 node=worker-2 shards=s102032 service_ms=0.050}
    batch{exchanges=2 coalesced=6}
    merge{kind=concat rows=4 affected=0}
  task{index=0 node=worker-1 shards=s102017 service_ms=0.327}
  task{index=1 node=worker-2 shards=s102018 service_ms=0.323}
  task{index=2 node=worker-1 shards=s102019 service_ms=0.194}
  task{index=3 node=worker-2 shards=s102020 service_ms=0.197}
  task{index=4 node=worker-1 shards=s102021 service_ms=0.196}
  task{index=5 node=worker-2 shards=s102022 service_ms=0.192}
  task{index=6 node=worker-1 shards=s102023 service_ms=0.192}
  task{index=7 node=worker-2 shards=s102024 service_ms=0.190}
  batch{exchanges=2 coalesced=6}
  merge{kind=group_agg rows=4 affected=0}
";

#[test]
fn trace_trees_match_golden() {
    let c = golden_cluster(1);
    let mut s = c.session().unwrap();
    let golden = [TRACE_FAST_PATH, TRACE_ROUTER, TRACE_PUSHDOWN, TRACE_JOIN_ORDER];
    for ((sql, kind), want) in TIER_QUERIES.iter().zip(golden) {
        let got = trace_of(&c, &mut s, sql);
        assert_eq!(got, want, "trace snapshot for {kind:?}");
    }
}

// ---------------- EXPLAIN ANALYZE ----------------

/// `EXPLAIN (ANALYZE, DISTRIBUTED)` executes the statement and returns the
/// trace tree as the plan output — even when cluster-wide tracing is off.
#[test]
fn explain_analyze_executes_and_returns_trace() {
    let c = golden_cluster(1);
    c.tracer.set_enabled(false);
    let mut s = c.session().unwrap();
    let before = c.metrics.tier_count(PlannerKind::Pushdown);
    let r = s.execute("EXPLAIN (ANALYZE, DISTRIBUTED) SELECT count(*), sum(v) FROM t").unwrap();
    let text = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.starts_with("statement{sql=SELECT count(*), sum(v) FROM t"), "{text}");
    assert!(text.contains("tier=Logical Pushdown"), "{text}");
    assert!(text.contains("task{index=7 node=worker-2 shards=s102015"), "{text}");
    assert!(text.contains("merge{kind=group_agg rows=1"), "{text}");
    // it really executed (metrics moved), unlike plain EXPLAIN
    assert_eq!(c.metrics.tier_count(PlannerKind::Pushdown), before + 1);
}

// ---------------- thread-count invariance ----------------

/// The §6 determinism contract extends to observability: EXPLAIN output and
/// statement-trace fingerprints are byte-identical at `executor_threads` 1
/// and 8, for every tier plus multi-shard writes.
#[test]
fn traces_and_explain_identical_across_thread_counts() {
    let run = |threads: usize| -> (Vec<String>, Vec<String>, Vec<u64>) {
        let c = golden_cluster(threads);
        let mut s = c.session().unwrap();
        let explains = TIER_QUERIES.iter().map(|(sql, _)| explain_text(&mut s, sql)).collect();
        let mut traces = Vec::new();
        for (sql, _) in TIER_QUERIES {
            traces.push(trace_of(&c, &mut s, sql));
        }
        // writes trace identically too (single-row and multi-shard)
        traces.push(trace_of(&c, &mut s, "INSERT INTO t VALUES (100, 1000)"));
        traces.push(trace_of(&c, &mut s, "UPDATE t SET v = v + 1"));
        let prints = traces.iter().map(|t| citrus::trace::fingerprint_str(t)).collect();
        (explains, traces, prints)
    };
    let (e1, t1, f1) = run(1);
    let (e8, t8, f8) = run(8);
    assert_eq!(e1, e8, "EXPLAIN (DISTRIBUTED) must not depend on executor_threads");
    assert_eq!(t1, t8, "trace renders must not depend on executor_threads");
    assert_eq!(f1, f8, "trace fingerprints must not depend on executor_threads");
}

// ---------------- plan-cache tier bookkeeping (regression) ----------------

/// A plan-cache hit must still record the chosen tier and statement stats —
/// previously the hit path skipped planner bookkeeping, undercounting tiers
/// in `citus_stat_statements`. (Only fast-path and router plans are
/// cacheable, so the canonical fast-path query is the probe.)
#[test]
fn plan_cache_hit_still_records_tier_and_stats() {
    let c = golden_cluster(1);
    let mut s = c.session().unwrap();
    c.metrics.reset_statements();
    let before = c.metrics.tier_count(PlannerKind::FastPath);

    s.execute("SELECT v FROM t WHERE k = 5").unwrap();
    let hit_trace = trace_of(&c, &mut s, "SELECT v FROM t WHERE k = 5");
    assert!(hit_trace.contains("cache=hit"), "second run is a cache hit:\n{hit_trace}");
    assert!(hit_trace.contains("tier=Fast Path Router"), "{hit_trace}");
    assert_eq!(
        c.metrics.tier_count(PlannerKind::FastPath),
        before + 2,
        "cache hits count toward their tier"
    );

    // the same numbers surface through the citus_stat_statements relation
    let r = s
        .execute(
            "SELECT calls, cache_hits, tier FROM citus_stat_statements \
             WHERE query = 'SELECT v FROM t WHERE k = 5'",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), 2, "both executions counted");
    assert_eq!(r.rows()[0][1].as_i64().unwrap(), 1, "one was a cache hit");
    assert_eq!(r.rows()[0][2].as_str().unwrap(), "Fast Path Router");

    // citus_stat_activity lists this session with its last tier
    let r = s
        .execute("SELECT count(*) FROM citus_stat_activity WHERE tier = 'Fast Path Router'")
        .unwrap();
    assert!(r.rows()[0][0].as_i64().unwrap() >= 1, "session visible in activity view");
}
