//! Distributed plan cache for the CRUD hot path (§3.5.1).
//!
//! Citus caches the distributed plan of a prepared statement so repeated
//! executions skip planning. We generalise that to *all* statements: the
//! cache key is the statement's **shape** — its structure with literal
//! constants parameterized away — so `SELECT … WHERE k = 1` and
//! `… WHERE k = 2` share one entry.
//!
//! A cache entry stores only `(metadata generation, planner tier)`, not a
//! materialized plan: shard pruning depends on the literal values, so on a
//! hit the executor re-runs just that tier's planner (fast-path extraction
//! or router bucket inference + shard-name rewrite) and skips the full
//! preamble — table classification, reference-write detection, colocation
//! checks, and the tier cascade. That keeps hits cheap while recomputing
//! exactly the part that must be per-execution: the shard-pruning bucket.
//! It also makes hash collisions harmless — the tier planner fully
//! re-validates the statement and falls back to complete planning when it
//! declines.
//!
//! Invalidation is by metadata generation: every placement-visible change
//! (DDL, `create_distributed_table`, rebalancer shard moves) bumps
//! [`Metadata::generation`](crate::metadata::Metadata::generation), and a
//! lookup whose stored generation no longer matches is evicted as a miss.

/// The cache key: a statement's structure with its value literals elided.
pub use sqlparse::shape::shape_hash;

pub use pgmini::plancache::ShapeCacheStats as PlanCacheStats;

/// Which single-shard planner tier to re-run on a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedTier {
    FastPath,
    Router,
}

/// Per-extension distributed plan cache: shape → tier, valid for one
/// metadata generation. The same bounded map the engine keeps its local
/// generic plans in.
pub type PlanCache = pgmini::plancache::ShapeCache<CachedTier>;

/// Cache-size bound; the whole map is cleared when full (shape churn at
/// this scale means the workload is not CRUD-shaped anyway).
pub const MAX_ENTRIES: usize = 1024;

#[cfg(test)]
mod tests {
    /// Regression: propagated DDL issued on the *coordinator* must
    /// invalidate the plan caches of MX workers. Every node's cache entries
    /// are stamped with the shared metadata generation, so the bug was that
    /// DDL propagation never bumped the generation at all — worker caches
    /// kept serving entries planned against the old schema.
    #[test]
    fn remote_ddl_generation_bump_invalidates_worker_plan_cache() {
        let mut cfg = crate::cluster::ClusterConfig::default();
        cfg.shard_count = 8;
        let c = crate::cluster::Cluster::new(cfg);
        c.add_worker().unwrap();
        c.add_worker().unwrap();
        let mut s = c.session().unwrap();
        s.execute("CREATE TABLE t (k bigint, v bigint)").unwrap();
        s.execute("SELECT create_distributed_table('t', 'k')").unwrap();

        // warm one worker's cache through the MX routed path
        let mut mx = c.mx_session();
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let worker = mx.last_node();
        assert_ne!(worker, crate::metadata::NodeId(0), "fast-path insert routes to a worker");
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let ext = c.extension(worker).unwrap();
        let warmed = ext.plan_cache_stats();
        assert!(warmed.hits >= 1, "same shape re-plans from the worker cache: {warmed:?}");

        // remote DDL on the coordinator: the generation bump must evict the
        // worker's stale entry (next same-shape statement misses, then the
        // refilled entry hits again)
        s.execute("CREATE INDEX t_v_idx ON t (v)").unwrap();
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let after = ext.plan_cache_stats();
        assert_eq!(
            after.misses,
            warmed.misses + 1,
            "remote generation bump invalidates the worker cache: {after:?}"
        );
        assert_eq!(after.hits, warmed.hits, "the post-DDL statement must not hit");
        mx.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        assert_eq!(ext.plan_cache_stats().hits, warmed.hits + 1, "cache refills after the bump");
    }
}
