//! Plan once, bind many: the statement pipeline *shape → generic plan → bind
//! → execute*, with the middle step memoised per engine (§3.5.1's prepared
//! statement, applied to every shard statement a worker receives).
//!
//! [`prepare`] encodes the statement's shape ([`sqlparse::shape`]): a
//! skeleton with the value literals lifted out, and the literals themselves
//! as a slot vector. For the **cacheable class** — single-table `SELECT` /
//! `UPDATE` / `DELETE` / `INSERT … VALUES` without subqueries, which is what
//! fast-path and router tasks are — the plan is built from the statement's
//! generic form (`$n` where the literals were, bound to [`BExpr::Param`]
//! slots), kept in the engine's [`ShapeCache`] under the skeleton's hash, and
//! run by binding the slot vector into the evaluation context. A miss is
//! "plan, insert, bind, run"; a hit is "bind, run". Statements outside the
//! class go through the same planner and executor functions as written
//! (literals bind to constants) and are not inserted.
//!
//! An entry is valid for one catalog version ([`Engine::catalog_version`],
//! bumped by every DDL entry point) and stores its skeleton: a lookup whose
//! skeleton differs — a 64-bit hash collision — is a miss, never a wrong
//! plan.
//!
//! [`BExpr::Param`]: crate::expr::BExpr::Param

use crate::dml::{self, DeletePlan, InsertPlan, UpdatePlan};
use crate::engine::Engine;
use crate::error::{PgError, PgResult};
use crate::exec::{self, ExecCtx};
use crate::expr::literal_datum;
use crate::plan::SelectPlan;
use crate::session::QueryResult;
use crate::types::Datum;
use sqlparse::ast::{Expr, InsertSource, Statement, TableRef};
use sqlparse::shape::{self, Facts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss counters plus current size of a [`ShapeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    /// Entries found stale (planned under an older version) and evicted.
    pub invalidations: u64,
}

impl ShapeCacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sum of two nodes' counters.
    pub fn merged(self, other: ShapeCacheStats) -> ShapeCacheStats {
        ShapeCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
            invalidations: self.invalidations + other.invalidations,
        }
    }
}

/// A bounded map from statement shape hash to something planned for that
/// shape under one version of whatever the plan depends on (the engine's
/// catalog version here; the cluster's metadata generation for the
/// distributed plan cache). All methods take `&self`; the map serialises
/// internally and the counters are atomic.
pub struct ShapeCache<V> {
    entries: Mutex<HashMap<u64, (u64, V)>>,
    /// The whole map is cleared when it reaches this size (shape churn at
    /// that scale means the workload is not CRUD-shaped anyway).
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl<V> ShapeCache<V> {
    pub fn new(capacity: usize) -> ShapeCache<V> {
        ShapeCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<u64, (u64, V)>> {
        // every update leaves the map valid, so a panicked holder cannot
        // have left it half-written
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a shape under the current `version` and let `pick` take what
    /// it needs from the entry (`None` from `pick` rejects the entry: not the
    /// statement it was planned for). Counts a hit or a miss; a stale entry
    /// is evicted and reported as a miss.
    pub fn lookup<R>(&self, key: u64, version: u64, pick: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let mut entries = self.entries();
        let found = match entries.get(&key) {
            Some((planned_under, value)) if *planned_under == version => pick(value),
            Some(_) => {
                entries.remove(&key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Record what was planned for a shape under `version`.
    pub fn insert(&self, key: u64, version: u64, value: V) {
        let mut entries = self.entries();
        if entries.len() >= self.capacity {
            entries.clear();
        }
        entries.insert(key, (version, value));
    }

    pub fn stats(&self) -> ShapeCacheStats {
        ShapeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries().len(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    pub fn clear(&self) {
        self.entries().clear();
    }
}

/// A planned statement of any cacheable kind.
#[derive(Debug)]
pub enum StmtPlan {
    Select(Box<SelectPlan>),
    Insert(InsertPlan),
    Update(UpdatePlan),
    Delete(DeletePlan),
}

/// A cached generic plan and the skeleton of the statement it was built for.
pub(crate) struct CachedPlan {
    skeleton: Box<[u8]>,
    plan: Arc<StmtPlan>,
}

/// Entry bound of an engine's plan cache.
pub(crate) const MAX_ENTRIES: usize = 512;

/// Statements with a longer skeleton are not cached: with `MAX_ENTRIES` this
/// bounds the cache's memory however the shapes churn (multi-row `VALUES`
/// and `IN` lists of every length are distinct shapes).
const MAX_SKELETON: usize = 1024;

/// Skeleton and slot values of one statement.
struct Encoder {
    skeleton: Vec<u8>,
    values: Vec<Datum>,
}

impl Encoder {
    fn of(stmt: &Statement) -> (Encoder, Facts) {
        // a point statement's skeleton is ~100 bytes
        let mut enc = Encoder { skeleton: Vec::with_capacity(256), values: Vec::new() };
        let facts = shape::walk(stmt, &mut enc);
        (enc, facts)
    }
}

impl shape::Visit<'_> for Encoder {
    // a statement past the bound is planned as written: stop collecting
    fn byte(&mut self, b: u8) {
        if self.skeleton.len() <= MAX_SKELETON {
            self.skeleton.push(b);
        }
    }

    fn value(&mut self, e: &Expr) {
        if let (Expr::Literal(l), true) = (e, self.skeleton.len() <= MAX_SKELETON) {
            self.values.push(literal_datum(l));
        }
    }
}

/// The cacheable class, as far as the statement's top level shows it.
fn single_table(stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(s) => matches!(&s.from[..], [TableRef::Table { .. }]),
        Statement::Insert(i) => matches!(i.source, InsertSource::Values(_)),
        Statement::Update(_) | Statement::Delete(_) => true,
        _ => false,
    }
}

fn cacheable(stmt: &Statement, facts: &Facts, skeleton: &[u8]) -> bool {
    single_table(stmt)
        && !facts.nested_select
        && !facts.params
        && !facts.folded_in_list
        && skeleton.len() <= MAX_SKELETON
}

/// Plan a statement as written.
fn plan(ctx: &mut ExecCtx, stmt: &Statement) -> PgResult<StmtPlan> {
    Ok(match stmt {
        Statement::Select(sel) => StmtPlan::Select(Box::new(exec::build_select_plan(ctx, sel)?)),
        Statement::Insert(ins) => StmtPlan::Insert(dml::plan_insert(ctx, ins)?),
        Statement::Update(upd) => StmtPlan::Update(dml::plan_update(ctx, upd)?),
        Statement::Delete(del) => StmtPlan::Delete(dml::plan_delete(ctx, del)?),
        other => return Err(PgError::internal(format!("no plan for {other:?}"))),
    })
}

/// The statement's plan, from the engine's cache when its shape is warm,
/// with the statement's values bound into `ctx`.
pub fn prepare(ctx: &mut ExecCtx, stmt: &Statement) -> PgResult<Arc<StmtPlan>> {
    let (enc, facts) = Encoder::of(stmt);
    if !cacheable(stmt, &facts, &enc.skeleton) {
        if facts.nested_select {
            // subqueries run first and leave their results behind
            let mut flat = stmt.clone();
            crate::plan::inline_subqueries(&mut flat, &mut exec::CtxSubquery { ctx })?;
            return Ok(Arc::new(plan(ctx, &flat)?));
        }
        return Ok(Arc::new(plan(ctx, stmt)?));
    }
    let engine: &Engine = ctx.engine;
    let key = shape::fnv1a(&enc.skeleton);
    // read before planning: a plan built from a newer catalog than its stamp
    // is merely evicted early, never served stale
    let version = engine.catalog_version();
    let cached = engine.plan_cache.lookup(key, version, |c: &CachedPlan| {
        (*c.skeleton == *enc.skeleton).then(|| c.plan.clone())
    });
    let planned = match cached {
        Some(plan) => plan,
        None => {
            let mut generic = stmt.clone();
            shape::lift(&mut generic);
            let planned = Arc::new(plan(ctx, &generic)?);
            let entry = CachedPlan { skeleton: enc.skeleton.into(), plan: planned.clone() };
            engine.plan_cache.insert(key, version, entry);
            planned
        }
    };
    ctx.eval_ctx.params = enc.values;
    Ok(planned)
}

/// Run a prepared plan.
pub fn run(ctx: &mut ExecCtx, plan: &StmtPlan) -> PgResult<QueryResult> {
    Ok(match plan {
        StmtPlan::Select(p) => {
            let (columns, rows) = exec::run_select_plan(ctx, p)?;
            QueryResult::Rows { columns, rows }
        }
        StmtPlan::Insert(p) => QueryResult::Affected(dml::run_insert(ctx, p)?),
        StmtPlan::Update(p) => QueryResult::Affected(dml::run_update(ctx, p)?),
        StmtPlan::Delete(p) => QueryResult::Affected(dml::run_delete(ctx, p)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_version_is_evicted_as_miss() {
        let cache: ShapeCache<u8> = ShapeCache::new(8);
        cache.insert(7, 1, 42);
        assert_eq!(cache.lookup(7, 1, |v| Some(*v)), Some(42));
        assert_eq!(cache.lookup(7, 2, |v| Some(*v)), None, "version bump invalidates");
        assert_eq!(cache.lookup(7, 2, |v| Some(*v)), None, "entry was evicted, not retried");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.invalidations), (1, 2, 0, 1));
    }

    #[test]
    fn a_rejected_entry_is_a_miss() {
        let cache: ShapeCache<u8> = ShapeCache::new(8);
        cache.insert(7, 1, 42);
        assert_eq!(cache.lookup(7, 1, |_| None::<u8>), None);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().entries, 1, "the entry is current; only its owner differs");
    }

    #[test]
    fn cache_bounds_its_size() {
        let cache: ShapeCache<u8> = ShapeCache::new(16);
        for k in 0..40 {
            cache.insert(k, 0, 0);
        }
        assert!(cache.stats().entries <= 16);
    }

    /// A 64-bit collision: another shape's plan sits under this statement's
    /// hash. The skeleton check turns it into a miss, and the statement is
    /// planned for what it is.
    #[test]
    fn a_hash_collision_is_a_miss_never_a_wrong_plan() {
        let engine = Engine::new_default();
        let mut s = engine.session().unwrap();
        s.execute("CREATE TABLE t (k bigint PRIMARY KEY, v text)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
        let victim = sqlparse::parse("SELECT v FROM t WHERE k = 2").unwrap();
        let (enc, _) = Encoder::of(&victim);
        let key = shape::fnv1a(&enc.skeleton);

        // plan another shape and file it under the victim's hash
        s.execute("SELECT k FROM t WHERE v = 'one'").unwrap();
        let (other, _) = Encoder::of(&sqlparse::parse("SELECT k FROM t WHERE v = 'one'").unwrap());
        let version = engine.catalog_version();
        let impostor = engine
            .plan_cache
            .lookup(shape::fnv1a(&other.skeleton), version, |c| Some(c.plan.clone()))
            .expect("just planned");
        engine.plan_cache.insert(
            key,
            version,
            CachedPlan { skeleton: other.skeleton.into(), plan: impostor },
        );

        let before = engine.plan_cache_stats();
        let rows = s.execute_stmt(&victim).unwrap().into_rows();
        assert_eq!(rows, vec![vec![Datum::from_text("two")]]);
        let after = engine.plan_cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
        // the slot is now the victim's own
        s.execute_stmt(&victim).unwrap();
        assert_eq!(engine.plan_cache_stats().hits, after.hits + 1);
    }
}
