//! Incrementally maintained distributed rollups.
//!
//! `CREATE ROLLUP name AS SELECT <group cols>, <aggregates> FROM source
//! [WHERE ...] GROUP BY <group cols>` materialises a grouped aggregate over
//! one hash-distributed table as an ordinary distributed table, then keeps it
//! current by consuming the [`crate::changefeed`] of every source shard and
//! applying **deltas** instead of recomputing:
//!
//! * `count(*)` / `count(e)` — add the signed row/non-null counts;
//! * `sum(e)` — add the signed value sum (wrapping i64 for integer
//!   arguments — commutative, so batch order never matters — f64 for float);
//! * `avg(e)` — maintained as (f64 sum, non-null count), finalised as
//!   `sum / count` exactly like the engine's own `AggState`;
//! * `min(e)` / `max(e)` — maintained extreme with a *recount* fallback:
//!   when a retracted value ties the tentative extreme, the group is
//!   re-aggregated from the source with a distributed query.
//!
//! Hidden state columns (`_g` group cardinality, `_n<i>` / `_s<i>` per
//! aggregate) ride on the rollup table after the visible columns, so reads
//! are plain distributed SELECTs with zero executor changes.
//!
//! **Exactly-once:** each refresh applies group deltas and advances the
//! durable changefeed cursors in one distributed transaction. A crash either
//! keeps both or neither; 2PC recovery resolves in-doubt windows. Cursor
//! ordinals survive crash/promote (WAL restore preserves committed-change
//! order), and shard moves hand cursors to the destination at the `switched`
//! journal phase (see [`handoff_cursors`]).

use crate::changefeed::{self, Cursor};
use crate::cluster::{ClientSession, Cluster};
use crate::metadata::{NodeId, PartitionMethod, ShardId};
use parking_lot::{Mutex, MutexGuard, RwLock};
use pgmini::engine::Engine;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::expr::{self, BExpr, EvalCtx, RowScope};
use pgmini::plan::AggKind;
use pgmini::types::{Datum, Row};
use pgmini::wal::{Change, Lsn};
use sqlparse::ast::{
    BinaryOp, CreateRollup, Expr, Literal, Select, SelectItem, Statement, TableRef, TypeName,
    UnaryOp,
};
use sqlparse::deparse::{deparse_expr, quote_ident, quote_literal};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};

/// Durable rollup-definition catalog (coordinator-local, created everywhere
/// so a promoted standby can serve it).
pub const ROLLUPS_TABLE: &str = "citrus_rollups";

// ---------------------------------------------------------------------------
// definitions
// ---------------------------------------------------------------------------

/// One GROUP BY key column of a rollup.
#[derive(Debug, Clone)]
pub struct GroupCol {
    pub name: String,
    pub expr: Expr,
    pub ty: TypeName,
    /// Position among the visible columns.
    pub vis_idx: usize,
}

/// One aggregate column of a rollup.
#[derive(Debug, Clone)]
pub struct AggCol {
    pub name: String,
    pub kind: AggKind,
    /// Aggregate argument (`None` only for `count(*)`).
    pub arg: Option<Expr>,
    /// Inferred argument type (drives the sum representation).
    pub arg_ty: TypeName,
    /// Declared type of the visible column.
    pub out_ty: TypeName,
    /// Position among the visible columns.
    pub vis_idx: usize,
    /// Physical positions of the hidden state columns in the full row
    /// (visible columns, then `_g`, then hidden state), when present.
    pub n_idx: Option<usize>,
    pub s_idx: Option<usize>,
}

/// A visible column slot: group key or aggregate, in projection order.
#[derive(Debug, Clone, Copy)]
pub enum ColSlot {
    Group(usize),
    Agg(usize),
}

/// Validated rollup definition.
#[derive(Debug, Clone)]
pub struct RollupDef {
    pub name: String,
    pub source: String,
    pub where_clause: Option<Expr>,
    pub groups: Vec<GroupCol>,
    pub aggs: Vec<AggCol>,
    /// Visible columns in projection order.
    pub layout: Vec<ColSlot>,
    /// Deparsed defining SELECT (stored in the catalog; also the from-scratch
    /// recompute query the differential wall runs).
    pub definition_sql: String,
}

impl RollupDef {
    pub fn n_visible(&self) -> usize {
        self.layout.len()
    }

    /// Physical index of the `_g` column.
    pub fn g_idx(&self) -> usize {
        self.layout.len()
    }

    /// Visible column names in projection order.
    pub fn visible_names(&self) -> Vec<&str> {
        self.layout
            .iter()
            .map(|slot| match slot {
                ColSlot::Group(g) => self.groups[*g].name.as_str(),
                ColSlot::Agg(a) => self.aggs[*a].name.as_str(),
            })
            .collect()
    }

    /// `CREATE TABLE` DDL for the backing table: visible columns in
    /// projection order, then `_g`, then per-aggregate hidden state.
    pub fn create_table_sql(&self) -> String {
        let mut cols: Vec<String> = Vec::new();
        for slot in &self.layout {
            let (name, ty) = match slot {
                ColSlot::Group(g) => (&self.groups[*g].name, self.groups[*g].ty),
                ColSlot::Agg(a) => (&self.aggs[*a].name, self.aggs[*a].out_ty),
            };
            cols.push(format!("{} {}", quote_ident(name), ty.as_str()));
        }
        cols.push("_g bigint".to_string());
        for (i, agg) in self.aggs.iter().enumerate() {
            if agg.n_idx.is_some() {
                cols.push(format!("_n{i} bigint"));
            }
            if agg.s_idx.is_some() {
                let ty = if agg.arg_ty == TypeName::Int && agg.kind == AggKind::Sum {
                    TypeName::Int
                } else {
                    TypeName::Float
                };
                cols.push(format!("_s{i} {}", ty.as_str()));
            }
        }
        // distribution bucket: a non-null hash of the first group key, so
        // groups with a NULL key still route to a definite shard
        cols.push("_b bigint".to_string());
        format!("CREATE TABLE {} ({})", quote_ident(&self.name), cols.join(", "))
    }

    /// Distribution-bucket value for a group-key tuple (keys in `groups`
    /// order). Hash of the first key; `Datum::hash64` maps NULL too.
    pub(crate) fn bucket(keys: &[Datum]) -> i64 {
        crate::metadata::dist_hash(&keys[0]) as i64
    }

    /// All physical column names, in table order.
    fn physical_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> =
            self.visible_names().iter().map(|n| quote_ident(n)).collect();
        cols.push("_g".to_string());
        for (i, agg) in self.aggs.iter().enumerate() {
            if agg.n_idx.is_some() {
                cols.push(format!("_n{i}"));
            }
            if agg.s_idx.is_some() {
                cols.push(format!("_s{i}"));
            }
        }
        cols.push("_b".to_string());
        cols
    }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

/// In-memory LSN fast path for one (rollup, shard) stream: "the durable
/// cursor at `seq` corresponds to LSN `lsn` of this engine incarnation".
/// Never durable — a promoted or restored engine gets a fresh `Arc`, the
/// pointer check fails, and the consumer falls back to a full decode.
pub struct StreamHint {
    node: NodeId,
    engine: Weak<Engine>,
    lsn: Lsn,
    seq: u64,
}

/// Cluster-wide rollup registry. Lives on [`Cluster`] (not on any engine) so
/// it survives crash/promote engine replacement.
#[derive(Default)]
pub struct Rollups {
    defs: RwLock<BTreeMap<String, Arc<RollupDef>>>,
    /// Serialises refresh, DDL, and cursor handoff. Internal statements that
    /// can re-enter the planner hook use `try_lock` and skip (a possibly
    /// stale read beats a self-deadlock).
    refresh_lock: Mutex<()>,
    hints: Mutex<HashMap<(String, u64), StreamHint>>,
}

impl Rollups {
    /// Cheap emptiness probe: the zero-cost-when-unused fast path for the
    /// planner hook and the rebalancer.
    pub fn is_empty(&self) -> bool {
        self.defs.read().is_empty()
    }

    pub fn get(&self, name: &str) -> Option<Arc<RollupDef>> {
        self.defs.read().get(name).cloned()
    }

    pub fn names(&self) -> Vec<String> {
        self.defs.read().keys().cloned().collect()
    }

    pub fn lock_refresh(&self) -> MutexGuard<'_, ()> {
        self.refresh_lock.lock()
    }

    pub fn try_lock_refresh(&self) -> Option<MutexGuard<'_, ()>> {
        self.refresh_lock.try_lock()
    }

    fn register(&self, def: Arc<RollupDef>) {
        self.defs.write().insert(def.name.clone(), def);
    }

    fn unregister(&self, name: &str) {
        self.defs.write().remove(name);
        self.hints.lock().retain(|(r, _), _| r != name);
    }

    fn clear(&self) {
        self.defs.write().clear();
        self.hints.lock().clear();
    }

    /// Valid hint for `(rollup, shard)` against the given live engine.
    fn hint(&self, rollup: &str, shard: ShardId, engine: &Arc<Engine>) -> Option<(Lsn, u64)> {
        let hints = self.hints.lock();
        let h = hints.get(&(rollup.to_string(), shard.0))?;
        let live = h.engine.upgrade()?;
        if Arc::ptr_eq(&live, engine) {
            Some((h.lsn, h.seq))
        } else {
            None
        }
    }

    fn set_hint(&self, rollup: &str, shard: ShardId, node: NodeId, engine: &Arc<Engine>, lsn: Lsn, seq: u64) {
        self.hints.lock().insert(
            (rollup.to_string(), shard.0),
            StreamHint { node, engine: Arc::downgrade(engine), lsn, seq },
        );
    }

    fn invalidate(&self, rollup: &str, shard: ShardId) {
        self.hints.lock().remove(&(rollup.to_string(), shard.0));
    }

    /// Are all of this rollup's streams provably current (hint matches the
    /// placement's live engine and the log has not grown)? Lock-free
    /// staleness probe for the on-read path.
    fn all_current(&self, cluster: &Arc<Cluster>, def: &RollupDef) -> bool {
        let shards: Vec<ShardId> = {
            let meta = cluster.metadata.read_recursive();
            match meta.table(&def.source) {
                Some(t) => t.shards.clone(),
                None => return false,
            }
        };
        let hints = self.hints.lock();
        shards.iter().all(|sid| {
            let Some(h) = hints.get(&(def.name.clone(), sid.0)) else { return false };
            let Some(live) = h.engine.upgrade() else { return false };
            let Ok(node) = cluster.node(h.node) else { return false };
            Arc::ptr_eq(&live, &node.engine()) && live.wal.lsn() == h.lsn
        })
    }
}

// ---------------------------------------------------------------------------
// definition parsing & validation
// ---------------------------------------------------------------------------

/// Validate a `CREATE ROLLUP` defining query against the cluster and source
/// table schema, producing the full physical layout.
pub fn parse_definition(
    cluster: &Arc<Cluster>,
    name: &str,
    query: &Select,
) -> PgResult<Arc<RollupDef>> {
    let bad = |msg: String| PgError::new(ErrorCode::FeatureNotSupported, msg);
    if query.distinct {
        return Err(bad("ROLLUP definitions cannot use DISTINCT".into()));
    }
    if query.having.is_some() {
        return Err(bad("ROLLUP definitions cannot use HAVING".into()));
    }
    if !query.order_by.is_empty() || query.limit.is_some() || query.offset.is_some() {
        return Err(bad("ROLLUP definitions cannot use ORDER BY / LIMIT / OFFSET".into()));
    }
    if query.for_update {
        return Err(bad("ROLLUP definitions cannot use FOR UPDATE".into()));
    }
    let source = match query.from.as_slice() {
        [TableRef::Table { name, alias: None }] => name.clone(),
        [TableRef::Table { alias: Some(_), .. }] => {
            return Err(bad("ROLLUP definitions cannot alias the source table".into()))
        }
        _ => return Err(bad("ROLLUP definitions must select from exactly one table".into())),
    };
    if query.group_by.is_empty() {
        return Err(bad("ROLLUP definitions require a GROUP BY clause".into()));
    }
    // the source must be a hash-distributed citrus table (the changefeed
    // follows shard placements)
    {
        let meta = cluster.metadata.read_recursive();
        let t = meta.require_table(&source)?;
        if t.method != PartitionMethod::Hash {
            return Err(bad(format!(
                "ROLLUP source \"{source}\" must be a hash-distributed table"
            )));
        }
    }
    // source schema, from the coordinator's shell table
    let src_cols: Vec<(String, TypeName)> = {
        let engine = cluster.node(NodeId(0))?.engine();
        let catalog = engine.catalog.read();
        let meta = catalog.table_by_name(&source)?;
        meta.columns.iter().map(|c| (c.name.clone(), c.ty)).collect()
    };
    let col_names: Vec<String> = src_cols.iter().map(|(n, _)| n.clone()).collect();
    let scope = RowScope::of_table(&source, &col_names);

    // scalar-expression validation shared by group keys, WHERE, and agg args
    let check_scalar = |e: &Expr, what: &str| -> PgResult<()> {
        // the first rejected node in pre-order names the error
        let mut first: Option<PgError> = None;
        e.walk(&mut |x| {
            first = first.take().or_else(|| match x {
                Expr::Func(f) if AggKind::resolve(&f.name, f.star).is_some() => Some(bad(format!(
                    "aggregate calls are not allowed in the {what} of a ROLLUP definition"
                ))),
                Expr::Func(f) if is_nondeterministic(&f.name) => Some(bad(format!(
                    "nondeterministic function {}() in a ROLLUP definition",
                    f.name
                ))),
                Expr::Param(_) => {
                    Some(bad("parameters are not allowed in ROLLUP definitions".into()))
                }
                Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
                    Some(bad("subqueries are not allowed in ROLLUP definitions".into()))
                }
                _ => None,
            })
        });
        first.map_or(Ok(()), Err)?;
        // resolve columns now so CREATE fails instead of the first refresh
        expr::bind(e, &scope).map(|_| ())
    };

    if let Some(w) = &query.where_clause {
        check_scalar(w, "WHERE clause")?;
    }
    for g in &query.group_by {
        check_scalar(g, "GROUP BY clause")?;
    }

    let mut groups: Vec<GroupCol> = Vec::new();
    let mut aggs: Vec<AggCol> = Vec::new();
    let mut layout: Vec<ColSlot> = Vec::new();
    let mut group_seen = vec![false; query.group_by.len()];
    for item in &query.projection {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(bad("ROLLUP projections cannot use * wildcards".into()));
        };
        let agg = match expr {
            Expr::Func(f) => AggKind::resolve(&f.name, f.star).map(|kind| (f, kind)),
            _ => None,
        };
        match agg {
            Some((f, kind)) => {
                if f.distinct {
                    return Err(bad(format!(
                        "{}(DISTINCT ...) cannot be incrementally maintained",
                        f.name
                    )));
                }
                let arg = match (kind, f.args.as_slice()) {
                    // count(*) parses with no argument
                    (AggKind::CountStar, _) => None,
                    (_, [a]) => Some(a.clone()),
                    _ => {
                        return Err(bad(format!(
                            "{}() takes exactly one argument in a ROLLUP definition",
                            f.name
                        )))
                    }
                };
                let arg_ty = match &arg {
                    None => TypeName::Int,
                    Some(a) => {
                        check_scalar(a, "aggregate argument")?;
                        infer_ty(a, &src_cols)?
                    }
                };
                let out_ty = agg_out_ty(kind, arg_ty, &f.name)?;
                let name = alias.clone().unwrap_or_else(|| f.name.clone());
                layout.push(ColSlot::Agg(aggs.len()));
                aggs.push(AggCol {
                    name,
                    kind,
                    arg,
                    arg_ty,
                    out_ty,
                    vis_idx: layout.len() - 1,
                    n_idx: None,
                    s_idx: None,
                });
            }
            None => {
                // a group key: must be structurally equal to a GROUP BY item
                let pos = query
                    .group_by
                    .iter()
                    .position(|g| g == expr)
                    .ok_or_else(|| {
                        bad(format!(
                            "projection expression {} is neither an aggregate nor a GROUP BY key",
                            deparse_expr(expr)
                        ))
                    })?;
                if group_seen[pos] {
                    return Err(bad(format!(
                        "GROUP BY key {} projected more than once",
                        deparse_expr(expr)
                    )));
                }
                group_seen[pos] = true;
                let name = match (alias, expr) {
                    (Some(a), _) => a.clone(),
                    (None, Expr::Column { name, .. }) => name.clone(),
                    (None, e) => {
                        return Err(bad(format!(
                            "GROUP BY expression {} needs an AS alias in the projection",
                            deparse_expr(e)
                        )))
                    }
                };
                let ty = infer_ty(expr, &src_cols)?;
                layout.push(ColSlot::Group(groups.len()));
                groups.push(GroupCol {
                    name,
                    expr: expr.clone(),
                    ty,
                    vis_idx: layout.len() - 1,
                });
            }
        }
    }
    if let Some(missing) = group_seen.iter().position(|seen| !seen) {
        return Err(bad(format!(
            "GROUP BY key {} must appear in the projection",
            deparse_expr(&query.group_by[missing])
        )));
    }
    // column-name hygiene: unique, non-empty, no collisions with the hidden
    // state namespace
    let mut seen_names = std::collections::HashSet::new();
    for slot in &layout {
        let n = match slot {
            ColSlot::Group(g) => &groups[*g].name,
            ColSlot::Agg(a) => &aggs[*a].name,
        };
        if n.is_empty() || n.starts_with('_') {
            return Err(bad(format!(
                "rollup column name \"{n}\" is reserved (names may not start with '_')"
            )));
        }
        if !seen_names.insert(n.clone()) {
            return Err(bad(format!(
                "duplicate rollup column name \"{n}\" — add AS aliases"
            )));
        }
    }
    // assign hidden-state physical positions
    let mut next = layout.len() + 1; // after visible columns and _g
    for agg in aggs.iter_mut() {
        match agg.kind {
            AggKind::CountStar => {}
            AggKind::Count | AggKind::Min | AggKind::Max => {
                agg.n_idx = Some(next);
                next += 1;
            }
            AggKind::Sum | AggKind::Avg => {
                agg.n_idx = Some(next);
                agg.s_idx = Some(next + 1);
                next += 2;
            }
        }
    }
    if !layout.iter().any(|s| matches!(s, ColSlot::Group(_))) {
        return Err(bad("ROLLUP definitions need at least one group column".into()));
    }
    Ok(Arc::new(RollupDef {
        name: name.to_string(),
        source,
        where_clause: query.where_clause.clone(),
        groups,
        aggs,
        layout,
        definition_sql: sqlparse::deparse(&Statement::Select(Box::new(query.clone()))),
    }))
}

fn agg_out_ty(kind: AggKind, arg_ty: TypeName, fname: &str) -> PgResult<TypeName> {
    let numeric = matches!(arg_ty, TypeName::Int | TypeName::Float);
    Ok(match kind {
        AggKind::CountStar | AggKind::Count => TypeName::Int,
        AggKind::Sum => {
            if !numeric {
                return Err(PgError::new(
                    ErrorCode::FeatureNotSupported,
                    format!("{fname}() needs a numeric argument in a ROLLUP definition"),
                ));
            }
            arg_ty
        }
        AggKind::Avg => {
            if !numeric {
                return Err(PgError::new(
                    ErrorCode::FeatureNotSupported,
                    format!("{fname}() needs a numeric argument in a ROLLUP definition"),
                ));
            }
            TypeName::Float
        }
        AggKind::Min | AggKind::Max => match arg_ty {
            TypeName::Int | TypeName::Float | TypeName::Text | TypeName::Timestamp => arg_ty,
            _ => {
                return Err(PgError::new(
                    ErrorCode::FeatureNotSupported,
                    format!("{fname}() argument type is not orderable in a ROLLUP definition"),
                ))
            }
        },
    })
}

fn is_nondeterministic(name: &str) -> bool {
    matches!(name, "random" | "now" | "current_timestamp" | "current_date" | "clock_timestamp")
}

/// Static type inference for rollup expressions. Must agree with the runtime
/// `Datum` the engine produces — the declared column type is what keeps
/// incremental state and from-scratch recompute byte-identical.
fn infer_ty(e: &Expr, cols: &[(String, TypeName)]) -> PgResult<TypeName> {
    let cannot = |e: &Expr| {
        PgError::new(
            ErrorCode::FeatureNotSupported,
            format!(
                "cannot infer the type of {} in a ROLLUP definition; add an explicit cast",
                deparse_expr(e)
            ),
        )
    };
    Ok(match e {
        Expr::Column { name, .. } => {
            cols.iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| PgError::new(ErrorCode::UndefinedColumn, format!("column \"{name}\" does not exist")))?
                .1
        }
        Expr::Literal(Literal::Int(_)) => TypeName::Int,
        Expr::Literal(Literal::Float(_)) => TypeName::Float,
        Expr::Literal(Literal::String(_)) => TypeName::Text,
        Expr::Literal(Literal::Bool(_)) => TypeName::Bool,
        Expr::Literal(Literal::Null) => return Err(cannot(e)),
        Expr::Cast { ty, .. } => *ty,
        Expr::Unary { op: UnaryOp::Neg, expr } => {
            let t = infer_ty(expr, cols)?;
            if !matches!(t, TypeName::Int | TypeName::Float) {
                return Err(cannot(e));
            }
            t
        }
        Expr::Unary { op: UnaryOp::Not, .. } => TypeName::Bool,
        Expr::Binary { left, op, right } => match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let lt = infer_ty(left, cols)?;
                let rt = infer_ty(right, cols)?;
                match (lt, rt) {
                    (TypeName::Int, TypeName::Int) => TypeName::Int,
                    (TypeName::Int | TypeName::Float, TypeName::Int | TypeName::Float) => {
                        TypeName::Float
                    }
                    _ => return Err(cannot(e)),
                }
            }
            BinaryOp::Concat | BinaryOp::JsonGetText => TypeName::Text,
            BinaryOp::JsonGet => TypeName::Json,
            _ => TypeName::Bool,
        },
        Expr::Like { .. } | Expr::Between { .. } | Expr::InList { .. } | Expr::IsNull { .. } => {
            TypeName::Bool
        }
        Expr::Func(f) => match f.name.as_str() {
            "jsonb_array_length" | "length" | "char_length" | "position" | "strpos" => {
                TypeName::Int
            }
            "lower" | "upper" | "replace" | "substr" | "substring" | "concat" | "md5" => {
                TypeName::Text
            }
            "abs" => infer_ty(f.args.first().ok_or_else(|| cannot(e))?, cols)?,
            _ => return Err(cannot(e)),
        },
        _ => return Err(cannot(e)),
    })
}

// ---------------------------------------------------------------------------
// DDL entry points
// ---------------------------------------------------------------------------

/// `CREATE ROLLUP`: validate, create + distribute the backing table, seed the
/// catalogs and per-shard cursors, then run the initial fill **through the
/// changefeed itself** — the WAL carries the source's full committed history,
/// so the exactly-once delta machinery bootstraps the content with no
/// snapshot race.
pub fn create(cluster: &Arc<Cluster>, cr: &CreateRollup) -> PgResult<()> {
    if cluster.rollups.get(&cr.name).is_some() {
        if cr.if_not_exists {
            return Ok(());
        }
        return Err(PgError::new(
            ErrorCode::DuplicateObject,
            format!("rollup \"{}\" already exists", cr.name),
        ));
    }
    let def = parse_definition(cluster, &cr.name, &cr.query)?;
    {
        let meta = cluster.metadata.read_recursive();
        if meta.is_citrus_table(&cr.name) {
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("relation \"{}\" already exists", cr.name),
            ));
        }
    }
    let _guard = cluster.rollups.lock_refresh();
    let mut sess = cluster.session()?;
    sess.execute(&def.create_table_sql())?;
    let seeded = (|| -> PgResult<()> {
        sess.execute(&format!(
            "SELECT create_distributed_table({}, '_b')",
            quote_literal(&def.name)
        ))?;
        sess.execute(&format!(
            "INSERT INTO {ROLLUPS_TABLE} (name, source, definition) VALUES ({}, {}, {})",
            quote_literal(&def.name),
            quote_literal(&def.source),
            quote_literal(&def.definition_sql)
        ))?;
        let placements: Vec<(ShardId, NodeId)> = {
            let meta = cluster.metadata.read_recursive();
            let t = meta.require_table(&def.source)?;
            t.shards
                .iter()
                .map(|sid| meta.shard(*sid).map(|s| (s.id, s.placements[0])))
                .collect::<PgResult<_>>()?
        };
        for (shard, node) in placements {
            sess.execute(&changefeed::insert_cursor_sql(&def.name, shard, node, 0))?;
        }
        Ok(())
    })();
    if let Err(e) = seeded {
        let _ = drop_rollup_state(&mut sess, &def.name);
        return Err(e);
    }
    cluster.rollups.register(def.clone());
    if let Err(e) = refresh_locked(cluster, &def) {
        cluster.rollups.unregister(&def.name);
        let _ = drop_rollup_state(&mut sess, &def.name);
        return Err(e);
    }
    Ok(())
}

/// Drop a rollup's backing table, its changefeed cursors and its catalog row.
/// All three are attempted; the first error is returned.
fn drop_rollup_state(sess: &mut ClientSession, name: &str) -> PgResult<()> {
    let table = sess.execute(&format!("DROP TABLE IF EXISTS {}", quote_ident(name)));
    let cursors = sess.execute(&changefeed::delete_cursors_sql(name));
    let row =
        sess.execute(&format!("DELETE FROM {ROLLUPS_TABLE} WHERE name = {}", quote_literal(name)));
    table.and(cursors).and(row).map(drop)
}

/// `DROP ROLLUP`: drop the backing table and all catalog state.
pub fn drop_rollup(cluster: &Arc<Cluster>, name: &str, if_exists: bool) -> PgResult<()> {
    if cluster.rollups.get(name).is_none() {
        if if_exists {
            return Ok(());
        }
        return Err(PgError::undefined_table(name));
    }
    let _guard = cluster.rollups.lock_refresh();
    drop_rollup_state(&mut cluster.session()?, name)?;
    cluster.rollups.unregister(name);
    Ok(())
}

/// Rebuild the registry from the durable catalog (backup restore, promoted
/// coordinator). Definitions whose source table vanished are skipped.
pub fn reload_registry(cluster: &Arc<Cluster>) -> PgResult<usize> {
    let rows = changefeed::coordinator_query(
        cluster,
        &format!("SELECT name, definition FROM {ROLLUPS_TABLE} ORDER BY name"),
    )?;
    cluster.rollups.clear();
    let mut loaded = 0;
    for row in rows {
        let (Some(Datum::Text(name)), Some(Datum::Text(sql))) = (row.first(), row.get(1)) else {
            continue;
        };
        let Ok(Statement::Select(query)) = sqlparse::parse(sql) else { continue };
        if let Ok(def) = parse_definition(cluster, name, &query) {
            cluster.rollups.register(def);
            loaded += 1;
        }
    }
    Ok(loaded)
}

// ---------------------------------------------------------------------------
// delta accumulation
// ---------------------------------------------------------------------------

/// Pre-bound definition expressions against the source row layout.
struct BoundDef {
    where_clause: Option<BExpr>,
    groups: Vec<BExpr>,
    args: Vec<Option<BExpr>>,
}

fn bind_def(cluster: &Arc<Cluster>, def: &RollupDef) -> PgResult<BoundDef> {
    let col_names: Vec<String> = {
        let engine = cluster.node(NodeId(0))?.engine();
        let catalog = engine.catalog.read();
        catalog.table_by_name(&def.source)?.columns.iter().map(|c| c.name.clone()).collect()
    };
    let scope = RowScope::of_table(&def.source, &col_names);
    Ok(BoundDef {
        where_clause: def
            .where_clause
            .as_ref()
            .map(|w| expr::bind(w, &scope))
            .transpose()?,
        groups: def
            .groups
            .iter()
            .map(|g| expr::bind(&g.expr, &scope))
            .collect::<PgResult<_>>()?,
        args: def
            .aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| expr::bind(e, &scope)).transpose())
            .collect::<PgResult<_>>()?,
    })
}

/// Signed per-aggregate delta for one group.
#[derive(Debug, Default, Clone)]
struct AggDelta {
    /// Non-null argument count delta.
    dn: i64,
    /// Integer sum delta (wrapping — commutative, so batch split points never
    /// change the result).
    ds_i: i64,
    /// Float sum delta.
    ds_f: f64,
    /// Non-null inserted values (min/max candidates).
    inserted: Vec<Datum>,
    /// Non-null retracted values (min/max recount triggers).
    retracted: Vec<Datum>,
}

/// Signed delta for one group key.
#[derive(Debug, Clone)]
struct GroupDelta {
    keys: Vec<Datum>,
    dg: i64,
    aggs: Vec<AggDelta>,
}

type DeltaMap = BTreeMap<String, GroupDelta>;

/// Fold a batch of decoded changes into the delta map: the old image of an
/// update/delete retracts, the new image of an insert/update inserts, each
/// side filtered by the rollup's WHERE clause independently.
fn accumulate(
    def: &RollupDef,
    bound: &BoundDef,
    changes: &[Change],
    map: &mut DeltaMap,
) -> PgResult<()> {
    for change in changes {
        match change {
            Change::Insert(row) => apply_side(def, bound, row, 1, map)?,
            Change::Delete(row) => apply_side(def, bound, row, -1, map)?,
            Change::Update { old, new } => {
                apply_side(def, bound, old, -1, map)?;
                apply_side(def, bound, new, 1, map)?;
            }
        }
    }
    Ok(())
}

fn apply_side(
    def: &RollupDef,
    bound: &BoundDef,
    row: &Row,
    sign: i64,
    map: &mut DeltaMap,
) -> PgResult<()> {
    let ctx = EvalCtx::default();
    if let Some(w) = &bound.where_clause {
        if !matches!(expr::eval(w, row, &ctx)?, Datum::Bool(true)) {
            return Ok(());
        }
    }
    let keys: Vec<Datum> = bound
        .groups
        .iter()
        .map(|g| expr::eval(g, row, &ctx))
        .collect::<PgResult<_>>()?;
    let key = row_key(&keys);
    let entry = map.entry(key).or_insert_with(|| GroupDelta {
        keys,
        dg: 0,
        aggs: vec![AggDelta::default(); def.aggs.len()],
    });
    entry.dg += sign;
    for (i, agg) in def.aggs.iter().enumerate() {
        let Some(arg) = &bound.args[i] else { continue }; // count(*)
        let v = expr::eval(arg, row, &ctx)?;
        if v.is_null() {
            continue;
        }
        let d = &mut entry.aggs[i];
        d.dn += sign;
        match agg.kind {
            AggKind::Sum if agg.arg_ty == TypeName::Int => {
                let x = v.as_i64()?;
                d.ds_i = if sign > 0 { d.ds_i.wrapping_add(x) } else { d.ds_i.wrapping_sub(x) };
            }
            AggKind::Sum | AggKind::Avg => {
                let x = v.as_f64()?;
                if sign > 0 {
                    d.ds_f += x;
                } else {
                    d.ds_f -= x;
                }
            }
            AggKind::Min | AggKind::Max => {
                if sign > 0 {
                    d.inserted.push(v);
                } else {
                    d.retracted.push(v);
                }
            }
            AggKind::CountStar | AggKind::Count => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// refresh
// ---------------------------------------------------------------------------

/// Refresh one rollup: consume every shard's pending changes and apply them.
pub fn refresh(cluster: &Arc<Cluster>, name: &str) -> PgResult<()> {
    let def = cluster
        .rollups
        .get(name)
        .ok_or_else(|| PgError::undefined_table(name))?;
    let _guard = cluster.rollups.lock_refresh();
    refresh_locked(cluster, &def)
}

/// Refresh every registered rollup (maintenance daemon, staleness-bound
/// reads). Caller holds no locks; errors on one rollup do not stop others.
pub fn refresh_all(cluster: &Arc<Cluster>) -> PgResult<()> {
    if cluster.rollups.is_empty() {
        return Ok(());
    }
    let _guard = cluster.rollups.lock_refresh();
    let mut first_err = None;
    for name in cluster.rollups.names() {
        if let Some(def) = cluster.rollups.get(&name) {
            if let Err(e) = refresh_locked(cluster, &def) {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// On-read staleness bound: called from the planner hook for every SELECT
/// that touches a registered rollup. Uses `try_lock` so the internal
/// statements a refresh issues (which re-enter the hook on this same thread)
/// skip instead of self-deadlocking — a concurrent reader then sees the
/// possibly-stale rollup, which the staleness bound permits.
pub fn maybe_refresh_on_read(cluster: &Arc<Cluster>, tables: &[String]) {
    let reg = &cluster.rollups;
    if reg.is_empty() {
        return;
    }
    let touched: Vec<Arc<RollupDef>> = tables.iter().filter_map(|t| reg.get(t)).collect();
    if touched.is_empty() {
        return;
    }
    if touched.iter().all(|d| reg.all_current(cluster, d)) {
        return;
    }
    let Some(_guard) = reg.try_lock_refresh() else { return };
    for def in touched {
        let _ = refresh_locked(cluster, &def);
    }
}

/// A shard stream advance pending durable commit.
struct Advance {
    cursor: Cursor,
    new_seq: u64,
    horizon: Lsn,
    engine: Arc<Engine>,
}

fn refresh_locked(cluster: &Arc<Cluster>, def: &Arc<RollupDef>) -> PgResult<()> {
    let cursors = changefeed::load_cursors(cluster, &def.name)?;
    if cursors.is_empty() {
        return Err(PgError::internal(format!("rollup \"{}\" has no changefeed cursors", def.name)));
    }
    let bound = bind_def(cluster, def)?;
    let mut deltas: DeltaMap = BTreeMap::new();
    let mut advances: Vec<Advance> = Vec::new();
    for cursor in cursors {
        let node = cluster.node(cursor.node)?;
        if !node.is_active() {
            return Err(PgError::new(
                ErrorCode::ConnectionFailure,
                format!("rollup stream source node {} is down", cursor.node.0),
            ));
        }
        let engine = node.engine();
        let physical = {
            let meta = cluster.metadata.read_recursive();
            meta.shard(cursor.shard)?.physical_name()
        };
        let hint = cluster.rollups.hint(&def.name, cursor.shard, &engine);
        if let Some((lsn, hseq)) = hint {
            if hseq == cursor.seq && engine.wal.lsn() == lsn {
                continue; // provably current: nothing new in this shard's log
            }
        }
        let fetched = changefeed::fetch_changes(&engine, &physical, cursor.seq, hint)?;
        accumulate(def, &bound, &fetched.changes, &mut deltas)?;
        advances.push(Advance { cursor, new_seq: fetched.new_seq, horizon: fetched.horizon, engine });
    }
    let cursor_sqls: Vec<String> = advances
        .iter()
        .filter(|a| a.new_seq != a.cursor.seq)
        .map(|a| changefeed::update_cursor_sql(&def.name, a.cursor.shard, a.cursor.node, a.new_seq))
        .collect();
    apply_txn(cluster, def, &deltas, cursor_sqls)?;
    for a in &advances {
        cluster.rollups.set_hint(&def.name, a.cursor.shard, a.cursor.node, &a.engine, a.horizon, a.new_seq);
    }
    Ok(())
}

/// Apply a delta map plus cursor writes in ONE distributed transaction
/// through a coordinator client session: the rollup's group rows live on
/// worker shards, the cursor catalog is coordinator-local, and the existing
/// 2PC machinery makes the pair atomic. This is the exactly-once pivot.
fn apply_txn(
    cluster: &Arc<Cluster>,
    def: &RollupDef,
    deltas: &DeltaMap,
    cursor_sqls: Vec<String>,
) -> PgResult<()> {
    if deltas.is_empty() && cursor_sqls.is_empty() {
        return Ok(());
    }
    let mut sess = cluster.session()?;
    sess.execute("BEGIN")?;
    let mut recounts = 0u64;
    let applied = (|| -> PgResult<()> {
        for gd in deltas.values() {
            recounts += apply_group(&mut sess, def, gd)?;
        }
        for sql in &cursor_sqls {
            sess.execute(sql)?;
        }
        Ok(())
    })();
    match applied {
        Ok(()) => sess.execute("COMMIT").map(|_| ())?,
        Err(e) => {
            let _ = sess.execute("ROLLBACK");
            return Err(e);
        }
    }
    cluster.metrics.rollup_refreshes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    cluster
        .metrics
        .rollup_deltas_applied
        .fetch_add(deltas.len() as u64, std::sync::atomic::Ordering::Relaxed);
    cluster.metrics.rollup_recounts.fetch_add(recounts, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// Apply one group's delta: read the current group row, merge, and write
/// back (INSERT new groups, DELETE groups whose cardinality reaches zero).
/// Returns the number of min/max recount queries issued.
fn apply_group(sess: &mut ClientSession, def: &RollupDef, gd: &GroupDelta) -> PgResult<u64> {
    let pred = group_pred_rollup(def, &gd.keys)?;
    let rows = sess.query(&format!("SELECT * FROM {} WHERE {pred}", quote_ident(&def.name)))?;
    if rows.len() > 1 {
        return Err(PgError::internal(format!(
            "rollup \"{}\" has {} rows for one group key",
            def.name,
            rows.len()
        )));
    }
    let mut recounts = 0u64;
    match rows.into_iter().next() {
        None => {
            if gd.dg < 0 {
                return Err(PgError::internal(format!(
                    "rollup \"{}\" lost a group row (negative cardinality)",
                    def.name
                )));
            }
            if gd.dg == 0 {
                return Ok(0); // net no-op on a group that never existed
            }
            let mut values: Vec<Datum> = vec![Datum::Null; def.n_visible() + 1];
            for slot in &def.layout {
                if let ColSlot::Group(g) = slot {
                    values[def.groups[*g].vis_idx] = gd.keys[*g].clone();
                }
            }
            values[def.g_idx()] = Datum::Int(gd.dg);
            for (i, agg) in def.aggs.iter().enumerate() {
                let d = &gd.aggs[i];
                let (visible, used_recount) =
                    agg_value(sess, def, agg, &gd.keys, None, d, gd.dg, d.dn)?;
                recounts += used_recount as u64;
                values[agg.vis_idx] = visible;
                if agg.n_idx.is_some() {
                    values.push(Datum::Int(d.dn));
                }
                if agg.s_idx.is_some() {
                    values.push(sum_state(agg, d.ds_i, d.ds_f));
                }
            }
            values.push(Datum::Int(RollupDef::bucket(&gd.keys)));
            let rendered: Vec<String> =
                values.iter().map(datum_literal).collect::<PgResult<_>>()?;
            sess.execute(&format!(
                "INSERT INTO {} ({}) VALUES ({})",
                quote_ident(&def.name),
                def.physical_columns().join(", "),
                rendered.join(", ")
            ))?;
        }
        Some(row) => {
            let old_g = row
                .get(def.g_idx())
                .ok_or_else(|| PgError::internal("short rollup row"))?
                .as_i64()?;
            let new_g = old_g + gd.dg;
            if new_g < 0 {
                return Err(PgError::internal(format!(
                    "rollup \"{}\" group cardinality underflow",
                    def.name
                )));
            }
            if new_g == 0 {
                sess.execute(&format!("DELETE FROM {} WHERE {pred}", quote_ident(&def.name)))?;
                return Ok(0);
            }
            let mut sets: Vec<String> = vec![format!("_g = {new_g}")];
            for (i, agg) in def.aggs.iter().enumerate() {
                let d = &gd.aggs[i];
                let old_n = match agg.n_idx {
                    Some(idx) => row
                        .get(idx)
                        .ok_or_else(|| PgError::internal("short rollup row"))?
                        .as_i64()?,
                    None => old_g,
                };
                let new_n = old_n + d.dn;
                if new_n < 0 {
                    return Err(PgError::internal(format!(
                        "rollup \"{}\" aggregate count underflow",
                        def.name
                    )));
                }
                let stored = if old_n > 0 { row.get(agg.vis_idx).cloned() } else { None };
                let (old_si, old_sf) = match agg.s_idx {
                    Some(idx) => {
                        let s = row.get(idx).ok_or_else(|| PgError::internal("short rollup row"))?;
                        match s {
                            Datum::Int(v) => (*v, 0.0),
                            Datum::Float(v) => (0, *v),
                            _ => (0, 0.0),
                        }
                    }
                    None => (0, 0.0),
                };
                let merged = AggDelta {
                    dn: d.dn,
                    ds_i: old_si.wrapping_add(d.ds_i),
                    ds_f: old_sf + d.ds_f,
                    inserted: d.inserted.clone(),
                    retracted: d.retracted.clone(),
                };
                let (visible, used_recount) =
                    agg_value(sess, def, agg, &gd.keys, stored, &merged, new_g, new_n)?;
                recounts += used_recount as u64;
                sets.push(format!("{} = {}", quote_ident(&agg.name), datum_literal(&visible)?));
                if agg.n_idx.is_some() {
                    sets.push(format!("_n{i} = {new_n}"));
                }
                if agg.s_idx.is_some() {
                    sets.push(format!(
                        "_s{i} = {}",
                        datum_literal(&sum_state(agg, merged.ds_i, merged.ds_f))?
                    ));
                }
            }
            sess.execute(&format!(
                "UPDATE {} SET {} WHERE {pred}",
                quote_ident(&def.name),
                sets.join(", ")
            ))?;
        }
    }
    Ok(recounts)
}

/// The hidden sum-state datum for one aggregate.
fn sum_state(agg: &AggCol, s_i: i64, s_f: f64) -> Datum {
    if agg.kind == AggKind::Sum && agg.arg_ty == TypeName::Int {
        Datum::Int(s_i)
    } else {
        Datum::Float(s_f)
    }
}

/// Compute one aggregate's visible value from merged state. For min/max,
/// `d` carries the *merged* view: `stored` is the pre-batch extreme (when the
/// old non-null count was positive), `d.inserted`/`d.retracted` the batch
/// candidates, and `d.ds_i`/`d.ds_f` the post-merge sums. Returns the datum
/// and whether a distributed recount was issued.
// the group's keys, stored value, delta and counts are separate inputs of
// one computation; a struct bundling them would have no other use
#[allow(clippy::too_many_arguments)]
fn agg_value(
    sess: &mut ClientSession,
    def: &RollupDef,
    agg: &AggCol,
    keys: &[Datum],
    stored: Option<Datum>,
    d: &AggDelta,
    g: i64,
    n: i64,
) -> PgResult<(Datum, bool)> {
    Ok(match agg.kind {
        AggKind::CountStar => (Datum::Int(g), false),
        AggKind::Count => (Datum::Int(n), false),
        AggKind::Sum => {
            if n == 0 {
                (Datum::Null, false)
            } else if agg.arg_ty == TypeName::Int {
                (Datum::Int(d.ds_i), false)
            } else {
                (Datum::Float(d.ds_f), false)
            }
        }
        AggKind::Avg => {
            if n == 0 {
                (Datum::Null, false)
            } else {
                (Datum::Float(d.ds_f / n as f64), false)
            }
        }
        AggKind::Min | AggKind::Max => {
            if n == 0 {
                return Ok((Datum::Null, false));
            }
            // tentative extreme: fold the surviving stored value with the
            // batch's inserts; a retraction tying it forces a recount
            let mut tentative: Option<Datum> = stored.filter(|s| !s.is_null());
            for v in &d.inserted {
                tentative = Some(match tentative {
                    None => v.clone(),
                    Some(t) => pick_extreme(agg.kind, t, v.clone()),
                });
            }
            let t = tentative.ok_or_else(|| {
                PgError::internal("min/max state missing with positive count")
            })?;
            let ties = d
                .retracted
                .iter()
                .any(|r| r.sql_cmp(&t) == Some(Ordering::Equal));
            if !ties {
                return Ok((t, false));
            }
            let rows = sess.query(&recount_sql(def, agg, keys)?)?;
            let v = rows.into_iter().next().and_then(|r| r.into_iter().next()).unwrap_or(Datum::Null);
            // a null recount means concurrent deletes past our horizon
            // emptied the group under us; keep the tentative value — the next
            // batch retracts it and converges
            ((if v.is_null() { t } else { v }), true)
        }
    })
}

fn pick_extreme(kind: AggKind, a: Datum, b: Datum) -> Datum {
    let keep_a = match a.sql_cmp(&b) {
        Some(Ordering::Less) => kind == AggKind::Min,
        Some(Ordering::Greater) => kind == AggKind::Max,
        _ => true,
    };
    if keep_a {
        a
    } else {
        b
    }
}

/// Distributed re-aggregation of one group from the source table (min/max
/// retraction fallback). May observe commits past the refresh horizon; at
/// quiescence the value is exact, and the differential wall only compares at
/// quiescence.
fn recount_sql(def: &RollupDef, agg: &AggCol, keys: &[Datum]) -> PgResult<String> {
    let func = match agg.kind {
        AggKind::Min | AggKind::Max => agg.kind.name(),
        _ => return Err(PgError::internal("recount is only for min/max")),
    };
    let arg = agg
        .arg
        .as_ref()
        .ok_or_else(|| PgError::internal("min/max without an argument"))?;
    let mut preds: Vec<String> = Vec::new();
    if let Some(w) = &def.where_clause {
        preds.push(format!("({})", deparse_expr(w)));
    }
    for (g, key) in def.groups.iter().zip(keys) {
        preds.push(source_key_pred(g, key)?);
    }
    Ok(format!(
        "SELECT {func}({}) FROM {} WHERE {}",
        deparse_expr(arg),
        quote_ident(&def.source),
        preds.join(" AND ")
    ))
}

fn source_key_pred(g: &GroupCol, key: &Datum) -> PgResult<String> {
    let e = deparse_expr(&g.expr);
    Ok(if key.is_null() {
        format!("({e}) IS NULL")
    } else {
        format!("({e}) = {}", datum_literal(key)?)
    })
}

/// Group-row predicate on the rollup table's visible key columns.
fn group_pred_rollup(def: &RollupDef, keys: &[Datum]) -> PgResult<String> {
    // lead with the distribution bucket so the lookup router-routes even
    // when a group key is NULL (IS NULL is not a routable restriction)
    let mut preds: Vec<String> = vec![format!("_b = {}", RollupDef::bucket(keys))];
    let key_preds: Vec<String> = def
        .groups
        .iter()
        .zip(keys)
        .map(|(g, key)| {
            Ok(if key.is_null() {
                format!("{} IS NULL", quote_ident(&g.name))
            } else {
                format!("{} = {}", quote_ident(&g.name), datum_literal(key)?)
            })
        })
        .collect::<PgResult<_>>()?;
    preds.extend(key_preds);
    Ok(preds.join(" AND "))
}

// ---------------------------------------------------------------------------
// shard-move cursor handoff
// ---------------------------------------------------------------------------

/// Hand every affected changefeed cursor from the move source to the move
/// destination. Called by the rebalancer inside the locked window after the
/// `switched` journal phase: the source is settled (the move's exclusive
/// locks guarantee no in-flight transaction on the moved table, so the
/// per-table decode horizon reaches end-of-log), and the destination already
/// holds the caught-up copy.
///
/// The handoff drains the source's pending suffix, applies it, and points
/// the cursor at the destination with `seq` = the destination log's
/// committed-change count for the physical table (copy + catch-up both log
/// and commit what they install, so that count is exactly the prefix that
/// re-materialises state the cursor has already accounted for). Draining and
/// the cursor flip commit in one transaction; a redo (move roll-forward
/// after a crash) sees `node == to` and skips — idempotent.
pub fn handoff_cursors(cluster: &Arc<Cluster>, shard_ids: &[ShardId], to: NodeId) -> PgResult<()> {
    let reg = &cluster.rollups;
    if reg.is_empty() {
        return Ok(());
    }
    let moved: std::collections::HashSet<u64> = shard_ids.iter().map(|s| s.0).collect();
    let _guard = reg.lock_refresh();
    for name in reg.names() {
        let Some(def) = reg.get(&name) else { continue };
        let pending: Vec<Cursor> = changefeed::load_cursors(cluster, &name)?
            .into_iter()
            .filter(|c| moved.contains(&c.shard.0) && c.node != to)
            .collect();
        if pending.is_empty() {
            continue;
        }
        let bound = bind_def(cluster, &def)?;
        let dest = cluster.node(to)?.engine();
        let mut deltas: DeltaMap = BTreeMap::new();
        let mut flips: Vec<(ShardId, u64)> = Vec::new();
        for cursor in pending {
            let src = cluster.node(cursor.node)?.engine();
            let physical = {
                let meta = cluster.metadata.read_recursive();
                meta.shard(cursor.shard)?.physical_name()
            };
            let hint = reg.hint(&name, cursor.shard, &src);
            let fetched = changefeed::fetch_changes(&src, &physical, cursor.seq, hint)?;
            accumulate(&def, &bound, &fetched.changes, &mut deltas)?;
            let (baseline, _) = changefeed::committed_count(&dest, &physical)?;
            flips.push((cursor.shard, baseline));
        }
        let cursor_sqls: Vec<String> = flips
            .iter()
            .map(|(shard, baseline)| changefeed::update_cursor_sql(&name, *shard, to, *baseline))
            .collect();
        apply_txn(cluster, &def, &deltas, cursor_sqls)?;
        for (shard, _) in &flips {
            reg.invalidate(&name, *shard);
        }
        cluster
            .metrics
            .cursor_handoffs
            .fetch_add(flips.len() as u64, std::sync::atomic::Ordering::Relaxed);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// verification (the recompute-differential contract)
// ---------------------------------------------------------------------------

/// From-scratch recompute of the defining query, sorted canonically.
pub fn recompute_rows(cluster: &Arc<Cluster>, def: &RollupDef) -> PgResult<Vec<Row>> {
    let mut sess = cluster.session()?;
    let mut rows = sess.query(&def.definition_sql)?;
    sort_canonical(&mut rows);
    Ok(rows)
}

/// The rollup's current visible contents, sorted canonically.
pub fn rollup_rows(cluster: &Arc<Cluster>, def: &RollupDef) -> PgResult<Vec<Row>> {
    let cols: Vec<String> = def.visible_names().iter().map(|n| quote_ident(n)).collect();
    let mut sess = cluster.session()?;
    let mut rows = sess.query(&format!(
        "SELECT {} FROM {}",
        cols.join(", "),
        quote_ident(&def.name)
    ))?;
    sort_canonical(&mut rows);
    Ok(rows)
}

/// Refresh, then assert the rollup's contents equal a from-scratch recompute
/// **exactly** (datum-for-datum, `Int(3) != Float(3.0)`). The wall the test
/// suite builds on.
pub fn verify(cluster: &Arc<Cluster>, name: &str) -> PgResult<()> {
    let def = cluster
        .rollups
        .get(name)
        .ok_or_else(|| PgError::undefined_table(name))?;
    {
        let _guard = cluster.rollups.lock_refresh();
        refresh_locked(cluster, &def)?;
    }
    let expect = recompute_rows(cluster, &def)?;
    let got = rollup_rows(cluster, &def)?;
    if expect == got {
        return Ok(());
    }
    let diff = expect
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .map(|i| format!("first differing row {i}: expect {:?}, got {:?}", expect[i], got[i]))
        .unwrap_or_else(|| format!("row count: expect {}, got {}", expect.len(), got.len()));
    Err(PgError::internal(format!(
        "rollup \"{name}\" diverged from recompute ({diff})"
    )))
}

fn sort_canonical(rows: &mut [Row]) {
    rows.sort_by_key(|r| row_key(r));
}

// ---------------------------------------------------------------------------
// datum rendering
// ---------------------------------------------------------------------------

/// Render a datum as a SQL literal that parses back to the same datum.
pub fn datum_literal(d: &Datum) -> PgResult<String> {
    Ok(match d {
        Datum::Null => "NULL".to_string(),
        Datum::Bool(true) => "true".to_string(),
        Datum::Bool(false) => "false".to_string(),
        Datum::Int(v) => v.to_string(),
        Datum::Float(v) => {
            if !v.is_finite() {
                return Err(PgError::internal("cannot render a non-finite float literal"));
            }
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0") // keep the parser from reading it back as Int
            }
        }
        Datum::Text(s) => quote_literal(s),
        Datum::Timestamp(t) => {
            format!("'{}'::timestamp", pgmini::types::time::format_timestamp(*t))
        }
        Datum::Json(j) => format!("{}::jsonb", quote_literal(&j.to_string())),
    })
}

/// Deterministic, type-tagged encoding of a datum tuple (group-key map keys,
/// canonical row ordering). Type tags keep `Int(1)` and `Float(1.0)` apart,
/// matching `Datum` equality.
pub fn row_key(row: &[Datum]) -> String {
    let mut out = String::new();
    for d in row {
        match d {
            Datum::Null => out.push('n'),
            Datum::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
            Datum::Int(v) => out.push_str(&format!("i{v:020}")),
            Datum::Float(v) => out.push_str(&format!("f{:016x}", v.to_bits())),
            Datum::Text(s) => out.push_str(&format!("t{s}")),
            Datum::Timestamp(t) => out.push_str(&format!("s{t:020}")),
            Datum::Json(j) => out.push_str(&format!("j{j}")),
        }
        out.push('\u{1f}');
    }
    out
}
