//! Distribution-column constraint analysis: the one co-location judgement.
//!
//! Every planner decision reduces to one question — do the rows this
//! statement joins, groups or inserts already meet on one node under this
//! partitioning? The *facts* are what the partitioning guarantees: a
//! hash-distributed table's rows are placed by its distribution column within
//! its co-location group, a reference table is everywhere. They propagate
//! through `key = key` equalities (`WHERE` and `ON` conjuncts) and through
//! FROM-subquery outputs, wherever the subquery sits in the join tree. A
//! `WHERE key [NOT] IN (SELECT key …)` conjunct over a co-partitioned
//! subquery is a join on the key too, and stays in place on every shard
//! ([`CoPartitioned::semijoin`]); other subqueries over distributed relations
//! need a subplan ([`subplans`]). The
//! *judgement* read off them is one of four outcomes ([`Judgement`]); a
//! refusal carries its [`Reason`] as data. The tiers only render it: the
//! router takes `SingleBucket` (§3.5), pushdown takes `CoPartitioned`, the
//! join-order planner moves what `MustMove` names, INSERT..SELECT picks its
//! §3.8 strategy from the source `SELECT`'s outcome, and the error text of an
//! unsupported shape is `Reason`'s `Display`.

use super::rewrite::select_tables;
use crate::metadata::{DistTable, Metadata};
use pgmini::error::PgError;
use pgmini::plan::{group_expr, is_aggregate_query};
use pgmini::types::Datum;
use sqlparse::ast::{
    BinaryOp, Expr, JoinKind, Select, SelectItem, Statement, TableRef,
};
use sqlparse::shape::{self, Clause, Nested, Visit};
use std::fmt;
use std::ptr;

/// What the partitioning guarantees about one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Judgement {
    /// Only replicated (reference) relations: any replica answers.
    NoDistributedRelation,
    /// Every level pins to this hash bucket: router-eligible.
    SingleBucket(usize),
    /// The distributed relations meet bucket by bucket.
    CoPartitioned(CoPartitioned),
    /// Rows that must meet live on different nodes.
    MustMove(Reason),
}

/// A level whose distributed relations are partitioned alike and connected
/// through `key = key` equalities: shard `b` of each holds all the rows that
/// can meet there.
#[derive(Debug, Clone, PartialEq)]
pub struct CoPartitioned {
    /// Co-location group of the relations.
    pub group: u32,
    /// The first distributed table in FROM order: its shards place the tasks.
    pub anchor: String,
    /// The columns in scope that hold the key.
    pub key: KeyColumns,
    /// Hash buckets the level's constant pins leave (`None` = all).
    pub buckets: Option<Vec<usize>>,
}

/// Column references that hold a level's distribution key, as
/// `(relation alias, column)`. A reference-table column merely *called* like
/// the key is not among them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyColumns(pub Vec<(String, String)>);

/// Why a level's result cannot be had by concatenating its shards' results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeNeed {
    /// Aggregates whose GROUP BY does not hold the key: a group spans shards.
    Aggregate,
    /// LIMIT / OFFSET / DISTINCT apply to the whole result.
    LimitOrDistinct,
}

/// Why rows must move before the statement can be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Reason {
    /// `a` and `b` are hash-partitioned in different co-location groups.
    /// `equijoin` is the first `a.x = b.y` conjunct of the level they share
    /// (`None` also when they sit on different levels).
    NotColocated { a: String, b: String, equijoin: Option<(String, String)> },
    /// Co-located `a` and `b` are not connected by `key = key` equalities.
    NotJoinedOnKey { a: String, b: String, equijoin: Option<(String, String)> },
    /// A FROM-subquery would need a coordinator merge below the top level.
    SubqueryNeedsMerge { why: MergeNeed },
    /// An outer join preserves `replicated` against distributed relations:
    /// every shard would return its unmatched rows.
    OuterJoinPreservesReplicated { replicated: String },
    /// An expression subquery reads distributed relations and is not a
    /// co-located semi-join: shipped as is it sees one shard, so its result
    /// has to be materialised first.
    NeedsSubplan,
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const COMPLEX: &str = "complex joins are only supported when all distributed tables \
                               are co-located and joined on their distribution columns";
        match self {
            Reason::NotColocated { a, b, .. } => {
                write!(f, "{COMPLEX} (\"{a}\" and \"{b}\" are not co-located)")
            }
            Reason::NotJoinedOnKey { a, b, .. } => write!(
                f,
                "{COMPLEX} (\"{a}\" and \"{b}\" are not joined on their distribution columns)"
            ),
            Reason::SubqueryNeedsMerge { why: MergeNeed::Aggregate } => {
                f.write_str("subquery with aggregates must GROUP BY the distribution column")
            }
            Reason::SubqueryNeedsMerge { why: MergeNeed::LimitOrDistinct } => {
                f.write_str("subquery with LIMIT/OFFSET/DISTINCT requires a global merge step")
            }
            Reason::OuterJoinPreservesReplicated { replicated } => write!(
                f,
                "an outer join cannot preserve \"{replicated}\" against distributed tables: \
                 every shard would return its unmatched rows"
            ),
            Reason::NeedsSubplan => f.write_str(
                "a subquery over distributed tables inside an expression needs its result \
                 materialised first",
            ),
        }
    }
}

/// The one place an unsupported shape becomes error text (0A000).
impl From<Reason> for PgError {
    fn from(reason: Reason) -> PgError {
        PgError::unsupported(reason.to_string())
    }
}

impl KeyColumns {
    /// Is `e` a reference to a column holding the key? A qualifier must name
    /// the relation whose key it is; an unqualified name resolves by column
    /// name (a clash with another relation's column is the worker's
    /// ambiguity error, not a wrong answer).
    pub fn holds(&self, e: &Expr) -> bool {
        let Expr::Column { table, name } = e else { return false };
        self.0.iter().any(|(alias, col)| col == name && table.as_ref().is_none_or(|q| q == alias))
    }

    /// The output name under which a select item passes the key through.
    fn output<'a>(&self, item: &'a SelectItem) -> Option<&'a str> {
        match item {
            SelectItem::Expr { expr: expr @ Expr::Column { name, .. }, alias }
                if self.holds(expr) =>
            {
                Some(alias.as_deref().unwrap_or(name))
            }
            _ => None,
        }
    }
}

impl CoPartitioned {
    /// Why `sel`, a level judged to be this, still needs a coordinator merge.
    pub fn merge_need(&self, sel: &Select) -> Option<MergeNeed> {
        let grouped_by_key =
            sel.group_by.iter().filter_map(|g| group_expr(sel, g).ok()).any(|g| self.key.holds(g));
        if is_aggregate_query(sel) && !grouped_by_key {
            Some(MergeNeed::Aggregate)
        } else if sel.limit.is_some() || sel.offset.is_some() || sel.distinct {
            Some(MergeNeed::LimitOrDistinct)
        } else {
            None
        }
    }

    /// Do `sel`'s rows, inserted into `target` with output column `feed`
    /// feeding its distribution column, land in the shard they come from?
    pub fn feeds(&self, sel: &Select, target: &DistTable, feed: usize) -> bool {
        self.group == target.colocation_id
            && matches!(sel.projection.get(feed),
                Some(SelectItem::Expr { expr, .. }) if self.key.holds(expr))
    }

    /// The subquery of `conjunct`, a top-level `WHERE` conjunct of a level
    /// judged to be this, when the conjunct is a *co-located semi-join*
    /// `e [NOT] IN (sub)`: `e` holds the level's key, `sub` is co-partitioned
    /// in the same group and needs no merge, and `sub`'s only output passes
    /// its key through.
    ///
    /// Such a conjunct runs unchanged on every shard. Take an outer row whose
    /// key is `v`: it lives on shard(`v`), and `sub`'s rows that output `v`
    /// are exactly the rows `sub` returns on shard(`v`) — a key-grouped
    /// aggregate's group lives there whole, and no LIMIT, OFFSET or DISTINCT
    /// looks across shards. So `v` is in the global result of `sub` exactly
    /// when it is in the result on shard(`v`). `NOT IN` keeps this because
    /// neither side can be NULL: key columns come only from relations on no
    /// null-supplying side, and a distribution column never holds NULL (an
    /// insert refuses it, an update may not assign it).
    fn semijoin<'s>(&self, conjunct: &'s Expr, meta: &Metadata) -> Option<&'s Select> {
        let Expr::InSubquery { expr, subquery, .. } = conjunct else { return None };
        let [item] = &subquery.projection[..] else { return None };
        if !self.key.holds(expr) {
            return None;
        }
        let Judgement::CoPartitioned(inner) = judge_select(subquery, meta) else { return None };
        (inner.group == self.group
            && inner.merge_need(subquery).is_none()
            && inner.key.output(item).is_some())
        .then_some(subquery)
    }
}

/// Extract a constant from literal (or cast-literal) expressions.
pub fn const_datum(e: &Expr) -> Option<Datum> {
    match e {
        Expr::Literal(l) => Some(pgmini::expr::literal_datum(l)),
        Expr::Cast { expr, ty } => const_datum(expr).and_then(|d| d.cast_to(*ty).ok()),
        Expr::Unary { op: sqlparse::ast::UnaryOp::Neg, expr } => {
            const_datum(expr).and_then(|d| match d {
                Datum::Int(v) => Some(Datum::Int(-v)),
                Datum::Float(v) => Some(Datum::Float(-v)),
                _ => None,
            })
        }
        _ => None,
    }
}

/// One distributed relation of a query level: a hash-distributed table, or a
/// FROM-subquery whose rows are co-partitioned like one.
#[derive(Debug)]
struct Relation<'a> {
    alias: &'a str,
    /// Co-location group whose hash ranges place the relation's rows.
    group: u32,
    /// A table of that group (hashes the constants a key column is pinned to).
    table: &'a str,
    /// The relation's columns that hold the key: a table's distribution
    /// column; the output columns a subquery's projection passes it through.
    keys: Vec<&'a str>,
    /// On the null-supplying side of an outer join: the key columns join
    /// like any other, but read NULL for unmatched rows on every shard.
    nullable: bool,
    /// Constants pinning the key (`=` or `IN`).
    pins: Vec<Datum>,
}

/// One query level's distributed relations and the constraints on them.
#[derive(Debug, Default)]
struct LevelFacts<'a> {
    relations: Vec<Relation<'a>>,
    /// `key = key` equalities between relations.
    joins: Vec<(usize, usize)>,
    /// WHERE and ON conjuncts (searched for the equijoin of a refused pair).
    conjuncts: Vec<&'a Expr>,
    /// What walking FROM already found to rule co-partitioning out.
    refusal: Option<Reason>,
}

/// Gather one SELECT level's facts. With `subqueries`, a FROM-subquery is
/// judged and joins the level as a relation; without, it is a level of its
/// own (bucket inference visits it separately).
fn gather<'a>(sel: &'a Select, meta: &'a Metadata, subqueries: bool) -> LevelFacts<'a> {
    let mut facts = LevelFacts::default();
    for f in &sel.from {
        facts.register(f, meta, subqueries, false);
    }
    if let Some(w) = &sel.where_clause {
        facts.apply(w, true);
    }
    for f in &sel.from {
        facts.apply_on(f);
    }
    facts
}

/// A DML target is a level of its own: one relation under the WHERE clause.
fn target_facts<'a>(
    table: &'a str,
    alias: Option<&'a str>,
    where_clause: Option<&'a Expr>,
    meta: &'a Metadata,
) -> LevelFacts<'a> {
    let mut facts = LevelFacts::default();
    if let Some(dt) = meta.table(table) {
        facts.add_table(dt, alias.unwrap_or(table), false);
    }
    if let Some(w) = where_clause {
        facts.apply(w, true);
    }
    facts
}

/// The top-level AND conjuncts of `e`.
pub fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary { left, op: BinaryOp::And, right } = e {
        split_and(left, out);
        split_and(right, out);
    } else {
        out.push(e);
    }
}

impl<'a> LevelFacts<'a> {
    fn add_table(&mut self, dt: &'a DistTable, alias: &'a str, nullable: bool) {
        if let Some((col, _)) = &dt.dist_column {
            self.relations.push(Relation {
                alias,
                group: dt.colocation_id,
                table: &dt.name,
                keys: vec![col],
                nullable,
                pins: Vec::new(),
            });
        }
    }

    fn register(&mut self, t: &'a TableRef, meta: &'a Metadata, subqueries: bool, nullable: bool) {
        match t {
            TableRef::Table { name, alias } => {
                if let Some(dt) = meta.table(name) {
                    self.add_table(dt, alias.as_deref().unwrap_or(name), nullable);
                }
            }
            TableRef::Subquery { .. } if !subqueries => {}
            TableRef::Subquery { query, alias } => match judge_select(query, meta) {
                Judgement::CoPartitioned(cp) => match cp.merge_need(query) {
                    Some(why) => self.refuse(Reason::SubqueryNeedsMerge { why }),
                    None => self.relations.push(Relation {
                        alias,
                        group: cp.group,
                        table: meta.table(&cp.anchor).map_or("", |dt| &dt.name),
                        keys: query.projection.iter().filter_map(|p| cp.key.output(p)).collect(),
                        nullable,
                        pins: Vec::new(),
                    }),
                },
                Judgement::MustMove(reason) => self.refuse(reason),
                Judgement::NoDistributedRelation | Judgement::SingleBucket(_) => {}
            },
            TableRef::Join { left, right, kind, .. } => {
                let (left_nulls, right_nulls) = match kind {
                    JoinKind::Left => (false, true),
                    JoinKind::Right => (true, false),
                    JoinKind::Full => (true, true),
                    JoinKind::Inner | JoinKind::Cross => (false, false),
                };
                let before = self.relations.len();
                self.register(left, meta, subqueries, nullable || left_nulls);
                let mid = self.relations.len();
                self.register(right, meta, subqueries, nullable || right_nulls);
                // the preserved side of an outer join has to be partitioned
                // when the other side is
                let replicated = match (mid > before, self.relations.len() > mid) {
                    (false, true) if right_nulls => left,
                    (true, false) if left_nulls => right,
                    _ => return,
                };
                // named by its first table
                let side = Select { from: vec![(**replicated).clone()], ..Select::empty() };
                self.refuse(Reason::OuterJoinPreservesReplicated {
                    replicated: select_tables(&side).into_iter().next().unwrap_or_default(),
                });
            }
        }
    }

    fn refuse(&mut self, reason: Reason) {
        self.refusal.get_or_insert(reason);
    }

    /// ON conjuncts filter rows only under an inner join; under an outer
    /// join they say which rows match, so a constant there pins nothing.
    fn apply_on(&mut self, t: &'a TableRef) {
        for_each_on(t, &mut |c, kind| {
            self.apply(c, matches!(kind, JoinKind::Inner | JoinKind::Cross))
        });
    }

    /// Record what the conjuncts of `e` say about key columns.
    fn apply(&mut self, e: &'a Expr, filters: bool) {
        let from = self.conjuncts.len();
        split_and(e, &mut self.conjuncts);
        for i in from..self.conjuncts.len() {
            let conjunct: &'a Expr = self.conjuncts[i];
            match conjunct {
                Expr::Binary { left, op: BinaryOp::Eq, right } => {
                    match (self.key_relation(left), self.key_relation(right)) {
                        (Some(a), Some(b)) => self.joins.push((a, b)),
                        (Some(r), None) if filters => self.pin(r, [right.as_ref()]),
                        (None, Some(r)) if filters => self.pin(r, [left.as_ref()]),
                        _ => {}
                    }
                }
                // IN pins to a *set*; only a singleton pins a bucket, but
                // the set still prunes shards
                Expr::InList { expr, list, negated: false } if filters => {
                    if let Some(r) = self.key_relation(expr) {
                        self.pin(r, list.iter());
                    }
                }
                _ => {}
            }
        }
    }

    fn pin<'e>(&mut self, relation: usize, values: impl IntoIterator<Item = &'e Expr>) {
        let consts: Option<Vec<Datum>> = values.into_iter().map(const_datum).collect();
        if let Some(cs) = consts {
            self.relations[relation].pins.extend(cs);
        }
    }

    /// The relation whose key column `e` references. A qualifier must name
    /// it; an unqualified name resolves when exactly one relation's key is
    /// called that.
    fn key_relation(&self, e: &Expr) -> Option<usize> {
        let Expr::Column { table, name } = e else { return None };
        let mut hits = self.relations.iter().enumerate().filter(|(_, r)| {
            table.as_ref().is_none_or(|q| q == r.alias) && r.keys.contains(&name.as_str())
        });
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Some(i),
            _ => None,
        }
    }

    /// The class of each relation under the `key = key` equalities — the
    /// planner's one union-find.
    fn classes(&self) -> Vec<usize> {
        let mut parent: Vec<usize> = (0..self.relations.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in &self.joins {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
        (0..parent.len()).map(|i| find(&mut parent, i)).collect()
    }

    /// The hash buckets the pins on one relation allow (`None` = unpinned).
    fn pinned_buckets(r: &Relation, meta: &Metadata) -> Option<Vec<usize>> {
        if r.pins.is_empty() {
            return None;
        }
        let mut buckets: Vec<usize> =
            r.pins.iter().filter_map(|v| meta.shard_index_for_value(r.table, v).ok()).collect();
        buckets.sort_unstable();
        buckets.dedup();
        Some(buckets)
    }

    /// The hash buckets the level's pins allow (`None` = all).
    fn buckets(&self, meta: &Metadata) -> Option<Vec<usize>> {
        let mut pinned = self.relations.iter().filter_map(|r| Self::pinned_buckets(r, meta));
        let first = pinned.next()?;
        Some(pinned.fold(first, |acc, b| acc.into_iter().filter(|x| b.contains(x)).collect()))
    }

    /// Single-bucket inference: every relation must resolve to the same
    /// bucket, directly or through equijoins.
    fn single_bucket(&self, meta: &Metadata) -> Option<usize> {
        let classes = self.classes();
        let mut class_bucket: Vec<Option<usize>> = vec![None; classes.len()];
        for (r, &class) in self.relations.iter().zip(&classes) {
            // a singleton pin determines the bucket; a multi-value pin cannot
            let Some(buckets) = Self::pinned_buckets(r, meta) else { continue };
            let [bucket] = buckets[..] else { return None };
            if class_bucket[class].is_some_and(|b| b != bucket) {
                return None;
            }
            class_bucket[class] = Some(bucket);
        }
        // every relation's class must be pinned, and all to the same bucket
        let bucket = class_bucket[*classes.first()?]?;
        classes.iter().all(|&c| class_bucket[c] == Some(bucket)).then_some(bucket)
    }

    /// The first `a.x = b.y` conjunct, as `(x, y)`.
    fn equijoin(&self, a: &str, b: &str) -> Option<(String, String)> {
        let qualified = |e: &'a Expr| match e {
            Expr::Column { table: Some(t), name } => Some((t.as_str(), name.as_str())),
            _ => None,
        };
        self.conjuncts.iter().find_map(|c| {
            let Expr::Binary { left, op: BinaryOp::Eq, right } = c else { return None };
            let ((tl, nl), (tr, nr)) = (qualified(left)?, qualified(right)?);
            if (tl, tr) == (a, b) {
                Some((nl.to_string(), nr.to_string()))
            } else if (tl, tr) == (b, a) {
                Some((nr.to_string(), nl.to_string()))
            } else {
                None
            }
        })
    }

    /// Do the level's relations meet bucket by bucket?
    fn co_partitioned(self, meta: &Metadata) -> Judgement {
        if let Some(reason) = self.refusal {
            return Judgement::MustMove(reason);
        }
        let Some(first) = self.relations.first() else {
            return Judgement::NoDistributedRelation;
        };
        let classes = self.classes();
        let apart = |i: usize| {
            let (a, b) = (first.alias, self.relations[i].alias);
            (a.to_string(), b.to_string(), self.equijoin(a, b))
        };
        if let Some(i) = self.relations.iter().position(|r| r.group != first.group) {
            let (a, b, equijoin) = apart(i);
            return Judgement::MustMove(Reason::NotColocated { a, b, equijoin });
        }
        if let Some(i) = classes.iter().position(|&c| c != classes[0]) {
            let (a, b, equijoin) = apart(i);
            return Judgement::MustMove(Reason::NotJoinedOnKey { a, b, equijoin });
        }
        Judgement::CoPartitioned(CoPartitioned {
            group: first.group,
            anchor: first.table.to_string(),
            key: KeyColumns(
                self.relations
                    .iter()
                    .filter(|r| !r.nullable)
                    .flat_map(|r| r.keys.iter().map(|k| (r.alias.to_string(), k.to_string())))
                    .collect(),
            ),
            buckets: self.buckets(meta),
        })
    }
}

/// Judge one SELECT on its own: are the relations of its FROM tree
/// co-partitioned, and does every expression subquery run where it stands?
/// Never `SingleBucket` — pinning is a property of the whole statement, which
/// [`judge`] checks before it asks this.
pub fn judge_select(sel: &Select, meta: &Metadata) -> Judgement {
    let (level, subplans) = judge_level(sel, meta, false);
    if subplans.is_empty() {
        level
    } else {
        Judgement::MustMove(Reason::NeedsSubplan)
    }
}

/// The expression subqueries of `sel`'s own level (not of its nested
/// selects, which are levels of their own) that need a subplan: every one
/// over a distributed relation, except the level's co-located semi-joins
/// ([`CoPartitioned::semijoin`]). A coordinator merge step may evaluate the
/// select list, `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT` and `OFFSET`, and it
/// cannot run a subquery, so there every subquery is one.
pub fn subplans<'a>(sel: &'a Select, meta: &'a Metadata) -> Vec<&'a Select> {
    judge_level(sel, meta, true).1
}

/// The subqueries of a DML statement's own clauses (`WHERE`, `SET`,
/// `VALUES`) that need a subplan: every one over a distributed relation (a
/// DML target's semi-joins are not pushed down).
pub fn dml_subplans<'a>(stmt: &'a Statement, meta: &Metadata) -> Vec<&'a Select> {
    let own = own_subqueries(|own| shape::walk(stmt, own));
    own.into_iter().map(|(q, _)| q).filter(|q| reads_distributed(q, meta)).collect()
}

/// Does an expression subquery read a distributed relation? Shipped to a
/// shard as it stands, it would see that shard's rows only.
fn reads_distributed(q: &Select, meta: &Metadata) -> bool {
    judge_select(q, meta) != Judgement::NoDistributedRelation
}

/// The expression subqueries a walk meets before any nested select, each
/// with its clause: one level's own (a nested select is a level of its own).
#[derive(Default)]
struct OwnSubqueries<'a>(Vec<(&'a Select, Clause)>);

impl<'a> Visit<'a> for OwnSubqueries<'a> {
    fn nested(&mut self, n: Nested<&'a Select, &'a Expr>) -> bool {
        if let Nested::Expr(e, clause) = n {
            self.0.extend(e.subquery().map(|q| (q, clause)));
        }
        false
    }
}

fn own_subqueries<'a>(
    walk: impl FnOnce(&mut OwnSubqueries<'a>) -> shape::Facts,
) -> Vec<(&'a Select, Clause)> {
    let mut own = OwnSubqueries::default();
    walk(&mut own);
    own.0
}

/// Every SELECT level of a statement: the statement itself when it is a
/// SELECT, then every nested select in walk order.
fn levels(stmt: &Statement) -> Vec<&Select> {
    struct Levels<'a>(Vec<&'a Select>);
    impl<'a> Visit<'a> for Levels<'a> {
        fn nested(&mut self, n: Nested<&'a Select, &'a Expr>) -> bool {
            self.0.extend(match n {
                Nested::From(q) | Nested::Source(q) => Some(q),
                Nested::Expr(e, _) => e.subquery(),
            });
            true
        }
    }
    let mut levels = Levels(match stmt {
        Statement::Select(sel) => vec![&**sel],
        _ => Vec::new(),
    });
    shape::walk(stmt, &mut levels);
    levels.0
}

/// One level's co-location judgement, with its co-located semi-joins set
/// aside, and the level's subqueries that need a subplan; with `merged`, so
/// do all of those in a clause the coordinator's merge evaluates.
fn judge_level<'a>(
    sel: &'a Select,
    meta: &'a Metadata,
    merged: bool,
) -> (Judgement, Vec<&'a Select>) {
    let level = gather(sel, meta, true).co_partitioned(meta);
    let mut semijoins = Vec::new();
    if let (Judgement::CoPartitioned(cp), Some(w)) = (&level, &sel.where_clause) {
        let mut conjuncts = Vec::new();
        split_and(w, &mut conjuncts);
        semijoins.extend(conjuncts.into_iter().filter_map(|c| cp.semijoin(c, meta)));
    }
    let subplans = own_subqueries(|own| shape::walk_select(sel, own))
        .into_iter()
        .filter(|&(q, clause)| {
            (merged && !matches!(clause, Clause::On | Clause::Where))
                || (!semijoins.iter().any(|s| ptr::eq(*s, q)) && reads_distributed(q, meta))
        })
        .map(|(q, _)| q)
        .collect();
    (level, subplans)
}

/// Judge a whole statement: every level that names a distributed relation
/// (FROM-subqueries, expression subqueries, the DML target) must agree on
/// the co-location group, and pins the statement to one bucket only when
/// each of them pins to the same one.
pub fn judge<'a>(stmt: &'a Statement, meta: &'a Metadata) -> Judgement {
    let mut first: Option<(u32, &'a str)> = None;
    let mut clash: Option<Reason> = None;
    let mut bucket: Option<usize> = None;
    let mut unpinned = false;
    let mut visit = |facts: &LevelFacts<'a>| {
        for r in &facts.relations {
            let (group, alias) = *first.get_or_insert((r.group, r.alias));
            if group != r.group && clash.is_none() {
                clash = Some(Reason::NotColocated {
                    a: alias.to_string(),
                    b: r.alias.to_string(),
                    equijoin: facts.equijoin(alias, r.alias),
                });
            }
        }
        if !facts.relations.is_empty() {
            match (facts.single_bucket(meta), bucket) {
                (Some(b), None) => bucket = Some(b),
                (Some(b), Some(prev)) if prev == b => {}
                _ => unpinned = true,
            }
        }
    };
    for sel in levels(stmt) {
        visit(&gather(sel, meta, false));
    }
    // DML target tables are levels of their own
    let target = match stmt {
        Statement::Insert(i) => Some(target_facts(&i.table, None, None, meta)),
        Statement::Update(u) => {
            Some(target_facts(&u.table, u.alias.as_deref(), u.where_clause.as_ref(), meta))
        }
        Statement::Delete(d) => {
            Some(target_facts(&d.table, d.alias.as_deref(), d.where_clause.as_ref(), meta))
        }
        _ => None,
    };
    if let Some(t) = &target {
        visit(t);
    }
    if first.is_none() {
        return Judgement::NoDistributedRelation;
    }
    if let Some(reason) = clash {
        return Judgement::MustMove(reason);
    }
    match (stmt, target, bucket) {
        (_, _, Some(b)) if !unpinned => Judgement::SingleBucket(b),
        (Statement::Select(sel), ..) => judge_select(sel, meta),
        (_, Some(t), _) => t.co_partitioned(meta),
        _ => Judgement::NoDistributedRelation,
    }
}

/// The ON conditions of a join tree, each with the kind of its join.
fn for_each_on<'a>(t: &'a TableRef, f: &mut dyn FnMut(&'a Expr, JoinKind)) {
    if let TableRef::Join { left, right, kind, on } = t {
        for_each_on(left, f);
        for_each_on(right, f);
        if let Some(c) = on {
            f(c, *kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::NodeId;
    use sqlparse::parse;

    fn meta() -> Metadata {
        let mut m = Metadata::new();
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("orders", "w_id", 1, 16, &nodes, cid, None).unwrap();
        m.add_hash_table("lines", "w_id", 0, 16, &nodes, cid, Some("orders")).unwrap();
        m.add_reference_table("items", &nodes).unwrap();
        m
    }

    fn infer(sql: &str) -> Judgement {
        judge(&parse(sql).unwrap(), &meta())
    }

    /// Not scoped to one bucket: multi-shard or unconstrained.
    fn multi(sql: &str) -> bool {
        matches!(infer(sql), Judgement::CoPartitioned(_) | Judgement::MustMove(_))
    }

    fn bucket_of(v: i64) -> usize {
        meta().shard_index_for_value("orders", &Datum::Int(v)).unwrap()
    }

    #[test]
    fn direct_equality_routes() {
        assert_eq!(infer("SELECT * FROM orders WHERE w_id = 7"), Judgement::SingleBucket(bucket_of(7)));
        assert_eq!(
            infer("SELECT * FROM orders WHERE orders.w_id = 7 AND o_total > 5"),
            Judgement::SingleBucket(bucket_of(7))
        );
    }

    #[test]
    fn transitive_equijoin_routes() {
        let q = "SELECT * FROM orders o JOIN lines l ON o.w_id = l.w_id WHERE o.w_id = 3";
        assert_eq!(infer(q), Judgement::SingleBucket(bucket_of(3)));
        // comma join with WHERE-clause join condition
        let q = "SELECT * FROM orders o, lines l WHERE o.w_id = l.w_id AND l.w_id = 3";
        assert_eq!(infer(q), Judgement::SingleBucket(bucket_of(3)));
    }

    #[test]
    fn unpinned_table_is_multi() {
        assert!(multi("SELECT * FROM orders"));
        // join without connecting condition: lines is unpinned
        let q = "SELECT * FROM orders o, lines l WHERE o.w_id = 3";
        assert!(multi(q));
    }

    #[test]
    fn conflicting_pins_are_multi() {
        let q = "SELECT * FROM orders o JOIN lines l ON o.w_id = l.w_id \
                 WHERE o.w_id = 3 AND l.w_id = 90";
        // 3 and 90 almost surely land in different buckets of 16
        if bucket_of(3) != bucket_of(90) {
            assert!(multi(q));
        }
    }

    #[test]
    fn reference_only_has_no_dist_tables() {
        assert_eq!(infer("SELECT * FROM items"), Judgement::NoDistributedRelation);
    }

    #[test]
    fn subquery_levels_must_agree() {
        let q = "SELECT * FROM orders WHERE w_id = 5 AND o_id IN \
                 (SELECT o_id FROM lines WHERE w_id = 5)";
        assert_eq!(infer(q), Judgement::SingleBucket(bucket_of(5)));
        let q2 = "SELECT * FROM orders WHERE w_id = 5 AND o_id IN \
                  (SELECT o_id FROM lines WHERE w_id = 1000)";
        if bucket_of(5) != bucket_of(1000) {
            assert!(multi(q2));
        }
    }

    #[test]
    fn dml_targets_route() {
        assert_eq!(
            infer("UPDATE orders SET o_total = 1 WHERE w_id = 9"),
            Judgement::SingleBucket(bucket_of(9))
        );
        assert_eq!(
            infer("DELETE FROM lines WHERE w_id = 9 AND o_id = 4"),
            Judgement::SingleBucket(bucket_of(9))
        );
        assert!(multi("UPDATE orders SET o_total = 1"));
    }

    #[test]
    fn in_list_prunes_but_does_not_route() {
        assert!(multi("SELECT * FROM orders WHERE w_id IN (1, 2, 3)"));
        let m = meta();
        let Statement::Select(sel) =
            parse("SELECT * FROM orders WHERE w_id IN (1, 2, 3)").unwrap()
        else {
            panic!()
        };
        let buckets = gather(&sel, &m, false).buckets(&m).unwrap();
        assert!(!buckets.is_empty() && buckets.len() <= 3);
    }

    #[test]
    fn cast_constants_pin() {
        // text distribution columns pinned via quoted literals
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("docs", "key", 0, 8, &[NodeId(1)], cid, None).unwrap();
        let stmt = parse("SELECT * FROM docs WHERE key = 'user-42'").unwrap();
        assert!(matches!(judge(&stmt, &m), Judgement::SingleBucket(_)));
    }

    // ---- the must-refuse corpus: each shape names its reason as data ----

    /// `meta()` plus `stock`, keyed like `orders` but in a second group. The
    /// reference table `items` is joined on columns *named* like the key.
    fn two_groups() -> Metadata {
        let mut m = meta();
        let other = m.allocate_colocation_id();
        m.add_hash_table("stock", "w_id", 0, 16, &[NodeId(1), NodeId(2)], other, None).unwrap();
        m
    }

    fn refusal(sql: &str) -> Reason {
        match judge(&parse(sql).unwrap(), &two_groups()) {
            Judgement::MustMove(reason) => reason,
            other => panic!("`{sql}` judged {other:?}"),
        }
    }

    fn pair(a: &str, b: &str, x: &str, y: &str) -> (String, String, Option<(String, String)>) {
        (a.into(), b.into(), Some((x.into(), y.into())))
    }

    #[test]
    fn colocated_tables_joined_off_the_key_are_refused() {
        let (a, b, equijoin) = pair("o", "l", "o_id", "o_id");
        assert_eq!(
            refusal("SELECT * FROM orders o JOIN lines l ON o.o_id = l.o_id"),
            Reason::NotJoinedOnKey { a, b, equijoin }
        );
        // no join condition at all: nothing to repartition on either
        assert_eq!(
            refusal("SELECT * FROM orders o, lines l"),
            Reason::NotJoinedOnKey { a: "o".into(), b: "l".into(), equijoin: None }
        );
    }

    #[test]
    fn two_groups_joined_on_the_key_are_refused() {
        let (a, b, equijoin) = pair("o", "s", "w_id", "w_id");
        assert_eq!(
            refusal("SELECT * FROM orders o JOIN stock s ON o.w_id = s.w_id"),
            Reason::NotColocated { a, b, equijoin }
        );
        // the groups clash across levels too, whatever the subquery pins
        assert!(matches!(
            refusal("SELECT * FROM orders WHERE w_id = 1 AND o_id IN (SELECT w_id FROM stock)"),
            Reason::NotColocated { equijoin: None, .. }
        ));
    }

    #[test]
    fn subqueries_needing_a_merge_below_a_join_are_refused() {
        let join = |sub: &str| {
            refusal(&format!("SELECT * FROM orders o JOIN ({sub}) x ON o.w_id = x.w_id"))
        };
        // an aggregate not grouped by the key, under a column named like it
        assert_eq!(
            join("SELECT o_id AS w_id, count(*) AS n FROM lines GROUP BY o_id"),
            Reason::SubqueryNeedsMerge { why: MergeNeed::Aggregate }
        );
        // grouped by the reference table's column that is called like the key
        assert_eq!(
            join("SELECT i.w_id, count(*) AS n FROM lines l JOIN items i ON l.o_id = i.i_id \
                  GROUP BY i.w_id"),
            Reason::SubqueryNeedsMerge { why: MergeNeed::Aggregate }
        );
        for sub in ["SELECT w_id FROM lines LIMIT 3", "SELECT DISTINCT w_id FROM lines"] {
            assert_eq!(join(sub), Reason::SubqueryNeedsMerge { why: MergeNeed::LimitOrDistinct });
        }
    }

    #[test]
    fn outer_join_preserving_the_reference_table_is_refused() {
        let replicated = Reason::OuterJoinPreservesReplicated { replicated: "items".into() };
        assert_eq!(refusal("SELECT * FROM items i LEFT JOIN orders o ON i.i_id = o.o_id"), replicated);
        assert_eq!(refusal("SELECT * FROM orders o RIGHT JOIN items i ON i.i_id = o.o_id"), replicated);
        assert_eq!(refusal("SELECT * FROM orders o FULL JOIN items i ON i.i_id = o.o_id"), replicated);
        // the reference table on the null-supplying side is fine
        assert!(multi("SELECT * FROM orders o LEFT JOIN items i ON i.i_id = o.o_id"));
        assert!(matches!(
            infer("SELECT * FROM orders o LEFT JOIN items i ON i.i_id = o.o_id"),
            Judgement::CoPartitioned(_)
        ));
    }

    #[test]
    fn a_subquery_exposing_its_key_meets_a_table_in_both_spellings() {
        let sub = "(SELECT w_id AS k, count(*) AS n FROM lines GROUP BY w_id) x";
        for sql in [
            format!("SELECT o.o_id, x.n FROM orders o JOIN {sub} ON o.w_id = x.k"),
            format!("SELECT o.o_id, x.n FROM orders o, {sub} WHERE o.w_id = x.k"),
        ] {
            let Judgement::CoPartitioned(cp) = infer(&sql) else { panic!("`{sql}` refused") };
            assert_eq!(cp.anchor, "orders");
            assert!(cp.key.holds(&Expr::Column { table: Some("x".into()), name: "k".into() }));
            assert!(!cp.key.holds(&Expr::Column { table: Some("x".into()), name: "n".into() }));
        }
        // a key read through the null-supplying side of an outer join may be
        // NULL on every shard: it joins, but no longer carries the key
        let Judgement::CoPartitioned(cp) =
            infer("SELECT * FROM orders o LEFT JOIN lines l ON o.w_id = l.w_id")
        else {
            panic!("refused")
        };
        assert_eq!(cp.key, KeyColumns(vec![("o".into(), "w_id".into())]));
    }

    // ---- co-located semi-joins: what stays on the shards ----

    /// `sql`'s top level: its judgement on its own, and how many of its
    /// subqueries need a subplan.
    fn level(sql: &str) -> (Judgement, usize) {
        let m = two_groups();
        let Statement::Select(sel) = parse(sql).unwrap() else { panic!("{sql}") };
        (judge_select(&sel, &m), subplans(&sel, &m).len())
    }

    #[test]
    fn colocated_semijoins_stay_on_the_shards() {
        for sql in [
            "SELECT * FROM orders WHERE w_id IN (SELECT w_id FROM lines WHERE o_id > 3)",
            "SELECT * FROM orders o WHERE o.w_id NOT IN (SELECT l.w_id FROM lines l)",
            "SELECT * FROM orders WHERE w_id IN (SELECT w_id AS k FROM lines)",
            // an aggregate grouped by the key keeps each group on one shard
            "SELECT * FROM orders WHERE o_id > 1 AND w_id IN \
             (SELECT w_id FROM lines GROUP BY w_id HAVING count(*) > 2)",
            // the key reached through a join on it
            "SELECT * FROM orders o JOIN lines l ON o.w_id = l.w_id \
             WHERE l.w_id IN (SELECT w_id FROM lines) AND o.w_id NOT IN (SELECT w_id FROM orders)",
            // a reference table on the null-supplying side leaves the key alone
            "SELECT * FROM orders o LEFT JOIN items i ON i.i_id = o.o_id \
             WHERE o.w_id IN (SELECT w_id FROM lines)",
            // inside a FROM-subquery, a level of its own
            "SELECT x.w_id FROM (SELECT w_id FROM orders WHERE w_id IN (SELECT w_id FROM lines)) x",
        ] {
            let (judged, subplans) = level(sql);
            assert!(matches!(judged, Judgement::CoPartitioned(_)), "`{sql}` judged {judged:?}");
            assert_eq!(subplans, 0, "`{sql}`");
        }
        // so does a semi-join in an INSERT..SELECT source
        let Judgement::CoPartitioned(cp) = infer(
            "INSERT INTO lines SELECT * FROM orders WHERE w_id IN (SELECT w_id FROM lines)",
        ) else {
            panic!("refused")
        };
        assert_eq!(cp.anchor, "lines");
    }

    #[test]
    fn other_subqueries_over_distributed_tables_need_a_subplan() {
        for sql in [
            // the reference table's column is only called like the key
            "SELECT * FROM orders o JOIN items i ON o.o_id = i.i_id \
             WHERE i.w_id IN (SELECT w_id FROM lines)",
            // the null-supplying side of an outer join reads NULL on every shard
            "SELECT * FROM orders o LEFT JOIN lines l ON o.w_id = l.w_id \
             WHERE l.w_id NOT IN (SELECT w_id FROM lines)",
            // the subquery's result spans shards
            "SELECT * FROM orders WHERE w_id IN (SELECT w_id FROM lines ORDER BY w_id LIMIT 3)",
            "SELECT * FROM orders WHERE w_id IN (SELECT DISTINCT w_id FROM lines)",
            "SELECT * FROM orders WHERE w_id IN (SELECT max(w_id) FROM lines GROUP BY o_id)",
            // the subquery does not output its key, or the outer side is no key
            "SELECT * FROM orders WHERE w_id IN (SELECT o_id FROM lines)",
            "SELECT * FROM orders WHERE o_id IN (SELECT w_id FROM lines)",
            // not a top-level conjunct
            "SELECT * FROM orders WHERE o_id = 1 OR w_id IN (SELECT w_id FROM lines)",
            "SELECT * FROM orders WHERE NOT (w_id IN (SELECT w_id FROM lines))",
            // another co-location group
            "SELECT * FROM orders WHERE w_id IN (SELECT w_id FROM stock)",
            // EXISTS and scalar subqueries, and subqueries outside WHERE
            "SELECT * FROM orders WHERE EXISTS (SELECT w_id FROM lines)",
            "SELECT * FROM orders WHERE w_id = (SELECT max(w_id) FROM lines)",
            "SELECT w_id IN (SELECT w_id FROM lines) FROM orders",
        ] {
            assert_eq!(level(sql), (Judgement::MustMove(Reason::NeedsSubplan), 1), "`{sql}`");
        }
        assert!(matches!(
            refusal("SELECT * FROM orders WHERE w_id IN (SELECT w_id FROM stock)"),
            Reason::NotColocated { .. }
        ));
        // a DML target's semi-joins are not pushed down
        let d = parse("DELETE FROM orders WHERE w_id IN (SELECT w_id FROM lines)").unwrap();
        assert_eq!(dml_subplans(&d, &meta()).len(), 1);
    }

    #[test]
    fn reference_subqueries_run_first_only_where_the_coordinator_merges() {
        let (judged, subplans) =
            level("SELECT * FROM orders WHERE o_id IN (SELECT i_id FROM items)");
        assert!(matches!(judged, Judgement::CoPartitioned(_)));
        assert_eq!(subplans, 0, "a WHERE subquery over a reference table runs on the shards");
        let (judged, subplans) = level(
            "SELECT o_id, count(*) FROM orders GROUP BY o_id \
             HAVING count(*) > (SELECT count(*) FROM items)",
        );
        assert!(matches!(judged, Judgement::CoPartitioned(_)));
        assert_eq!(subplans, 1, "the merge step evaluates HAVING");
    }
}
