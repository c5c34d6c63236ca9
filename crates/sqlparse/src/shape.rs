//! Statement shapes: the structure of a CRUD statement with its *value*
//! literals parameterized away.
//!
//! A shape is a byte string — the **skeleton** — produced by one walk over
//! the AST: every variant gets a distinct code, identifiers are written with
//! a terminator byte, and a literal in a value position collapses to its
//! code alone, so `SELECT … WHERE k = 1` and `… WHERE k = 2` share a
//! skeleton. [`shape_hash`] is FNV-1a over the skeleton; the distributed
//! plan cache keys on it, and the engine's local plan cache stores the
//! skeleton next to the plan so a hash collision is a miss.
//!
//! The same walk yields the statement's value literals in **slot order**
//! ([`Visit::value`]), and — run over `&mut` — replaces them by `$n`
//! placeholders ([`lift`]) or replaces `$n` placeholders by expressions
//! ([`bind_params`]). Both directions come out of one traversal definition
//! (`shape_walker!` below), so slot `n` of the literal vector is by
//! construction the literal `lift` replaced by `$n`.
//!
//! **The one statement traversal.** Besides bytes and values, the walk hands
//! its visitor every table name ([`Visit::table`]) and every nested `SELECT`
//! with where it sits ([`Visit::nested`], [`Nested`], [`Clause`]); the
//! visitor decides whether the walk descends into it. Renaming tables to
//! shards, collecting a statement's tables, judging its levels and inlining
//! subquery results all ride this walk, so each sees every clause of every
//! statement kind the skeleton sees.
//!
//! **What is a value.** A literal is a value when a computed quantity is
//! compared with it, assigned from it or combined with it: literals under
//! `WHERE`, `JOIN … ON`, `SET`, `VALUES`, `LIMIT` and `OFFSET`. A literal is
//! *structure*, and stays in the skeleton by value, where planners compare
//! expressions with each other, so that two statements differing there do
//! not share a plan:
//!
//! * anywhere in a select list, `GROUP BY`, `HAVING` or `ORDER BY`
//!   (`GROUP BY 1`, `ORDER BY 2`, a grouped `a + 1` matched against the
//!   select list's `a + 1`, an aggregate repeated in `HAVING`);
//! * as a function argument or a JSON member key — it selects *what* is
//!   computed from a row, and that is what an expression index is matched
//!   on (`data->>'msg' ILIKE …` against an index on `(data->>'msg')`).

use crate::ast::*;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An `IN` list longer than this is folded into a set probe by the engine's
/// binder when its members are constants; [`Facts::folded_in_list`] reports
/// such a list so the fold is never attempted over placeholders.
pub const FOLDED_IN_LIST: usize = 32;

/// FNV-1a over a skeleton.
pub fn fnv1a(skeleton: &[u8]) -> u64 {
    skeleton.iter().fold(FNV_OFFSET, |h, b| (h ^ *b as u64).wrapping_mul(FNV_PRIME))
}

/// What a walk learned about the statement besides its skeleton.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Number of value literals (= slots handed to [`Visit::value`]).
    pub slots: usize,
    /// A subquery, derived table or `INSERT … SELECT` source occurs.
    pub nested_select: bool,
    /// A `$n` placeholder occurs.
    pub params: bool,
    /// An `IN` list of more than [`FOLDED_IN_LIST`] members occurs.
    pub folded_in_list: bool,
}

/// The clause of a statement an expression sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    Projection,
    /// A `JOIN … ON` condition.
    On,
    Where,
    GroupBy,
    Having,
    OrderBy,
    Limit,
    Offset,
    /// `UPDATE … SET` or `ON CONFLICT DO UPDATE SET`.
    Set,
    /// An `INSERT … VALUES` row.
    Values,
}

/// A nested `SELECT` and where it sits: `S` is the select, `E` the
/// expression holding an expression subquery.
#[derive(Debug)]
pub enum Nested<S, E> {
    /// A FROM-subquery (derived table).
    From(S),
    /// The source of an `INSERT … SELECT`.
    Source(S),
    /// A scalar, `IN` or `EXISTS` subquery ([`Expr::subquery`]), in `Clause`.
    Expr(E, Clause),
}

/// Defines a shape walker over `&'a Statement` or `&mut Statement`. The `&`
/// form names its lifetime, so a visitor may keep what it is handed; the
/// `mut` token and that lifetime are the only differences between the two
/// instantiations.
macro_rules! shape_walker {
    ($Walker:ident, $Visit:ident, $doc:literal, [$($lt:lifetime)?], $a:lifetime $(, $m:tt)?) => {
        #[doc = $doc]
        pub trait $Visit<$($lt)?> {
            /// The next skeleton byte.
            fn byte(&mut self, _b: u8) {}
            /// An `Expr::Literal` in a value position; the `n`-th call is slot `n`.
            fn value(&mut self, _e: & $a $($m)? Expr) {}
            /// An `Expr::Param`, wherever it occurs.
            fn param(&mut self, _e: & $a $($m)? Expr) {}
            /// A table name: a FROM item with its alias slot, or a DML
            /// target (an `INSERT`'s has no alias slot: `None`).
            fn table(
                &mut self,
                _name: & $a $($m)? String,
                _alias: Option<& $a $($m)? Option<String>>,
            ) {
            }
            $(
                /// Whether `value` may rewrite what it is handed. An `IN`
                /// list is shared by the copies of a statement, so this walk
                /// copies it before handing its members over, unless the
                /// visitor answers false here and the list holds no `$n` and
                /// no subquery: then the list is read where it is shared, its
                /// bytes and slots walked, and `value` is not called for its
                /// members.
                fn rewrites_values(& $m self) -> bool {
                    true
                }
            )?
            /// A nested `SELECT`: the walk goes on into it, bytes included,
            /// only when this returns true. An expression the hook replaced
            /// is not walked.
            fn nested(&mut self, _n: Nested<& $a $($m)? Select, & $a $($m)? Expr>) -> bool {
                true
            }
        }

        struct $Walker<'v, V> {
            v: &'v mut V,
            /// Inside a clause whose literals are structure.
            structural: bool,
            /// The clause being walked.
            clause: Clause,
            facts: Facts,
        }

        impl<$($lt,)? V: $Visit<$($lt)?>> $Walker<'_, V> {
            fn code(&mut self, c: u8) {
                self.v.byte(c);
            }

            fn num(&mut self, n: u64) {
                for b in n.to_le_bytes() {
                    self.code(b);
                }
            }

            fn str(&mut self, s: &str) {
                for &b in s.as_bytes() {
                    self.code(b);
                }
                self.code(0xFF);
            }

            fn opt_str(&mut self, s: &Option<String>) {
                match s {
                    Some(s) => {
                        self.code(1);
                        self.str(s);
                    }
                    None => self.code(0),
                }
            }

            fn flag(&mut self, b: bool) {
                self.code(b as u8);
            }

            fn opt_expr(&mut self, e: & $a $($m)? Option<Expr>) {
                match e {
                    Some(e) => {
                        self.code(1);
                        self.expr(e);
                    }
                    None => self.code(0),
                }
            }

            fn opt_boxed(&mut self, e: & $a $($m)? Option<Box<Expr>>) {
                match e {
                    Some(e) => {
                        self.code(1);
                        self.expr(e);
                    }
                    None => self.code(0),
                }
            }

            fn statement(&mut self, stmt: & $a $($m)? Statement) {
                match stmt {
                    Statement::Select(s) => {
                        self.code(1);
                        self.select(s);
                    }
                    Statement::Insert(i) => {
                        self.code(2);
                        self.insert(i);
                    }
                    Statement::Update(u) => {
                        self.code(3);
                        self.update(u);
                    }
                    Statement::Delete(d) => {
                        self.code(4);
                        self.delete(d);
                    }
                    Statement::Explain { options, inner } => {
                        self.code(5);
                        self.flag(options.analyze);
                        self.flag(options.distributed);
                        self.statement(inner);
                    }
                    // no expressions to walk: the kind is the whole shape
                    other => {
                        use std::hash::Hash;
                        self.code(6);
                        std::mem::discriminant(&*other).hash(&mut ByteHasher(&mut *self));
                    }
                }
            }

            fn select(&mut self, s: & $a $($m)? Select) {
                let Select {
                    distinct,
                    projection,
                    from,
                    where_clause,
                    group_by,
                    having,
                    order_by,
                    limit,
                    offset,
                    for_update,
                } = s;
                self.flag(*distinct);
                let outer_clause = std::mem::replace(&mut self.clause, Clause::Projection);
                let outer = std::mem::replace(&mut self.structural, true);
                self.num(projection.len() as u64);
                for item in projection {
                    match item {
                        SelectItem::Wildcard => self.code(10),
                        SelectItem::QualifiedWildcard(t) => {
                            self.code(11);
                            self.str(t);
                        }
                        SelectItem::Expr { expr, alias } => {
                            self.code(12);
                            self.expr(expr);
                            self.opt_str(alias);
                        }
                    }
                }
                self.structural = outer;
                self.num(from.len() as u64);
                for f in from {
                    self.table_ref(f);
                }
                self.clause = Clause::Where;
                self.opt_expr(where_clause);
                self.structural = true;
                self.clause = Clause::GroupBy;
                self.num(group_by.len() as u64);
                for g in group_by {
                    self.expr(g);
                }
                self.clause = Clause::Having;
                self.opt_expr(having);
                self.clause = Clause::OrderBy;
                self.num(order_by.len() as u64);
                for o in order_by {
                    self.expr(& $($m)? o.expr);
                    self.flag(o.desc);
                }
                self.structural = outer;
                self.clause = Clause::Limit;
                self.opt_expr(limit);
                self.clause = Clause::Offset;
                self.opt_expr(offset);
                self.flag(*for_update);
                self.clause = outer_clause;
            }

            /// `e`, a scalar, `IN` or `EXISTS` subquery, past the bytes that
            /// precede its `SELECT`.
            fn subquery(&mut self, e: & $a $($m)? Expr) {
                self.facts.nested_select = true;
                if !self.v.nested(Nested::Expr(& $($m)? *e, self.clause)) {
                    return;
                }
                match e {
                    Expr::InSubquery { subquery, negated, .. }
                    | Expr::Exists { subquery, negated } => {
                        self.select(subquery);
                        self.flag(*negated);
                    }
                    Expr::ScalarSubquery(q) => self.select(q),
                    _ => {}
                }
            }

            fn table_ref(&mut self, t: & $a $($m)? TableRef) {
                match t {
                    TableRef::Table { name, alias } => {
                        self.code(20);
                        self.str(name);
                        self.opt_str(alias);
                        self.v.table(name, Some(alias));
                    }
                    TableRef::Subquery { query, alias } => {
                        self.code(21);
                        self.facts.nested_select = true;
                        if self.v.nested(Nested::From(& $($m)? **query)) {
                            self.select(query);
                        }
                        self.str(alias);
                    }
                    TableRef::Join { left, right, kind, on } => {
                        self.code(22);
                        self.table_ref(left);
                        self.table_ref(right);
                        self.code(*kind as u8);
                        self.clause = Clause::On;
                        self.opt_expr(on);
                    }
                }
            }

            fn literal(&mut self, e: & $a $($m)? Expr) {
                if !self.structural {
                    self.code(30);
                    self.facts.slots += 1;
                    return self.v.value(e);
                }
                self.code(29);
                let Expr::Literal(l) = &*e else { return };
                match l {
                    Literal::Null => self.code(0),
                    Literal::Bool(b) => {
                        self.code(1);
                        self.flag(*b);
                    }
                    Literal::Int(v) => {
                        self.code(2);
                        self.num(*v as u64);
                    }
                    Literal::Float(v) => {
                        self.code(3);
                        self.num(v.to_bits());
                    }
                    Literal::String(s) => {
                        self.code(4);
                        self.str(s);
                    }
                }
            }

            fn structural_expr(&mut self, e: & $a $($m)? Expr) {
                let outer = std::mem::replace(&mut self.structural, true);
                self.expr(e);
                self.structural = outer;
            }

            fn expr(&mut self, e: & $a $($m)? Expr) {
                match e {
                    Expr::Literal(_) => self.literal(e),
                    Expr::Param(i) => {
                        self.code(31);
                        self.num(*i as u64);
                        self.facts.params = true;
                        self.v.param(e);
                    }
                    Expr::Column { table, name } => {
                        self.code(32);
                        self.opt_str(table);
                        self.str(name);
                    }
                    Expr::Unary { op, expr } => {
                        self.code(33);
                        self.code(*op as u8);
                        self.expr(expr);
                    }
                    Expr::Binary { left, op, right } => {
                        self.code(34);
                        self.expr(left);
                        self.code(*op as u8);
                        if matches!(op, BinaryOp::JsonGet | BinaryOp::JsonGetText) {
                            self.structural_expr(right);
                        } else {
                            self.expr(right);
                        }
                    }
                    Expr::Like { expr, pattern, negated, case_insensitive } => {
                        self.code(35);
                        self.expr(expr);
                        self.expr(pattern);
                        self.flag(*negated);
                        self.flag(*case_insensitive);
                    }
                    Expr::Between { expr, low, high, negated } => {
                        self.code(36);
                        self.expr(expr);
                        self.expr(low);
                        self.expr(high);
                        self.flag(*negated);
                    }
                    Expr::InList { expr, list, negated } => {
                        self.code(37);
                        self.expr(expr);
                        self.num(list.len() as u64);
                        self.facts.folded_in_list |= list.len() > FOLDED_IN_LIST;
                        self.list(list);
                        self.flag(*negated);
                    }
                    Expr::InSubquery { expr, .. } => {
                        self.code(38);
                        self.expr(expr);
                        self.subquery(e);
                    }
                    Expr::Exists { .. } => {
                        self.code(39);
                        self.subquery(e);
                    }
                    Expr::ScalarSubquery(_) => {
                        self.code(40);
                        self.subquery(e);
                    }
                    Expr::Case { operand, branches, else_result } => {
                        self.code(41);
                        self.opt_boxed(operand);
                        self.num(branches.len() as u64);
                        for (w, t) in branches {
                            self.expr(w);
                            self.expr(t);
                        }
                        self.opt_boxed(else_result);
                    }
                    Expr::Cast { expr, ty } => {
                        self.code(42);
                        self.expr(expr);
                        self.code(*ty as u8);
                    }
                    Expr::Func(fc) => {
                        self.code(43);
                        self.str(&fc.name);
                        self.num(fc.args.len() as u64);
                        for a in & $($m)? fc.args {
                            self.structural_expr(a);
                        }
                        self.flag(fc.distinct);
                        self.flag(fc.star);
                    }
                    Expr::IsNull { expr, negated } => {
                        self.code(44);
                        self.expr(expr);
                        self.flag(*negated);
                    }
                }
            }

            fn insert(&mut self, i: & $a $($m)? Insert) {
                let Insert { table, columns, source, on_conflict } = i;
                self.str(table);
                self.v.table(table, None);
                self.num(columns.len() as u64);
                for c in columns {
                    self.str(c);
                }
                match source {
                    InsertSource::Values(rows) => {
                        self.code(50);
                        self.clause = Clause::Values;
                        self.num(rows.len() as u64);
                        for row in rows {
                            self.num(row.len() as u64);
                            for e in row {
                                self.expr(e);
                            }
                        }
                    }
                    InsertSource::Query(q) => {
                        self.code(51);
                        self.facts.nested_select = true;
                        if self.v.nested(Nested::Source(& $($m)? **q)) {
                            self.select(q);
                        }
                    }
                }
                match on_conflict {
                    None => self.code(0),
                    Some(oc) => {
                        self.code(1);
                        self.num(oc.target.len() as u64);
                        for t in & $($m)? oc.target {
                            self.str(t);
                        }
                        match & $($m)? oc.action {
                            ConflictAction::Nothing => self.code(52),
                            ConflictAction::Update(assigns) => {
                                self.code(53);
                                self.assignments(assigns);
                            }
                        }
                    }
                }
            }

            fn assignments(&mut self, assigns: & $a $($m)? Vec<Assignment>) {
                self.clause = Clause::Set;
                self.num(assigns.len() as u64);
                for a in assigns {
                    self.str(&a.column);
                    self.expr(& $($m)? a.value);
                }
            }

            fn update(&mut self, u: & $a $($m)? Update) {
                self.str(&u.table);
                self.opt_str(&u.alias);
                self.v.table(& $($m)? u.table, Some(& $($m)? u.alias));
                self.assignments(& $($m)? u.assignments);
                self.clause = Clause::Where;
                self.opt_expr(& $($m)? u.where_clause);
            }

            fn delete(&mut self, d: & $a $($m)? Delete) {
                self.str(&d.table);
                self.opt_str(&d.alias);
                self.v.table(& $($m)? d.table, Some(& $($m)? d.alias));
                self.clause = Clause::Where;
                self.opt_expr(& $($m)? d.where_clause);
            }
        }

        impl<$($lt,)? V: $Visit<$($lt)?>> std::hash::Hasher for ByteHasher<'_, $Walker<'_, V>> {
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0.code(b);
                }
            }

            fn finish(&self) -> u64 {
                0
            }
        }
    };
}

impl<'a, V: Visit<'a>> Walker<'_, V> {
    /// The members of an `IN` list.
    fn list(&mut self, list: &'a [Expr]) {
        for e in list {
            self.expr(e);
        }
    }
}

impl<V: VisitMut> WalkerMut<'_, V> {
    /// The members of an `IN` list: read where the list is shared when the
    /// visitor leaves values alone and no member holds a `$n` or a subquery
    /// ([`VisitMut::rewrites_values`]), walked in a list of this statement's
    /// own otherwise (copied first if it is shared).
    fn list(&mut self, list: &mut Arc<[Expr]>) {
        let handed = |e: &Expr| {
            let mut found = false;
            e.walk(&mut |x| {
                found |= matches!(x, Expr::Param(_)) || x.subquery().is_some();
            });
            found
        };
        if self.v.rewrites_values() || list.iter().any(handed) {
            for e in Arc::make_mut(list) {
                self.expr(e);
            }
            return;
        }
        let mut bytes = Bytes(&mut *self.v);
        let mut w = Walker {
            v: &mut bytes,
            structural: self.structural,
            clause: self.clause,
            facts: Facts::default(),
        };
        w.list(list);
        self.facts.slots += w.facts.slots;
        self.facts.folded_in_list |= w.facts.folded_in_list;
    }
}

/// A [`VisitMut`] seen as a [`Visit`] that takes bytes only.
struct Bytes<'v, V>(&'v mut V);

impl<V: VisitMut> Visit<'_> for Bytes<'_, V> {
    fn byte(&mut self, b: u8) {
        self.0.byte(b);
    }
}

/// Feeds a `Hash` value's bytes to a walker's skeleton.
struct ByteHasher<'w, W>(&'w mut W);

shape_walker!(
    Walker,
    Visit,
    "Receives a statement's skeleton, value literals, tables and nested selects, in walk order.",
    ['a],
    'a
);
shape_walker!(
    WalkerMut,
    VisitMut,
    "Like [`Visit`], over a statement it may rewrite: a visited node is not walked into again.",
    [],
    '_,
    mut
);

/// Walk `stmt`, feeding `v` its skeleton bytes, value literals, tables and
/// nested selects.
pub fn walk<'a, V: Visit<'a>>(stmt: &'a Statement, v: &mut V) -> Facts {
    let mut w = Walker { v, structural: false, clause: Clause::Projection, facts: Facts::default() };
    w.statement(stmt);
    w.facts
}

/// [`walk`] over a statement the visitor may rewrite in place.
pub fn walk_mut<V: VisitMut>(stmt: &mut Statement, v: &mut V) -> Facts {
    let mut w = WalkerMut { v, structural: false, clause: Clause::Projection, facts: Facts::default() };
    w.statement(stmt);
    w.facts
}

/// [`walk`] from one `SELECT`: a subquery, a FROM-subquery or a source.
pub fn walk_select<'a, V: Visit<'a>>(sel: &'a Select, v: &mut V) -> Facts {
    let mut w = Walker { v, structural: false, clause: Clause::Projection, facts: Facts::default() };
    w.select(sel);
    w.facts
}

/// [`walk_mut`] from one `SELECT`.
pub fn walk_select_mut<V: VisitMut>(sel: &mut Select, v: &mut V) -> Facts {
    let mut w = WalkerMut { v, structural: false, clause: Clause::Projection, facts: Facts::default() };
    w.select(sel);
    w.facts
}

/// The facts of `stmt` alone.
pub fn facts(stmt: &Statement) -> Facts {
    struct Ignore;
    impl Visit<'_> for Ignore {}
    walk(stmt, &mut Ignore)
}

struct FnvSink(u64);

impl Visit<'_> for FnvSink {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// Hash a statement's shape: its full structure (tables, columns, operators,
/// clauses) with every value literal elided. Two statements differing only
/// in values hash equal; anything structural — another column, a flipped
/// operator, an extra conjunct, a different `ORDER BY` ordinal — changes the
/// hash. One allocation-free pass; equals [`fnv1a`] of the skeleton.
pub fn shape_hash(stmt: &Statement) -> u64 {
    let mut h = FnvSink(FNV_OFFSET);
    walk(stmt, &mut h);
    h.0
}

/// Replace every value literal by `$n`, `n` being its slot number plus one:
/// the statement's generic form. Returns the walk's facts (`slots` is the
/// number of placeholders written).
pub fn lift(stmt: &mut Statement) -> Facts {
    struct Lift(usize);
    impl VisitMut for Lift {
        fn value(&mut self, e: &mut Expr) {
            self.0 += 1;
            *e = Expr::Param(self.0);
        }
    }
    walk_mut(stmt, &mut Lift(0))
}

/// Replace every `$n` by `value(n)`. Fails with the first `n` that has no
/// value; the statement is then partly rewritten and must be discarded.
pub fn bind_params(
    stmt: &mut Statement,
    value: impl FnMut(usize) -> Option<Expr>,
) -> Result<(), usize> {
    struct Bind<F> {
        value: F,
        missing: Option<usize>,
    }
    impl<F: FnMut(usize) -> Option<Expr>> VisitMut for Bind<F> {
        fn rewrites_values(&mut self) -> bool {
            false
        }

        fn param(&mut self, e: &mut Expr) {
            let Expr::Param(n) = *e else { return };
            match (self.value)(n) {
                Some(bound) => *e = bound,
                None => self.missing = self.missing.or(Some(n)),
            }
        }
    }
    let mut bind = Bind { value, missing: None };
    walk_mut(stmt, &mut bind);
    bind.missing.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn hash(sql: &str) -> u64 {
        shape_hash(&parse(sql).unwrap())
    }

    /// Skeleton bytes and value literals of a statement.
    #[derive(Default)]
    struct Collect {
        skeleton: Vec<u8>,
        values: Vec<Literal>,
    }

    impl Visit<'_> for Collect {
        fn byte(&mut self, b: u8) {
            self.skeleton.push(b);
        }

        fn value(&mut self, e: &Expr) {
            let Expr::Literal(l) = e else { panic!("value() got {e:?}") };
            self.values.push(l.clone());
        }
    }

    fn collect(sql: &str) -> (Collect, Facts) {
        let mut c = Collect::default();
        let facts = walk(&parse(sql).unwrap(), &mut c);
        (c, facts)
    }

    #[test]
    fn values_are_parameterized_away() {
        let a = hash("SELECT v FROM t WHERE k = 1");
        assert_eq!(a, hash("SELECT v FROM t WHERE k = 42"), "differing int constants");
        assert_eq!(a, hash("SELECT v FROM t WHERE k = 'x(y)'"), "string constants too");
        assert_eq!(a, hash("SELECT v FROM t WHERE k = NULL"));
        assert_eq!(
            hash("INSERT INTO t VALUES (1, 'a')"),
            hash("INSERT INTO t VALUES (2, 'b')"),
            "same insert shape"
        );
        assert_eq!(
            hash("UPDATE t SET v = v + 1 WHERE k = 3"),
            hash("UPDATE t SET v = v + 9 WHERE k = 4")
        );
        assert_eq!(
            hash("SELECT v FROM t WHERE k > 1 ORDER BY v LIMIT 1"),
            hash("SELECT v FROM t WHERE k > 2 ORDER BY v LIMIT 5 "),
            "LIMIT is a slot"
        );
    }

    #[test]
    fn structure_changes_the_shape() {
        let base = hash("SELECT v FROM t WHERE k = 1");
        assert_ne!(base, hash("SELECT v FROM u WHERE k = 1"), "table");
        assert_ne!(base, hash("SELECT w FROM t WHERE k = 1"), "column");
        assert_ne!(base, hash("SELECT v FROM t WHERE k > 1"), "operator");
        assert_ne!(base, hash("SELECT v FROM t WHERE k = 1 AND v = 2"), "extra conjunct");
        assert_ne!(
            hash("INSERT INTO t VALUES (1, 'a')"),
            hash("UPDATE t SET v = 'a' WHERE k = 1"),
            "statement kind"
        );
        assert_ne!(hash("BEGIN"), hash("COMMIT"), "non-CRUD statements hash by kind");
        assert_eq!(hash("VACUUM t"), hash("VACUUM u"));
    }

    #[test]
    fn literals_planners_compare_are_structure() {
        assert_ne!(
            hash("SELECT a, b FROM t ORDER BY 1"),
            hash("SELECT a, b FROM t ORDER BY 2"),
            "ORDER BY ordinal"
        );
        assert_ne!(
            hash("SELECT a, b, count(*) FROM t GROUP BY 1"),
            hash("SELECT a, b, count(*) FROM t GROUP BY 2"),
            "GROUP BY ordinal"
        );
        assert_ne!(
            hash("SELECT a + 1, count(*) FROM t GROUP BY a + 1"),
            hash("SELECT a + 1, count(*) FROM t GROUP BY a + 2"),
            "grouped expression"
        );
        assert_ne!(
            hash("SELECT k FROM t GROUP BY k HAVING sum(v) > 1"),
            hash("SELECT k FROM t GROUP BY k HAVING sum(v) > 2"),
            "HAVING"
        );
        let (c, facts) = collect("SELECT a + 1 FROM t WHERE k = 7 GROUP BY 1 ORDER BY 1 LIMIT 3");
        assert_eq!(c.values, vec![Literal::Int(7), Literal::Int(3)]);
        assert_eq!(facts.slots, 2);
    }

    #[test]
    fn what_is_computed_from_a_row_is_structure() {
        assert_ne!(
            hash("SELECT * FROM t WHERE data->>'a' = 'x'"),
            hash("SELECT * FROM t WHERE data->>'b' = 'x'"),
            "JSON member key"
        );
        assert_ne!(
            hash("SELECT * FROM t WHERE substr(s, 1, 2) = 'ab'"),
            hash("SELECT * FROM t WHERE substr(s, 1, 3) = 'ab'"),
            "function argument"
        );
        let (c, _) = collect(
            "UPDATE t SET n = n - 4 WHERE jsonb_path_query_array(d, '$.m')::text ILIKE '%pg%' \
             AND d->'k'->>'j' = 'v' AND ts < '2020-01-01'::timestamp",
        );
        assert_eq!(
            c.values,
            vec![
                Literal::Int(4),
                Literal::String("%pg%".into()),
                Literal::String("v".into()),
                Literal::String("2020-01-01".into()),
            ]
        );
    }

    #[test]
    fn hash_is_fnv_of_the_skeleton() {
        for sql in [
            "SELECT * FROM t WHERE k = 'x' FOR UPDATE",
            "INSERT INTO t (a, b) VALUES (1, 2), (3, 4) ON CONFLICT (a) DO UPDATE SET b = 5",
            "DELETE FROM t WHERE k BETWEEN 1 AND 2",
            "EXPLAIN SELECT 1",
            "TRUNCATE t",
        ] {
            assert_eq!(fnv1a(&collect(sql).0.skeleton), hash(sql), "{sql}");
        }
    }

    #[test]
    fn slots_follow_walk_order() {
        let (c, facts) = collect(
            "UPDATE t SET a = 1, b = b || 'x' WHERE k IN (2, 3) AND j LIKE 'p%' AND f > 1.5",
        );
        assert_eq!(
            c.values,
            vec![
                Literal::Int(1),
                Literal::String("x".into()),
                Literal::Int(2),
                Literal::Int(3),
                Literal::String("p%".into()),
                Literal::Float(1.5),
            ]
        );
        assert_eq!(facts, Facts { slots: 6, ..Facts::default() });
    }

    #[test]
    fn facts_report_what_keeps_a_statement_out_of_a_plan_cache() {
        assert!(collect("SELECT * FROM t WHERE k IN (SELECT k FROM u)").1.nested_select);
        assert!(collect("SELECT * FROM (SELECT 1) AS s").1.nested_select);
        assert!(collect("INSERT INTO t SELECT * FROM u").1.nested_select);
        assert!(collect("SELECT * FROM t WHERE k = $1").1.params);
        let long: Vec<String> = (0..=FOLDED_IN_LIST).map(|i| i.to_string()).collect();
        let (_, facts) = collect(&format!("SELECT * FROM t WHERE k IN ({})", long.join(", ")));
        assert!(facts.folded_in_list);
        assert_eq!(facts.slots, FOLDED_IN_LIST + 1);
        assert_eq!(collect("SELECT * FROM t WHERE k IN (1, 2)").1, Facts {
            slots: 2,
            ..Facts::default()
        });
    }

    #[test]
    fn lift_and_bind_are_inverse() {
        for sql in [
            "SELECT a + 1 FROM t WHERE k = 7 AND s LIKE 'x%' ORDER BY 1 LIMIT 3 OFFSET 1",
            "INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', true) ON CONFLICT (a) DO UPDATE SET n = t.n + 1",
            "UPDATE t SET v = CASE WHEN v > 1 THEN 2 ELSE 3 END WHERE k BETWEEN 4 AND 5",
            "DELETE FROM t WHERE k IN (1, 2) OR k = (SELECT max(k) - 1 FROM u WHERE j = 9)",
            "EXPLAIN SELECT * FROM a JOIN b ON a.x = b.x AND b.y = 2 WHERE a.z = 3",
        ] {
            let original = parse(sql).unwrap();
            let (c, facts) = collect(sql);
            let mut generic = original.clone();
            assert_eq!(lift(&mut generic), facts, "{sql}");
            assert_eq!(shape_hash(&generic) == shape_hash(&original), facts.slots == 0);
            let mut bound = generic.clone();
            bind_params(&mut bound, |n| c.values.get(n - 1).cloned().map(Expr::Literal)).unwrap();
            assert_eq!(bound, original, "slot n is the literal lift replaced by $n: {sql}");
        }
    }

    /// The tables and nested selects of every clause reach the hooks, in
    /// walk order, each expression subquery with its clause.
    #[test]
    fn hooks_see_every_clause() {
        #[derive(Default)]
        struct Seen(Vec<String>);
        impl<'a> Visit<'a> for Seen {
            fn table(&mut self, name: &'a String, alias: Option<&'a Option<String>>) {
                self.0.push(format!("{name}{}", if alias.is_some() { "" } else { "!" }));
            }
            fn nested(&mut self, n: Nested<&'a Select, &'a Expr>) -> bool {
                self.0.push(match n {
                    Nested::From(_) => "from".into(),
                    Nested::Source(_) => "source".into(),
                    Nested::Expr(_, clause) => format!("{clause:?}"),
                });
                true
            }
        }
        let seen = |sql: String| {
            let mut seen = Seen::default();
            walk(&parse(&sql).unwrap(), &mut seen);
            seen.0.join(" ")
        };
        let q = |t: &str| format!("(SELECT max(x) FROM {t})");
        assert_eq!(
            seen(format!(
                "SELECT {} FROM a JOIN (SELECT x FROM c) s ON a.x = {} WHERE a.x IN \
                 (SELECT x FROM e) GROUP BY {} HAVING count(*) > {} ORDER BY {} LIMIT {} OFFSET {}",
                q("b"), q("d"), q("f"), q("g"), q("h"), q("i"), q("j")
            )),
            "Projection b a from c On d Where e GroupBy f Having g OrderBy h Limit i Offset j"
        );
        let update = format!("UPDATE t SET v = {} WHERE k = {}", q("b"), q("c"));
        assert_eq!(seen(update), "t Set b Where c");
        assert_eq!(
            seen(format!(
                "INSERT INTO t VALUES (1, {}) ON CONFLICT (k) DO UPDATE SET v = {}",
                q("b"),
                q("c")
            )),
            "t! Values b Set c"
        );
        assert_eq!(seen("INSERT INTO t SELECT * FROM u".into()), "t! source u");
    }

    #[test]
    fn bind_params_reports_the_missing_parameter() {
        let mut stmt = parse("SELECT $1 FROM t WHERE k = $2 AND j = $3").unwrap();
        let err = bind_params(&mut stmt, |n| (n == 1).then(|| Expr::int(5)));
        assert_eq!(err, Err(2));
    }
}
