//! Expression binding and evaluation.
//!
//! The planner resolves parsed [`sqlparse::ast::Expr`] trees against a row
//! scope (the columns produced by the FROM clause) into [`BExpr`] — a bound
//! form with column positions instead of names — which the executor then
//! evaluates per row with SQL's three-valued logic.

use crate::error::{ErrorCode, PgError, PgResult};
use crate::types::{datum::splitmix64, hash_bytes, text_ops, time, Datum, DatumRef, Json, Row};
use sqlparse::ast::{BinaryOp, Expr, Literal, TypeName, UnaryOp};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

/// One visible column in the binder's scope. Its names are shared, so the
/// planner copies a scope (a join's, a scan's part of it) without copying
/// a string.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Table alias / name the column is reachable through, when any.
    pub qualifier: Option<Arc<str>>,
    pub name: Arc<str>,
}

impl ColumnRef {
    pub fn new(qualifier: Option<&str>, name: &str) -> Self {
        ColumnRef { qualifier: qualifier.map(Arc::from), name: Arc::from(name) }
    }
}

/// The ordered set of columns an expression may reference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowScope {
    pub cols: Vec<ColumnRef>,
}

impl RowScope {
    pub fn of_table(qualifier: &str, names: &[String]) -> Self {
        let qualifier: Arc<str> = Arc::from(qualifier);
        let column =
            |n: &String| ColumnRef { qualifier: Some(qualifier.clone()), name: n.as_str().into() };
        RowScope { cols: names.iter().map(column).collect() }
    }

    /// Concatenate two scopes (the output of a join).
    pub fn join(&self, other: &RowScope) -> RowScope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        RowScope { cols }
    }

    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> PgResult<usize> {
        let mut matches = self.cols.iter().enumerate().filter(|(_, c)| {
            *c.name == *name && qualifier.is_none_or(|q| c.qualifier.as_deref() == Some(q))
        });
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Ok(i),
            (None, _) => Err(PgError::undefined_column(&match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })),
            (Some(_), Some(_)) => Err(PgError::new(
                ErrorCode::AmbiguousColumn,
                format!("column reference \"{name}\" is ambiguous"),
            )),
        }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Lower,
    Upper,
    Length,
    Substr,
    Concat,
    Replace,
    Position,
    Md5,
    Random,
    Floor,
    Ceil,
    Abs,
    Round,
    Power,
    Sqrt,
    Mod,
    Coalesce,
    NullIf,
    Greatest,
    Least,
    Now,
    DateTrunc,
    Extract,
    DateAddDays,
    DateAddMonths,
    JsonbArrayLength,
    JsonbPathQueryArray,
    JsonbTypeof,
}

impl Builtin {
    /// Resolve a function name; returns `None` for unknown (maybe UDF) names.
    pub fn resolve(name: &str) -> Option<Builtin> {
        Some(match name {
            "lower" => Builtin::Lower,
            "upper" => Builtin::Upper,
            "length" | "char_length" => Builtin::Length,
            "substr" | "substring" => Builtin::Substr,
            "concat" => Builtin::Concat,
            "replace" => Builtin::Replace,
            "position" | "strpos" => Builtin::Position,
            "md5" => Builtin::Md5,
            "random" => Builtin::Random,
            "floor" => Builtin::Floor,
            "ceil" | "ceiling" => Builtin::Ceil,
            "abs" => Builtin::Abs,
            "round" => Builtin::Round,
            "power" | "pow" => Builtin::Power,
            "sqrt" => Builtin::Sqrt,
            "mod" => Builtin::Mod,
            "coalesce" => Builtin::Coalesce,
            "nullif" => Builtin::NullIf,
            "greatest" => Builtin::Greatest,
            "least" => Builtin::Least,
            "now" | "current_timestamp" | "clock_timestamp" => Builtin::Now,
            "date_trunc" => Builtin::DateTrunc,
            "extract" | "date_part" => Builtin::Extract,
            "date_add_days" => Builtin::DateAddDays,
            "date_add_months" => Builtin::DateAddMonths,
            "jsonb_array_length" | "json_array_length" => Builtin::JsonbArrayLength,
            "jsonb_path_query_array" => Builtin::JsonbPathQueryArray,
            "jsonb_typeof" => Builtin::JsonbTypeof,
            _ => return None,
        })
    }
}

/// A bound expression, ready to evaluate against rows of its scope.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    Const(Datum),
    /// A literal slot of the statement's shape, resolved from
    /// [`EvalCtx::params`] at evaluation time: what makes a plan generic.
    Param(usize),
    Col(usize),
    Unary { op: UnaryOp, expr: Box<BExpr> },
    Binary { op: BinOp, left: Box<BExpr>, right: Box<BExpr> },
    Like { expr: Box<BExpr>, pattern: Box<BExpr>, negated: bool, case_insensitive: bool },
    Between { expr: Box<BExpr>, low: Box<BExpr>, high: Box<BExpr>, negated: bool },
    InList { expr: Box<BExpr>, list: Vec<BExpr>, negated: bool },
    /// Large constant IN-lists compile to a set probe (subplan results can
    /// contain thousands of values; linear scans would dominate runtime).
    InSet { expr: Box<BExpr>, set: std::sync::Arc<crate::types::KeyTable>, has_null: bool, negated: bool },
    IsNull { expr: Box<BExpr>, negated: bool },
    Case {
        operand: Option<Box<BExpr>>,
        branches: Vec<(BExpr, BExpr)>,
        else_result: Option<Box<BExpr>>,
    },
    Cast { expr: Box<BExpr>, ty: TypeName },
    Func { f: Builtin, args: Vec<BExpr> },
}

/// A bound binary operator. The arithmetic and the comparison operators
/// each have a type of their own, so what computes one of them (the
/// interpreter's `apply_binary`, the batch kernels) takes no other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Arith(Arith),
    Cmp(Cmp),
    And,
    Or,
    Concat,
    JsonGet,
    JsonGetText,
}

/// `+`, `-`, `*`, `/` and `%`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// `=`, `<>`, `<`, `<=`, `>` and `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl From<BinaryOp> for BinOp {
    fn from(op: BinaryOp) -> BinOp {
        match op {
            BinaryOp::Add => BinOp::Arith(Arith::Add),
            BinaryOp::Sub => BinOp::Arith(Arith::Sub),
            BinaryOp::Mul => BinOp::Arith(Arith::Mul),
            BinaryOp::Div => BinOp::Arith(Arith::Div),
            BinaryOp::Mod => BinOp::Arith(Arith::Mod),
            BinaryOp::Eq => BinOp::Cmp(Cmp::Eq),
            BinaryOp::Neq => BinOp::Cmp(Cmp::Neq),
            BinaryOp::Lt => BinOp::Cmp(Cmp::Lt),
            BinaryOp::Le => BinOp::Cmp(Cmp::Le),
            BinaryOp::Gt => BinOp::Cmp(Cmp::Gt),
            BinaryOp::Ge => BinOp::Cmp(Cmp::Ge),
            BinaryOp::And => BinOp::And,
            BinaryOp::Or => BinOp::Or,
            BinaryOp::Concat => BinOp::Concat,
            BinaryOp::JsonGet => BinOp::JsonGet,
            BinaryOp::JsonGetText => BinOp::JsonGetText,
        }
    }
}

impl Cmp {
    /// The orderings for which the operator holds, one bit each (`Less`,
    /// `Equal`, `Greater` from the low bit up): [`holds`] reads it.
    pub(crate) fn mask(self) -> u8 {
        match self {
            Cmp::Eq => 0b010,
            Cmp::Neq => 0b101,
            Cmp::Lt => 0b001,
            Cmp::Le => 0b011,
            Cmp::Gt => 0b100,
            Cmp::Ge => 0b110,
        }
    }

    /// The operator with its operands swapped: `a op b` is `b (mirror op) a`.
    pub(crate) fn mirror(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq | Cmp::Neq => self,
        }
    }
}

/// Whether an operator of [`Cmp::mask`] `mask` holds for operands ordered `ord`.
#[inline]
pub(crate) fn holds(mask: u8, ord: Ordering) -> bool {
    mask >> (ord as i8 + 1) & 1 == 1
}

impl BExpr {
    /// The direct sub-expressions, in the order the interpreter evaluates
    /// them. This is the one walk over a bound tree: [`BExpr::is_const`], the
    /// batch gates (`batch::supports_batch`, `batch::kernel_count`) and the
    /// planner's column collection are folds over it.
    pub fn children(&self) -> impl Iterator<Item = &BExpr> {
        type Parts<'e> =
            ([Option<&'e BExpr>; 3], &'e [BExpr], &'e [(BExpr, BExpr)], Option<&'e BExpr>);
        let (fixed, list, branches, last): Parts = match self {
            BExpr::Const(_) | BExpr::Param(_) | BExpr::Col(_) => ([None; 3], &[], &[], None),
            BExpr::Unary { expr, .. }
            | BExpr::Cast { expr, .. }
            | BExpr::IsNull { expr, .. }
            | BExpr::InSet { expr, .. } => ([Some(expr), None, None], &[], &[], None),
            BExpr::Binary { left, right, .. } => ([Some(left), Some(right), None], &[], &[], None),
            BExpr::Like { expr, pattern, .. } => {
                ([Some(expr), Some(pattern), None], &[], &[], None)
            }
            BExpr::Between { expr, low, high, .. } => {
                ([Some(expr), Some(low), Some(high)], &[], &[], None)
            }
            BExpr::InList { expr, list, .. } => ([Some(expr), None, None], list, &[], None),
            BExpr::Case { operand, branches, else_result } => {
                ([operand.as_deref(), None, None], &[], branches, else_result.as_deref())
            }
            BExpr::Func { args, .. } => ([None; 3], args, &[], None),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(list)
            .chain(branches.iter().flat_map(|(w, t)| [w, t]))
            .chain(last)
    }

    /// True when the expression references no columns: its value is fixed for
    /// the statement (a parameter slot included), so an index can be probed
    /// with it.
    pub fn is_const(&self) -> bool {
        match self {
            BExpr::Const(_) | BExpr::Param(_) => true,
            BExpr::Col(_) | BExpr::Func { f: Builtin::Random | Builtin::Now, .. } => false,
            _ => self.children().all(BExpr::is_const),
        }
    }
}

/// `now()` of every statement: 2020-06-01 00:00:00, in microseconds.
pub const NOW_MICROS: i64 = 1_590_969_600_000_000;

/// Per-statement evaluation context: deterministic RNG, a fixed `now()`, and
/// the statement's literal values by slot.
pub struct EvalCtx {
    rng: Cell<u64>,
    pub now_micros: i64,
    /// Values of the statement's [`BExpr::Param`] slots.
    pub params: Vec<Datum>,
}

impl EvalCtx {
    pub fn new(seed: u64, now_micros: i64) -> Self {
        EvalCtx { rng: Cell::new(seed | 1), now_micros, params: Vec::new() }
    }

    fn next_f64(&self) -> f64 {
        let next = splitmix64(self.rng.get());
        self.rng.set(next);
        (next >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Default for EvalCtx {
    fn default() -> Self {
        EvalCtx::new(0x1234_5678, NOW_MICROS)
    }
}

/// `$n` has no value.
pub(crate) fn missing_param(n: usize) -> PgError {
    PgError::new(ErrorCode::InvalidParameter, format!("no value for parameter ${n}"))
}

/// Bind a parsed expression against `scope`. `$n` binds to slot `n - 1`,
/// valued at evaluation time. Subqueries must have been inlined
/// ([`crate::plan::inline_subqueries`]) before binding.
pub fn bind(expr: &Expr, scope: &RowScope) -> PgResult<BExpr> {
    Ok(match expr {
        Expr::Literal(l) => BExpr::Const(literal_datum(l)),
        Expr::Param(n) => BExpr::Param(n.checked_sub(1).ok_or_else(|| missing_param(0))?),
        Expr::Column { table, name } => {
            BExpr::Col(scope.resolve(table.as_deref(), name)?)
        }
        Expr::Unary { op, expr } => {
            BExpr::Unary { op: *op, expr: Box::new(bind(expr, scope)?) }
        }
        Expr::Binary { left, op, right } => BExpr::Binary {
            op: BinOp::from(*op),
            left: Box::new(bind(left, scope)?),
            right: Box::new(bind(right, scope)?),
        },
        Expr::Like { expr, pattern, negated, case_insensitive } => BExpr::Like {
            expr: Box::new(bind(expr, scope)?),
            pattern: Box::new(bind(pattern, scope)?),
            negated: *negated,
            case_insensitive: *case_insensitive,
        },
        Expr::Between { expr, low, high, negated } => BExpr::Between {
            expr: Box::new(bind(expr, scope)?),
            low: Box::new(bind(low, scope)?),
            high: Box::new(bind(high, scope)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => {
            let bound: Vec<BExpr> =
                list.iter().map(|e| bind(e, scope)).collect::<PgResult<_>>()?;
            if bound.len() > sqlparse::shape::FOLDED_IN_LIST && bound.iter().all(BExpr::is_const)
            {
                let ctx = EvalCtx::default();
                let mut set = crate::types::KeyTable::new(1);
                let mut has_null = false;
                for b in &bound {
                    let v = eval(b, &vec![], &ctx)?;
                    if v.is_null() {
                        has_null = true;
                    } else {
                        set.insert(&[v]);
                    }
                }
                BExpr::InSet {
                    expr: Box::new(bind(expr, scope)?),
                    set: std::sync::Arc::new(set),
                    has_null,
                    negated: *negated,
                }
            } else {
                BExpr::InList {
                    expr: Box::new(bind(expr, scope)?),
                    list: bound,
                    negated: *negated,
                }
            }
        }
        Expr::IsNull { expr, negated } => {
            BExpr::IsNull { expr: Box::new(bind(expr, scope)?), negated: *negated }
        }
        Expr::Case { operand, branches, else_result } => BExpr::Case {
            operand: operand
                .as_ref()
                .map(|o| bind(o, scope).map(Box::new))
                .transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind(w, scope)?, bind(t, scope)?)))
                .collect::<PgResult<_>>()?,
            else_result: else_result
                .as_ref()
                .map(|e| bind(e, scope).map(Box::new))
                .transpose()?,
        },
        Expr::Cast { expr, ty } => {
            BExpr::Cast { expr: Box::new(bind(expr, scope)?), ty: *ty }
        }
        Expr::Func(fc) => {
            let f = Builtin::resolve(&fc.name).ok_or_else(|| {
                PgError::new(
                    ErrorCode::UndefinedColumn,
                    format!("function {}({}) does not exist", fc.name, fc.args.len()),
                )
            })?;
            BExpr::Func {
                f,
                args: fc.args.iter().map(|a| bind(a, scope)).collect::<PgResult<_>>()?,
            }
        }
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {
            return Err(PgError::internal(
                "subquery reached the binder; the planner must inline subqueries first",
            ))
        }
    })
}

pub fn literal_datum(l: &Literal) -> Datum {
    match l {
        Literal::Null => Datum::Null,
        Literal::Bool(b) => Datum::Bool(*b),
        Literal::Int(v) => Datum::Int(*v),
        Literal::Float(v) => Datum::Float(*v),
        Literal::String(s) => Datum::from_text(s),
    }
}

/// The expression that evaluates to `d`: a literal, cast from its text form
/// for the types that have no literal syntax.
pub fn datum_expr(d: &Datum) -> Expr {
    match d {
        Datum::Null => Expr::Literal(Literal::Null),
        Datum::Bool(b) => Expr::Literal(Literal::Bool(*b)),
        Datum::Int(v) => Expr::Literal(Literal::Int(*v)),
        Datum::Float(v) => Expr::Literal(Literal::Float(*v)),
        Datum::Text(s) => Expr::Literal(Literal::String(s.to_string())),
        Datum::Timestamp(_) | Datum::Json(_) => Expr::Cast {
            expr: Box::new(Expr::Literal(Literal::String(d.to_text()))),
            ty: if matches!(d, Datum::Timestamp(_)) { TypeName::Timestamp } else { TypeName::Json },
        },
    }
}

/// Evaluate a bound expression against one row.
pub fn eval(e: &BExpr, row: &Row, ctx: &EvalCtx) -> PgResult<Datum> {
    match e {
        BExpr::Const(d) => Ok(d.clone()),
        BExpr::Param(slot) => ctx.params.get(*slot).cloned().ok_or_else(|| missing_param(slot + 1)),
        BExpr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| PgError::internal(format!("column index {i} out of range"))),
        BExpr::Unary { op, expr } => apply_unary(*op, eval(expr, row, ctx)?),
        BExpr::Binary { op, left, right } => eval_binary(*op, left, right, row, ctx),
        BExpr::Like { expr, pattern, negated, case_insensitive } => {
            let v = eval(expr, row, ctx)?;
            let p = eval(pattern, row, ctx)?;
            Ok(apply_like(v.view(), p.view(), *negated, *case_insensitive))
        }
        BExpr::Between { expr, low, high, negated } => {
            let v = eval(expr, row, ctx)?;
            let lo = eval(low, row, ctx)?;
            let hi = eval(high, row, ctx)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Datum::Bool(inside != *negated))
                }
                _ => Ok(Datum::Null),
            }
        }
        BExpr::InList { expr, list, negated } => {
            let v = eval(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Datum::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row, ctx)?;
                match v.sql_cmp(&iv) {
                    Some(Ordering::Equal) => return Ok(Datum::Bool(!*negated)),
                    None if iv.is_null() => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Datum::Null)
            } else {
                Ok(Datum::Bool(*negated))
            }
        }
        BExpr::InSet { expr, set, has_null, negated } => {
            let v = eval(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Datum::Null);
            }
            let hit = set.contains(std::slice::from_ref(&v));
            if hit {
                Ok(Datum::Bool(!*negated))
            } else if *has_null {
                Ok(Datum::Null)
            } else {
                Ok(Datum::Bool(*negated))
            }
        }
        BExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, ctx)?;
            Ok(Datum::Bool(v.is_null() != *negated))
        }
        BExpr::Case { operand, branches, else_result } => {
            match operand {
                Some(op_expr) => {
                    let v = eval(op_expr, row, ctx)?;
                    for (when, then) in branches {
                        let w = eval(when, row, ctx)?;
                        if v.sql_cmp(&w) == Some(Ordering::Equal) {
                            return eval(then, row, ctx);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if matches!(eval(when, row, ctx)?, Datum::Bool(true)) {
                            return eval(then, row, ctx);
                        }
                    }
                }
            }
            match else_result {
                Some(e) => eval(e, row, ctx),
                None => Ok(Datum::Null),
            }
        }
        BExpr::Cast { expr, ty } => eval(expr, row, ctx)?.cast_to(*ty),
        BExpr::Func { f, args } => eval_func(*f, args, row, ctx),
    }
}

fn division_by_zero() -> PgError {
    PgError::new(ErrorCode::DivisionByZero, "division by zero")
}

fn bigint_out_of_range() -> PgError {
    PgError::new(ErrorCode::NumericValueOutOfRange, "bigint out of range")
}

/// `a op b` for two integers: the one definition behind the interpreter and
/// the batch `arith` kernel. `+`, `-` and `*` wrap (DESIGN.md §14 lists it
/// as a divergence); `/` overflows only on `i64::MIN / -1`, which raises
/// 22003 as PostgreSQL does, and `i64::MIN % -1` is 0.
#[inline]
pub(crate) fn int_arith(op: Arith, a: i64, b: i64) -> PgResult<i64> {
    match op {
        Arith::Add => Ok(a.wrapping_add(b)),
        Arith::Sub => Ok(a.wrapping_sub(b)),
        Arith::Mul => Ok(a.wrapping_mul(b)),
        Arith::Div | Arith::Mod if b == 0 => Err(division_by_zero()),
        Arith::Div => a.checked_div(b).ok_or_else(bigint_out_of_range),
        Arith::Mod => Ok(a.wrapping_rem(b)),
    }
}

/// `a op b` for two floats (an integer operand read as a float), shared
/// like [`int_arith`].
#[inline]
pub(crate) fn float_arith(op: Arith, a: f64, b: f64) -> PgResult<f64> {
    match op {
        Arith::Add => Ok(a + b),
        Arith::Sub => Ok(a - b),
        Arith::Mul => Ok(a * b),
        Arith::Div | Arith::Mod if b == 0.0 => Err(division_by_zero()),
        Arith::Div => Ok(a / b),
        Arith::Mod => Ok(a % b),
    }
}

/// A timestamp argument, cast as `::timestamp` casts it: its microseconds,
/// or `None` for NULL (the one value the cast leaves no timestamp).
fn timestamp_arg(d: Datum) -> PgResult<Option<i64>> {
    match d.cast_to(TypeName::Timestamp)? {
        Datum::Timestamp(t) => Ok(Some(t)),
        _ => Ok(None),
    }
}

/// Timestamp `t` moved by `days` whole days, wrapping as integer `+` does.
fn add_days(t: i64, days: i64) -> i64 {
    t.wrapping_add(days.wrapping_mul(time::MICROS_PER_DAY))
}

fn apply_unary(op: UnaryOp, v: Datum) -> PgResult<Datum> {
    match op {
        UnaryOp::Neg => match v {
            Datum::Null => Ok(Datum::Null),
            Datum::Int(x) => x.checked_neg().map(Datum::Int).ok_or_else(bigint_out_of_range),
            Datum::Float(x) => Ok(Datum::Float(-x)),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("cannot negate {}", other.to_text()),
            )),
        },
        UnaryOp::Not => match v {
            Datum::Null => Ok(Datum::Null),
            other => Ok(Datum::Bool(!other.as_bool()?)),
        },
    }
}

/// `[NOT] [I]LIKE`: NULL when either side is NULL; text matches as it is,
/// any other value by its text form.
fn apply_like(v: DatumRef, p: DatumRef, negated: bool, case_insensitive: bool) -> Datum {
    let hit = match (v, p) {
        (DatumRef::Null, _) | (_, DatumRef::Null) => return Datum::Null,
        (DatumRef::Text(t), DatumRef::Text(pat)) => text_ops::like_match(t, pat, case_insensitive),
        _ => text_ops::like_match(&v.to_datum().to_text(), &p.to_datum().to_text(), case_insensitive),
    };
    Datum::Bool(hit != negated)
}

/// Kleene combination for AND/OR once both operand values are known. The
/// short-circuit cases (AND false / OR true) are subsumed by the match.
fn kleene_combine(op: BinOp, l: Datum, r: Datum) -> Datum {
    match (op, l, r) {
        (BinOp::And, Datum::Bool(a), Datum::Bool(b)) => Datum::Bool(a && b),
        (BinOp::Or, Datum::Bool(a), Datum::Bool(b)) => Datum::Bool(a || b),
        (BinOp::And, Datum::Null, Datum::Bool(false))
        | (BinOp::And, Datum::Bool(false), Datum::Null) => Datum::Bool(false),
        (BinOp::Or, Datum::Null, Datum::Bool(true))
        | (BinOp::Or, Datum::Bool(true), Datum::Null) => Datum::Bool(true),
        _ => Datum::Null,
    }
}

fn eval_binary(op: BinOp, left: &BExpr, right: &BExpr, row: &Row, ctx: &EvalCtx) -> PgResult<Datum> {
    // AND/OR need Kleene logic with lazy-ish NULL handling
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = eval(left, row, ctx)?;
        // short-circuit
        match (op, &l) {
            (BinOp::And, Datum::Bool(false)) => return Ok(Datum::Bool(false)),
            (BinOp::Or, Datum::Bool(true)) => return Ok(Datum::Bool(true)),
            _ => {}
        }
        let r = eval(right, row, ctx)?;
        return Ok(kleene_combine(op, l, r));
    }
    let l = eval(left, row, ctx)?;
    let r = eval(right, row, ctx)?;
    apply_binary(op, l, r)
}

/// Binary evaluation on already-computed operand values (AND and OR by
/// Kleene logic); `batch::eval_batch` runs it on arithmetic operands that
/// are not numbers.
pub(crate) fn apply_binary(op: BinOp, l: Datum, r: Datum) -> PgResult<Datum> {
    match op {
        BinOp::Cmp(c) => return Ok(l.sql_cmp(&r).map_or(Datum::Null, |o| Datum::Bool(holds(c.mask(), o)))),
        BinOp::And | BinOp::Or => return Ok(kleene_combine(op, l, r)),
        _ if l.is_null() || r.is_null() => return Ok(Datum::Null),
        _ => {}
    }
    match op {
        BinOp::Concat => Ok(Datum::text(format!("{}{}", l.to_text(), r.to_text()))),
        BinOp::Arith(op) => match (l, r) {
            // timestamp ± int days
            (Datum::Timestamp(t), Datum::Int(d)) => match op {
                Arith::Add => Ok(Datum::Timestamp(add_days(t, d))),
                Arith::Sub => Ok(Datum::Timestamp(add_days(t, d.wrapping_neg()))),
                _ => Err(PgError::new(ErrorCode::InvalidText, "unsupported timestamp arithmetic")),
            },
            (Datum::Int(a), Datum::Int(b)) => int_arith(op, a, b).map(Datum::Int),
            (a, b) => float_arith(op, a.as_f64()?, b.as_f64()?).map(Datum::Float),
        },
        _ => {
            let parsed;
            let j: &Json = match &l {
                Datum::Json(j) => j,
                Datum::Text(s) => {
                    parsed = Json::parse(s)?;
                    &parsed
                }
                other => {
                    return Err(PgError::new(
                        ErrorCode::InvalidText,
                        format!("cannot apply -> to {}", other.to_text()),
                    ))
                }
            };
            let child = match &r {
                Datum::Int(i) => j.get_index(*i as usize),
                other => j.get(&other.to_text()),
            };
            Ok(match child {
                None => Datum::Null,
                Some(c) => {
                    if op == BinOp::JsonGet {
                        Datum::json(c.clone())
                    } else if matches!(c, Json::Null) {
                        Datum::Null
                    } else {
                        Datum::text(c.as_text())
                    }
                }
            })
        }
    }
}

fn eval_func(f: Builtin, args: &[BExpr], row: &Row, ctx: &EvalCtx) -> PgResult<Datum> {
    let arity = |n: usize| -> PgResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(PgError::new(
                ErrorCode::InvalidParameter,
                format!("function expects {n} argument(s), got {}", args.len()),
            ))
        }
    };
    let v = |i: usize| eval(&args[i], row, ctx);
    match f {
        Builtin::Random => {
            arity(0)?;
            Ok(Datum::Float(ctx.next_f64()))
        }
        Builtin::Now => {
            arity(0)?;
            Ok(Datum::Timestamp(ctx.now_micros))
        }
        Builtin::Lower => {
            arity(1)?;
            let a = v(0)?;
            Ok(if a.is_null() { Datum::Null } else { Datum::text(a.to_text().to_lowercase()) })
        }
        Builtin::Upper => {
            arity(1)?;
            let a = v(0)?;
            Ok(if a.is_null() { Datum::Null } else { Datum::text(a.to_text().to_uppercase()) })
        }
        Builtin::Length => {
            arity(1)?;
            let a = v(0)?;
            Ok(if a.is_null() {
                Datum::Null
            } else {
                Datum::Int(a.to_text().chars().count() as i64)
            })
        }
        Builtin::Substr => {
            if args.len() != 2 && args.len() != 3 {
                return Err(PgError::new(ErrorCode::InvalidParameter, "substr takes 2 or 3 args"));
            }
            let s = v(0)?;
            if s.is_null() {
                return Ok(Datum::Null);
            }
            let text = s.to_text();
            let start = v(1)?.as_i64()?.max(1) as usize - 1;
            let chars: Vec<char> = text.chars().collect();
            let slice: String = if args.len() == 3 {
                let len = v(2)?.as_i64()?.max(0) as usize;
                chars.iter().skip(start).take(len).collect()
            } else {
                chars.iter().skip(start).collect()
            };
            Ok(Datum::text(slice))
        }
        Builtin::Concat => {
            let mut out = String::new();
            for a in args {
                let x = eval(a, row, ctx)?;
                if !x.is_null() {
                    out.push_str(&x.to_text());
                }
            }
            Ok(Datum::text(out))
        }
        Builtin::Replace => {
            arity(3)?;
            let (s, from, to) = (v(0)?, v(1)?, v(2)?);
            if s.is_null() || from.is_null() || to.is_null() {
                return Ok(Datum::Null);
            }
            Ok(Datum::text(s.to_text().replace(&from.to_text(), &to.to_text())))
        }
        Builtin::Position => {
            arity(2)?;
            let (needle, hay) = (v(0)?, v(1)?);
            if needle.is_null() || hay.is_null() {
                return Ok(Datum::Null);
            }
            Ok(Datum::Int(
                hay.to_text().find(&needle.to_text()).map(|i| i as i64 + 1).unwrap_or(0),
            ))
        }
        Builtin::Md5 => {
            arity(1)?;
            let a = v(0)?;
            if a.is_null() {
                return Ok(Datum::Null);
            }
            let text = a.to_text();
            let h1 = hash_bytes(text.as_bytes());
            let h2 = hash_bytes(format!("md5:{text}").as_bytes());
            Ok(Datum::text(format!("{h1:016x}{h2:016x}")))
        }
        Builtin::Floor | Builtin::Ceil | Builtin::Abs | Builtin::Sqrt => {
            arity(1)?;
            let a = v(0)?;
            if a.is_null() {
                return Ok(Datum::Null);
            }
            if let (Builtin::Abs, Datum::Int(x)) = (f, &a) {
                return x.checked_abs().map(Datum::Int).ok_or_else(bigint_out_of_range);
            }
            let x = a.as_f64()?;
            Ok(Datum::Float(match f {
                Builtin::Floor => x.floor(),
                Builtin::Ceil => x.ceil(),
                Builtin::Abs => x.abs(),
                _ => x.sqrt(),
            }))
        }
        Builtin::Round => {
            let a = v(0)?;
            if a.is_null() {
                return Ok(Datum::Null);
            }
            let x = a.as_f64()?;
            if args.len() == 2 {
                let digits = v(1)?.as_i64()?;
                let scale = 10f64.powi(digits as i32);
                Ok(Datum::Float((x * scale).round() / scale))
            } else {
                Ok(Datum::Float(x.round()))
            }
        }
        Builtin::Power => {
            arity(2)?;
            let (a, b) = (v(0)?, v(1)?);
            if a.is_null() || b.is_null() {
                return Ok(Datum::Null);
            }
            Ok(Datum::Float(a.as_f64()?.powf(b.as_f64()?)))
        }
        Builtin::Mod => {
            arity(2)?;
            let (a, b) = (v(0)?, v(1)?);
            if a.is_null() || b.is_null() {
                return Ok(Datum::Null);
            }
            let bb = b.as_i64()?;
            if bb == 0 {
                return Err(division_by_zero());
            }
            int_arith(Arith::Mod, a.as_i64()?, bb).map(Datum::Int)
        }
        Builtin::Coalesce => {
            for a in args {
                let x = eval(a, row, ctx)?;
                if !x.is_null() {
                    return Ok(x);
                }
            }
            Ok(Datum::Null)
        }
        Builtin::NullIf => {
            arity(2)?;
            let (a, b) = (v(0)?, v(1)?);
            if a.sql_cmp(&b) == Some(Ordering::Equal) {
                Ok(Datum::Null)
            } else {
                Ok(a)
            }
        }
        Builtin::Greatest | Builtin::Least => {
            let mut best: Option<Datum> = None;
            for a in args {
                let x = eval(a, row, ctx)?;
                if x.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => x,
                    Some(b) => {
                        let keep_new = matches!(
                            (f, x.sql_cmp(&b)),
                            (Builtin::Greatest, Some(Ordering::Greater))
                                | (Builtin::Least, Some(Ordering::Less))
                        );
                        if keep_new {
                            x
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Datum::Null))
        }
        Builtin::DateTrunc | Builtin::Extract => {
            arity(2)?;
            let field = v(0)?.to_text();
            let Some(t) = timestamp_arg(v(1)?)? else { return Ok(Datum::Null) };
            let (name, out) = match f {
                Builtin::DateTrunc => ("date_trunc", time::date_trunc(&field, t).map(Datum::Timestamp)),
                _ => ("extract", time::extract(&field, t).map(Datum::Float)),
            };
            out.ok_or_else(|| {
                PgError::new(ErrorCode::InvalidParameter, format!("unknown {name} field {field}"))
            })
        }
        Builtin::DateAddDays | Builtin::DateAddMonths => {
            arity(2)?;
            Ok(match (timestamp_arg(v(0)?)?, v(1)?) {
                (Some(t), Datum::Int(d)) if f == Builtin::DateAddDays => Datum::Timestamp(add_days(t, d)),
                (Some(t), Datum::Int(m)) => Datum::Timestamp(time::add_months(t, m)),
                _ => Datum::Null,
            })
        }
        Builtin::JsonbArrayLength => {
            arity(1)?;
            match v(0)? {
                Datum::Null => Ok(Datum::Null),
                Datum::Json(j) => j
                    .array_len()
                    .map(|n| Datum::Int(n as i64))
                    .ok_or_else(|| {
                        PgError::new(
                            ErrorCode::InvalidParameter,
                            "cannot get array length of a non-array",
                        )
                    }),
                other => Err(PgError::new(
                    ErrorCode::InvalidText,
                    format!("jsonb_array_length on non-json {}", other.to_text()),
                )),
            }
        }
        Builtin::JsonbPathQueryArray => {
            arity(2)?;
            let doc = v(0)?;
            let path = v(1)?;
            match (doc, path) {
                (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
                (Datum::Json(j), p) => {
                    let hits = j.path_query(&p.to_text())?;
                    Ok(Datum::json(Json::Array(hits.into_iter().cloned().collect())))
                }
                (other, _) => Err(PgError::new(
                    ErrorCode::InvalidText,
                    format!("jsonb_path_query_array on non-json {}", other.to_text()),
                )),
            }
        }
        Builtin::JsonbTypeof => {
            arity(1)?;
            match v(0)? {
                Datum::Null => Ok(Datum::Null),
                Datum::Json(j) => Ok(Datum::text(match *j {
                    Json::Null => "null",
                    Json::Bool(_) => "boolean",
                    Json::Number(_) => "number",
                    Json::String(_) => "string",
                    Json::Array(_) => "array",
                    Json::Object(_) => "object",
                })),
                other => Err(PgError::new(
                    ErrorCode::InvalidText,
                    format!("jsonb_typeof on non-json {}", other.to_text()),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::parse_expr;

    fn scope() -> RowScope {
        RowScope::of_table(
            "t",
            &["a".to_string(), "b".to_string(), "name".to_string(), "data".to_string()],
        )
    }

    fn run(src: &str, row: &Row) -> Datum {
        let e = parse_expr(src).unwrap();
        let b = bind(&e, &scope()).unwrap();
        eval(&b, row, &EvalCtx::default()).unwrap()
    }

    fn sample_row() -> Row {
        vec![
            Datum::Int(10),
            Datum::Float(2.5),
            Datum::from_text("Hello"),
            Datum::json(Json::parse(r#"{"k": "v", "xs": [1, 2, 3]}"#).unwrap()),
        ]
    }

    #[test]
    fn arithmetic_and_precedence() {
        let r = sample_row();
        assert_eq!(run("a + 5", &r), Datum::Int(15));
        assert_eq!(run("a * b", &r), Datum::Float(25.0));
        assert_eq!(run("1 + 2 * 3", &r), Datum::Int(7));
        assert_eq!(run("a / 3", &r), Datum::Int(3));
        assert_eq!(run("a / 4.0", &r), Datum::Float(2.5));
        assert_eq!(run("a % 3", &r), Datum::Int(1));
        assert_eq!(run("-a", &r), Datum::Int(-10));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = parse_expr("a / 0").unwrap();
        let b = bind(&e, &scope()).unwrap();
        let err = eval(&b, &sample_row(), &EvalCtx::default()).unwrap_err();
        assert_eq!(err.code, ErrorCode::DivisionByZero);
    }

    #[test]
    fn three_valued_logic() {
        let r = vec![Datum::Null, Datum::Bool(true), Datum::Null, Datum::Null];
        assert_eq!(run("a = 1", &r), Datum::Null);
        assert_eq!(run("a = 1 AND false", &r), Datum::Bool(false));
        assert_eq!(run("a = 1 OR true", &r), Datum::Bool(true));
        assert_eq!(run("a = 1 OR false", &r), Datum::Null);
        assert_eq!(run("a IS NULL", &r), Datum::Bool(true));
        assert_eq!(run("a IS NOT NULL", &r), Datum::Bool(false));
        assert_eq!(run("NOT (a = 1)", &r), Datum::Null);
    }

    #[test]
    fn in_list_with_nulls() {
        let r = sample_row();
        assert_eq!(run("a IN (1, 10, 3)", &r), Datum::Bool(true));
        assert_eq!(run("a IN (1, 2)", &r), Datum::Bool(false));
        assert_eq!(run("a IN (1, NULL)", &r), Datum::Null);
        assert_eq!(run("a NOT IN (1, 2)", &r), Datum::Bool(true));
    }

    #[test]
    fn between_and_like() {
        let r = sample_row();
        assert_eq!(run("a BETWEEN 5 AND 15", &r), Datum::Bool(true));
        assert_eq!(run("a NOT BETWEEN 5 AND 15", &r), Datum::Bool(false));
        assert_eq!(run("name LIKE 'He%'", &r), Datum::Bool(true));
        assert_eq!(run("name LIKE 'he%'", &r), Datum::Bool(false));
        assert_eq!(run("name ILIKE 'he%'", &r), Datum::Bool(true));
        assert_eq!(run("name NOT LIKE '%z%'", &r), Datum::Bool(true));
    }

    #[test]
    fn case_expressions() {
        let r = sample_row();
        assert_eq!(
            run("CASE WHEN a > 5 THEN 'big' ELSE 'small' END", &r),
            Datum::from_text("big")
        );
        assert_eq!(run("CASE a WHEN 10 THEN 1 WHEN 20 THEN 2 END", &r), Datum::Int(1));
        assert_eq!(run("CASE a WHEN 99 THEN 1 END", &r), Datum::Null);
        // lazy: the ELSE branch's division never runs
        assert_eq!(run("CASE WHEN a = 10 THEN 1 ELSE a / 0 END", &r), Datum::Int(1));
    }

    #[test]
    fn json_operators() {
        let r = sample_row();
        assert_eq!(run("data->>'k'", &r), Datum::from_text("v"));
        assert_eq!(run("jsonb_array_length(data->'xs')", &r), Datum::Int(3));
        assert_eq!(run("data->'xs'->1", &r), Datum::json(Json::Number(2.0)));
        assert_eq!(run("data->>'missing'", &r), Datum::Null);
        assert_eq!(
            run("jsonb_path_query_array(data, '$.xs[*]')", &r),
            Datum::json(Json::parse("[1,2,3]").unwrap())
        );
    }

    #[test]
    fn string_functions() {
        let r = sample_row();
        assert_eq!(run("lower(name)", &r), Datum::from_text("hello"));
        assert_eq!(run("upper(name)", &r), Datum::from_text("HELLO"));
        assert_eq!(run("length(name)", &r), Datum::Int(5));
        assert_eq!(run("substr(name, 2, 3)", &r), Datum::from_text("ell"));
        assert_eq!(run("name || ' world'", &r), Datum::from_text("Hello world"));
        assert_eq!(run("replace(name, 'l', 'L')", &r), Datum::from_text("HeLLo"));
        assert_eq!(run("position('ll', name)", &r), Datum::Int(3));
        let md5 = run("md5(name)", &r);
        assert_eq!(md5.to_text().len(), 32);
    }

    #[test]
    fn null_propagation_in_functions() {
        let r = vec![Datum::Null, Datum::Null, Datum::Null, Datum::Null];
        assert_eq!(run("lower(name)", &r), Datum::Null);
        assert_eq!(run("coalesce(a, b, 7)", &r), Datum::Int(7));
        assert_eq!(run("nullif(5, 5)", &r), Datum::Null);
        assert_eq!(run("nullif(5, 6)", &r), Datum::Int(5));
        assert_eq!(run("greatest(a, 3, 9)", &r), Datum::Int(9));
        assert_eq!(run("least(4, 2, a)", &r), Datum::Int(2));
    }

    #[test]
    fn date_functions() {
        let r = sample_row();
        assert_eq!(
            run("extract(year FROM '2020-03-15'::timestamp)", &r),
            Datum::Float(2020.0)
        );
        assert_eq!(
            run("date_trunc('month', '2020-03-15'::timestamp)", &r),
            Datum::Timestamp(time::parse_timestamp("2020-03-01").unwrap())
        );
        assert_eq!(
            run("date_add_months('1994-01-01'::timestamp, 3)", &r),
            Datum::Timestamp(time::parse_timestamp("1994-04-01").unwrap())
        );
        assert_eq!(
            run("'2020-01-01'::timestamp + 31", &r),
            Datum::Timestamp(time::parse_timestamp("2020-02-01").unwrap())
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let e = parse_expr("random()").unwrap();
        let b = bind(&e, &scope()).unwrap();
        let c1 = EvalCtx::new(7, 0);
        let c2 = EvalCtx::new(7, 0);
        let v1 = eval(&b, &sample_row(), &c1).unwrap();
        let v2 = eval(&b, &sample_row(), &c2).unwrap();
        assert_eq!(v1, v2);
        let v3 = eval(&b, &sample_row(), &c1).unwrap();
        assert_ne!(v1, v3, "successive draws differ");
        let x = v1.as_f64().unwrap();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn params_bind() {
        let b = bind(&parse_expr("a + $1").unwrap(), &scope()).unwrap();
        let mut ctx = EvalCtx::default();
        let err = eval(&b, &sample_row(), &ctx).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidParameter);
        ctx.params = vec![Datum::Int(32)];
        assert_eq!(eval(&b, &sample_row(), &ctx).unwrap(), Datum::Int(42));
        assert_eq!(NOW_MICROS, time::parse_timestamp("2020-06-01 00:00:00").unwrap());
    }

    #[test]
    fn unknown_column_and_function() {
        let e = parse_expr("nope + 1").unwrap();
        assert_eq!(bind(&e, &scope()).unwrap_err().code, ErrorCode::UndefinedColumn);
        let e = parse_expr("frobnicate(a)").unwrap();
        assert!(bind(&e, &scope()).is_err());
    }

    #[test]
    fn ambiguous_column() {
        let s = RowScope {
            cols: vec![ColumnRef::new(Some("x"), "id"), ColumnRef::new(Some("y"), "id")],
        };
        assert_eq!(s.resolve(None, "id").unwrap_err().code, ErrorCode::AmbiguousColumn);
        assert_eq!(s.resolve(Some("y"), "id").unwrap(), 1);
    }

    #[test]
    fn constness() {
        let s = scope();
        let c = bind(&parse_expr("1 + 2 * length('ab')").unwrap(), &s).unwrap();
        assert!(c.is_const());
        let nc = bind(&parse_expr("a + 1").unwrap(), &s).unwrap();
        assert!(!nc.is_const());
        let rnd = bind(&parse_expr("random()").unwrap(), &s).unwrap();
        assert!(!rnd.is_const(), "volatile functions are not const");
    }
}
