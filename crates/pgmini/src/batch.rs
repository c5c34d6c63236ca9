//! Vectorized batched execution over typed columnar stripes.
//!
//! A [`ColumnBatch`] is a run of up to [`BATCH_CAPACITY`] rows of one
//! stripe that exposes the *referenced* columns only, as typed slices
//! ([`ColumnSlice`]: `i64` / `f64` arrays, dictionary codes, a validity
//! bitmap). Two kinds of kernel evaluate a whole batch per call:
//!
//! * [`filter_batch`] writes a predicate's selection vector. A comparison
//!   whose operands are typed (a column, a constant, computed numbers) tests
//!   the slices in place, and one of a number or timestamp column with a
//!   constant runs as a loop over the column's array; AND narrows the
//!   selection and OR widens it, each side running where the row-at-a-time
//!   interpreter would run it, or where running it changes nothing;
//! * [`eval_batch`] computes values. Arithmetic over numbers runs on `i64` /
//!   `f64` lanes. Every other expression runs the scalar cores
//!   (`apply_unary` / `apply_binary` / `kleene_combine` / `apply_like`) on
//!   `Datum` lanes built from the typed columns.
//!
//! Both share the scalar semantics, so they produce the interpreter's values
//! and, for statements that fail, its error codes (see DESIGN.md's
//! determinism argument for the one caveat: *which* of several failing rows
//! reports first).
//!
//! The kernels deliberately exclude `BExpr::Func`: `random()` draws from
//! the statement RNG in row order (order-sensitive by construction), and
//! the other builtins don't appear in scan-bound warehouse filters. A scan
//! whose filter contains one selects its rows one at a time, and an
//! aggregate over one runs on the volcano path.

use crate::error::{ErrorCode, PgError, PgResult};
use crate::expr::{apply_binary, apply_like, apply_unary, kleene_combine, BExpr, EvalCtx};
use crate::stripe::{ColumnSlice, Slice, Stripe};
use crate::types::datum::float_cmp;
use crate::types::{time, Datum, DatumRef};
use sqlparse::ast::BinaryOp;
use std::cmp::Ordering;

/// Rows per batch. 1024 keeps a batch's referenced columns comfortably in
/// cache on real hardware, which is what the cost model's per-batch kernel
/// pricing assumes.
pub const BATCH_CAPACITY: usize = 1024;

/// One batch of rows in column-major layout. `cols[c]` is `Some` only for
/// columns the plan references (the projection-pushdown contract,
/// regression-tested in exec.rs), and borrows the stripe's arrays: the only
/// values built out of a stripe are those of the rows that survive the
/// filter ([`ColumnBatch::gather`]) and the lanes a kernel computes.
pub struct ColumnBatch<'s> {
    pub len: usize,
    cols: Vec<Option<ColumnSlice<'s>>>,
}

impl<'s> ColumnBatch<'s> {
    /// Rows `[lo, lo+len)` of `stripe` as a batch exposing only the
    /// `referenced` columns.
    pub fn from_stripe(
        stripe: &'s Stripe,
        lo: usize,
        len: usize,
        referenced: &[usize],
    ) -> ColumnBatch<'s> {
        let mut cols = vec![None; stripe.columns().len()];
        for &c in referenced {
            cols[c] = Some(stripe.columns()[c].slice(lo, len));
        }
        ColumnBatch { len, cols }
    }

    pub fn col(&self, i: usize) -> PgResult<ColumnSlice<'s>> {
        match self.cols.get(i) {
            Some(Some(v)) => Ok(*v),
            _ => Err(PgError::internal(format!(
                "batch kernel referenced unmaterialized column {i}"
            ))),
        }
    }

    /// Whether column `i` is exposed by this batch.
    pub fn has_col(&self, i: usize) -> bool {
        matches!(self.cols.get(i), Some(Some(_)))
    }

    /// Gather row `r` into `row`, reusing its allocation: its values in
    /// column order, NULL for the columns the batch does not expose. The
    /// executor's row source lends this row to the operators above the scan.
    pub fn gather(&self, r: usize, row: &mut crate::types::Row) {
        row.clear();
        row.extend(self.cols.iter().map(|c| c.map_or(Datum::Null, |v| v.get(r).to_datum())));
    }
}

/// A kernel result: one value per batch row. `Const` and `Col` read
/// without building lanes; `Int` and `Float` are computed numbers; `Owned`
/// lanes hold any value. Lanes outside the evaluated selection read as NULL
/// and must not be read.
#[derive(Debug)]
pub enum BVec<'a> {
    Const(Datum),
    Col(ColumnSlice<'a>),
    Int(Lanes<i64>),
    Float(Lanes<f64>),
    Owned(Vec<Datum>),
}

/// Computed numbers, one per batch row: `valid[i]` is false for NULL.
#[derive(Debug)]
pub struct Lanes<T> {
    vals: Vec<T>,
    valid: Vec<bool>,
}

impl BVec<'_> {
    /// Lane `i`, borrowed.
    #[inline]
    pub fn get(&self, i: usize) -> DatumRef<'_> {
        match self {
            BVec::Const(d) => d.view(),
            BVec::Col(c) => c.get(i),
            BVec::Int(l) if l.valid[i] => DatumRef::Int(l.vals[i]),
            BVec::Float(l) if l.valid[i] => DatumRef::Float(l.vals[i]),
            BVec::Int(_) | BVec::Float(_) => DatumRef::Null,
            BVec::Owned(v) => v[i].view(),
        }
    }

    /// This vector as arithmetic operands, when it holds numbers only.
    fn num(&self) -> Option<Num<'_>> {
        Some(match self {
            BVec::Const(Datum::Int(v)) => Num::IntConst(*v),
            BVec::Const(Datum::Float(v)) => Num::FloatConst(*v),
            BVec::Col(c) => match c.values {
                Slice::Int(v) => Num::Int(v, Valid::Col(*c)),
                Slice::Float(v) => Num::Float(v, Valid::Col(*c)),
                _ => return None,
            },
            BVec::Int(l) => Num::Int(&l.vals, Valid::Flags(&l.valid)),
            BVec::Float(l) => Num::Float(&l.vals, Valid::Flags(&l.valid)),
            _ => return None,
        })
    }
}

/// Which lanes of a number operand are not NULL.
#[derive(Clone, Copy)]
enum Valid<'v> {
    Col(ColumnSlice<'v>),
    Flags(&'v [bool]),
}

/// An arithmetic operand: a run of `i64` or `f64` lanes, or a constant.
#[derive(Clone, Copy)]
enum Num<'v> {
    Int(&'v [i64], Valid<'v>),
    Float(&'v [f64], Valid<'v>),
    IntConst(i64),
    FloatConst(f64),
}

impl Num<'_> {
    fn is_int(self) -> bool {
        matches!(self, Num::Int(..) | Num::IntConst(_))
    }

    #[inline]
    fn valid(self, i: usize) -> bool {
        match self {
            Num::Int(_, v) | Num::Float(_, v) => match v {
                Valid::Col(c) => !c.is_null(i),
                Valid::Flags(f) => f[i],
            },
            Num::IntConst(_) | Num::FloatConst(_) => true,
        }
    }

    /// Lane `i` of an integer operand.
    #[inline]
    fn int(self, i: usize) -> i64 {
        match self {
            Num::Int(v, _) => v[i],
            Num::IntConst(c) => c,
            Num::Float(..) | Num::FloatConst(_) => unreachable!("int mode takes integers"),
        }
    }

    /// Lane `i` as a float, as `Datum::as_f64` reads it.
    #[inline]
    fn float(self, i: usize) -> f64 {
        match self {
            Num::Int(v, _) => v[i] as f64,
            Num::Float(v, _) => v[i],
            Num::IntConst(c) => c as f64,
            Num::FloatConst(c) => c,
        }
    }
}

fn division_by_zero() -> PgError {
    PgError::new(ErrorCode::DivisionByZero, "division by zero")
}

/// `l op r` over the selected lanes of two number operands, as
/// `apply_binary` computes each lane: NULL when either side is NULL, integer
/// arithmetic (wrapping) when both sides are integers, else float.
fn arith(op: BinaryOp, l: Num, r: Num, len: usize, sel: &[usize]) -> PgResult<BVec<'static>> {
    let mut valid = vec![false; len];
    if l.is_int() && r.is_int() {
        let mut vals = vec![0i64; len];
        for &i in sel {
            if !(l.valid(i) && r.valid(i)) {
                continue;
            }
            let (a, b) = (l.int(i), r.int(i));
            vals[i] = match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div if b == 0 => return Err(division_by_zero()),
                BinaryOp::Div => a / b,
                BinaryOp::Mod if b == 0 => return Err(division_by_zero()),
                BinaryOp::Mod => a % b,
                _ => unreachable!("arith takes arithmetic operators"),
            };
            valid[i] = true;
        }
        return Ok(BVec::Int(Lanes { vals, valid }));
    }
    let mut vals = vec![0f64; len];
    for &i in sel {
        if !(l.valid(i) && r.valid(i)) {
            continue;
        }
        let (a, b) = (l.float(i), r.float(i));
        vals[i] = match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div | BinaryOp::Mod if b == 0.0 => return Err(division_by_zero()),
            BinaryOp::Div => a / b,
            BinaryOp::Mod => a % b,
            _ => unreachable!("arith takes arithmetic operators"),
        };
        valid[i] = true;
    }
    Ok(BVec::Float(Lanes { vals, valid }))
}

/// True when `e` can be evaluated by the batch kernels with results (and
/// error codes) identical to the row-at-a-time interpreter.
pub fn supports_batch(e: &BExpr) -> bool {
    match e {
        BExpr::Const(_) | BExpr::Param(_) | BExpr::Col(_) => true,
        BExpr::Unary { expr, .. } | BExpr::Cast { expr, .. } | BExpr::IsNull { expr, .. } => {
            supports_batch(expr)
        }
        BExpr::Binary { left, right, .. } => supports_batch(left) && supports_batch(right),
        BExpr::Like { expr, pattern, .. } => supports_batch(expr) && supports_batch(pattern),
        BExpr::Between { expr, low, high, .. } => {
            supports_batch(expr) && supports_batch(low) && supports_batch(high)
        }
        BExpr::InList { expr, list, .. } => {
            supports_batch(expr) && list.iter().all(supports_batch)
        }
        BExpr::InSet { expr, .. } => supports_batch(expr),
        BExpr::Case { operand, branches, else_result } => {
            operand.as_deref().is_none_or(supports_batch)
                && branches.iter().all(|(w, t)| supports_batch(w) && supports_batch(t))
                && else_result.as_deref().is_none_or(supports_batch)
        }
        // random() is order-sensitive (statement RNG); the other builtins
        // simply don't earn a kernel — fall back to volcano.
        BExpr::Func { .. } => false,
    }
}

/// Number of kernel invocations evaluating `e` costs per batch (expression
/// nodes that do per-lane work; `Const`/`Col` resolve to existing vectors).
pub fn kernel_count(e: &BExpr) -> u64 {
    match e {
        BExpr::Const(_) | BExpr::Param(_) | BExpr::Col(_) => 0,
        BExpr::Unary { expr, .. } | BExpr::Cast { expr, .. } | BExpr::IsNull { expr, .. } => {
            1 + kernel_count(expr)
        }
        BExpr::Binary { left, right, .. } => 1 + kernel_count(left) + kernel_count(right),
        BExpr::Like { expr, pattern, .. } => 1 + kernel_count(expr) + kernel_count(pattern),
        BExpr::Between { expr, low, high, .. } => {
            1 + kernel_count(expr) + kernel_count(low) + kernel_count(high)
        }
        BExpr::InList { expr, list, .. } => {
            1 + kernel_count(expr) + list.iter().map(kernel_count).sum::<u64>()
        }
        BExpr::InSet { expr, .. } => 1 + kernel_count(expr),
        BExpr::Case { operand, branches, else_result } => {
            1 + operand.as_deref().map(kernel_count).unwrap_or(0)
                + branches.iter().map(|(w, t)| kernel_count(w) + kernel_count(t)).sum::<u64>()
                + else_result.as_deref().map(kernel_count).unwrap_or(0)
        }
        BExpr::Func { args, .. } => 1 + args.iter().map(kernel_count).sum::<u64>(),
    }
}

fn owned(len: usize) -> Vec<Datum> {
    vec![Datum::Null; len]
}

/// Evaluate `e` over the `sel`ected rows of `batch`. Rows are visited in
/// ascending `sel` order, so the first failing row raises the same error a
/// row-at-a-time scan of the same rows would raise for that expression.
/// A unary, arithmetic or cast node over constant operands is computed once
/// per batch — when there is a row to compute it for, so an empty selection
/// still raises nothing — and stays a `Const`.
pub fn eval_batch<'a>(
    e: &'a BExpr,
    batch: &ColumnBatch<'a>,
    sel: &[usize],
    ctx: &EvalCtx,
) -> PgResult<BVec<'a>> {
    Ok(match e {
        BExpr::Const(d) => BVec::Const(d.clone()),
        BExpr::Param(_) => BVec::Const(crate::expr::eval(e, &Vec::new(), ctx)?),
        BExpr::Col(i) => BVec::Col(batch.col(*i)?),
        BExpr::Unary { op, expr } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            if let (BVec::Const(d), Some(_)) = (&v, sel.first()) {
                return Ok(BVec::Const(apply_unary(*op, d.clone())?));
            }
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = apply_unary(*op, v.get(i).to_datum())?;
            }
            BVec::Owned(out)
        }
        BExpr::Binary { op, left, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                let l = eval_batch(left, batch, sel, ctx)?;
                // Masked short-circuit: only rows whose left side doesn't
                // decide the result evaluate the right side — same rows a
                // volcano scan would evaluate it for (same division-by-zero
                // behaviour on the pruned side).
                let decided = |d: DatumRef| match op {
                    BinaryOp::And => matches!(d, DatumRef::Bool(false)),
                    _ => matches!(d, DatumRef::Bool(true)),
                };
                let need: Vec<usize> =
                    sel.iter().copied().filter(|&i| !decided(l.get(i))).collect();
                let r = eval_batch(right, batch, &need, ctx)?;
                let mut out = owned(batch.len);
                for &i in sel {
                    let lv = l.get(i);
                    out[i] = if decided(lv) {
                        lv.to_datum()
                    } else {
                        kleene_combine(*op, lv.to_datum(), r.get(i).to_datum())
                    };
                }
                BVec::Owned(out)
            } else {
                let l = eval_batch(left, batch, sel, ctx)?;
                let r = eval_batch(right, batch, sel, ctx)?;
                if let (BVec::Const(a), BVec::Const(b), Some(_)) = (&l, &r, sel.first()) {
                    return Ok(BVec::Const(apply_binary(*op, a.clone(), b.clone())?));
                }
                let arithmetic = matches!(
                    op,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
                );
                if let (true, Some(a), Some(b)) = (arithmetic, l.num(), r.num()) {
                    return arith(*op, a, b, batch.len, sel);
                }
                let mut out = owned(batch.len);
                for &i in sel {
                    out[i] = apply_binary(*op, l.get(i).to_datum(), r.get(i).to_datum())?;
                }
                BVec::Owned(out)
            }
        }
        BExpr::Like { expr, pattern, negated, case_insensitive } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let p = eval_batch(pattern, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = apply_like(v.get(i), p.get(i), *negated, *case_insensitive);
            }
            BVec::Owned(out)
        }
        BExpr::Between { expr, low, high, negated } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let lo = eval_batch(low, batch, sel, ctx)?;
            let hi = eval_batch(high, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                let vv = v.get(i);
                out[i] = match (vv.sql_cmp(lo.get(i)), vv.sql_cmp(hi.get(i))) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Datum::Bool(inside != *negated)
                    }
                    _ => Datum::Null,
                };
            }
            BVec::Owned(out)
        }
        BExpr::InList { expr, list, negated } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            // Rows still undecided: like the interpreter, an item runs only
            // on the non-NULL rows no earlier item matched, so an item that
            // fails raises only where a volcano scan reaches it.
            let mut rem: Vec<usize> =
                sel.iter().copied().filter(|&i| !v.get(i).is_null()).collect();
            for &i in &rem {
                out[i] = Datum::Bool(*negated);
            }
            for item in list {
                if rem.is_empty() {
                    break;
                }
                let iv = eval_batch(item, batch, &rem, ctx)?;
                rem.retain(|&i| match v.get(i).sql_cmp(iv.get(i)) {
                    Some(Ordering::Equal) => {
                        out[i] = Datum::Bool(!*negated);
                        false
                    }
                    None if iv.get(i).is_null() => {
                        out[i] = Datum::Null;
                        true
                    }
                    _ => true,
                });
            }
            BVec::Owned(out)
        }
        BExpr::InSet { expr, set, has_null, negated } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                let vv = v.get(i).to_datum();
                out[i] = if vv.is_null() {
                    Datum::Null
                } else if set.contains(std::slice::from_ref(&vv)) {
                    Datum::Bool(!*negated)
                } else if *has_null {
                    Datum::Null
                } else {
                    Datum::Bool(*negated)
                };
            }
            BVec::Owned(out)
        }
        BExpr::IsNull { expr, negated } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = Datum::Bool(v.get(i).is_null() != *negated);
            }
            BVec::Owned(out)
        }
        BExpr::Case { operand, branches, else_result } => {
            let mut out = owned(batch.len);
            // rows whose branch hasn't been decided yet
            let mut rem: Vec<usize> = sel.to_vec();
            let op_v = match operand {
                Some(op_expr) => Some(eval_batch(op_expr, batch, &rem, ctx)?),
                None => None,
            };
            for (when, then) in branches {
                if rem.is_empty() {
                    break;
                }
                let w = eval_batch(when, batch, &rem, ctx)?;
                let mut taken = Vec::new();
                let mut still = Vec::new();
                for &i in &rem {
                    let matched = match &op_v {
                        Some(v) => v.get(i).sql_cmp(w.get(i)) == Some(Ordering::Equal),
                        None => matches!(w.get(i), DatumRef::Bool(true)),
                    };
                    if matched {
                        taken.push(i);
                    } else {
                        still.push(i);
                    }
                }
                if !taken.is_empty() {
                    // untaken branches never evaluate (lazy CASE semantics)
                    let t = eval_batch(then, batch, &taken, ctx)?;
                    for &i in &taken {
                        out[i] = t.get(i).to_datum();
                    }
                }
                rem = still;
            }
            if !rem.is_empty() {
                if let Some(e) = else_result {
                    let ev = eval_batch(e, batch, &rem, ctx)?;
                    for &i in &rem {
                        out[i] = ev.get(i).to_datum();
                    }
                }
                // no ELSE → lanes stay NULL, which is the scalar semantics
            }
            BVec::Owned(out)
        }
        BExpr::Cast { expr, ty } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            // a typed literal (`date '1995-03-15'`) is a cast of a constant
            if let (BVec::Const(d), Some(_)) = (&v, sel.first()) {
                return Ok(BVec::Const(d.cast_to(*ty)?));
            }
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = v.get(i).to_datum().cast_to(*ty)?;
            }
            BVec::Owned(out)
        }
        BExpr::Func { .. } => {
            return Err(PgError::internal(
                "batch kernel invoked on a function expression (supports_batch gate missed)",
            ))
        }
    })
}

/// The filter kernel: the rows of `sel` where `pred` is strictly TRUE, in
/// ascending order. Each subexpression runs for the rows the row-at-a-time
/// interpreter runs it for, or for rows that make no difference, so the
/// same statements fail: OR tries its right side on the rows its left did
/// not select; AND tries its right side on the rows its left selected when
/// that side fails on no row, or only in a constant part that runs wherever
/// the side runs (the interpreter also tries it where the left is NULL,
/// which raises nothing new while a selected row tries it too). Any other
/// predicate is computed by [`eval_batch`] and its TRUE lanes kept.
pub fn filter_batch(
    pred: &BExpr,
    batch: &ColumnBatch,
    sel: &[usize],
    ctx: &EvalCtx,
) -> PgResult<Vec<usize>> {
    match pred {
        BExpr::Binary { op: BinaryOp::And, left, right } if failure(right) != Fails::OnRows => {
            let kept = filter_batch(left, batch, sel, ctx)?;
            if kept.is_empty() && failure(right) == Fails::OnConstants {
                // whether the interpreter reaches the right side now turns
                // on rows whose left side is NULL
                return true_lanes(pred, batch, sel, ctx);
            }
            filter_batch(right, batch, &kept, ctx)
        }
        BExpr::Binary { op: BinaryOp::Or, left, right } => {
            let l = filter_batch(left, batch, sel, ctx)?;
            let rest = minus(sel, &l);
            let r = filter_batch(right, batch, &rest, ctx)?;
            Ok(union(&l, &r))
        }
        BExpr::Binary { op, left, right } if op.is_comparison() => {
            let l = eval_batch(left, batch, sel, ctx)?;
            let r = eval_batch(right, batch, sel, ctx)?;
            Ok(compare(*op, &l, &r, sel))
        }
        BExpr::Between { expr, low, high, negated: false } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let lo = eval_batch(low, batch, sel, ctx)?;
            let hi = eval_batch(high, batch, sel, ctx)?;
            let above = compare(BinaryOp::Ge, &v, &lo, sel);
            Ok(compare(BinaryOp::Le, &v, &hi, &above))
        }
        _ => true_lanes(pred, batch, sel, ctx),
    }
}

/// The rows of `sel` where [`eval_batch`] computes `pred` TRUE.
fn true_lanes(
    pred: &BExpr,
    batch: &ColumnBatch,
    sel: &[usize],
    ctx: &EvalCtx,
) -> PgResult<Vec<usize>> {
    let v = eval_batch(pred, batch, sel, ctx)?;
    Ok(sel.iter().copied().filter(|&i| matches!(v.get(i), DatumRef::Bool(true))).collect())
}

/// Where evaluating an expression can raise an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fails {
    /// Nowhere: column reads, constants, parameter slots (bound before the
    /// statement runs) and the tests over them (a comparison never fails).
    Never,
    /// In a part that reads no column and runs on every row the expression
    /// runs on, so alike on each of them.
    OnConstants,
    /// In a part that reads the row, or that only some rows run.
    OnRows,
}

fn failure(e: &BExpr) -> Fails {
    let tests = |parts: &mut dyn Iterator<Item = &BExpr>| parts.map(failure).max();
    // a part the interpreter runs only on the rows `gate` leaves undecided
    let behind = |gate: &BExpr, f: Fails| {
        if f == Fails::OnConstants && !gate.is_const() {
            Fails::OnRows
        } else {
            f
        }
    };
    match e {
        BExpr::Const(_) | BExpr::Param(_) | BExpr::Col(_) => Fails::Never,
        BExpr::Binary { op, left, right } if op.is_comparison() => {
            failure(left).max(failure(right))
        }
        BExpr::Binary { op: BinaryOp::And | BinaryOp::Or, left, right } => {
            failure(left).max(behind(left, failure(right)))
        }
        BExpr::Between { expr, low, high, .. } => {
            tests(&mut [&**expr, low, high].into_iter()).unwrap_or(Fails::Never)
        }
        BExpr::InList { expr, list, .. } => {
            failure(expr).max(behind(e, tests(&mut list.iter()).unwrap_or(Fails::Never)))
        }
        BExpr::IsNull { expr, .. } | BExpr::InSet { expr, .. } => failure(expr),
        BExpr::Like { expr, pattern, .. } => failure(expr).max(failure(pattern)),
        _ if e.is_const() => Fails::OnConstants,
        _ => Fails::OnRows,
    }
}

/// The rows of sorted `all` not in sorted `some`.
fn minus(all: &[usize], some: &[usize]) -> Vec<usize> {
    let mut j = 0;
    all.iter()
        .copied()
        .filter(|&i| {
            while j < some.len() && some[j] < i {
                j += 1;
            }
            !(j < some.len() && some[j] == i)
        })
        .collect()
}

/// The sorted union of two disjoint sorted selections.
fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The orderings for which `op` holds, one bit each (`Less`, `Equal`,
/// `Greater` from the low bit up).
fn holds_mask(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Eq => 0b010,
        BinaryOp::Neq => 0b101,
        BinaryOp::Lt => 0b001,
        BinaryOp::Le => 0b011,
        BinaryOp::Gt => 0b100,
        BinaryOp::Ge => 0b110,
        _ => unreachable!("a comparison operator"),
    }
}

#[inline]
fn holds(mask: u8, ord: Ordering) -> bool {
    mask >> (ord as i8 + 1) & 1 == 1
}

/// `op` with its operands swapped: `a op b` is `b (mirror op) a`.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other,
    }
}

/// The lanes of `sel` where `l op r` is TRUE: [`DatumRef::sql_cmp`] holds
/// (NULL and incomparable lanes are not TRUE). A number or timestamp column
/// against a constant compares its array in place.
fn compare(op: BinaryOp, l: &BVec, r: &BVec, sel: &[usize]) -> Vec<usize> {
    let by_column = match (l, r) {
        (BVec::Col(c), BVec::Const(k)) => column_vs_const(op, c, k, sel),
        (BVec::Const(k), BVec::Col(c)) => column_vs_const(mirror(op), c, k, sel),
        _ => None,
    };
    by_column.unwrap_or_else(|| {
        let mask = holds_mask(op);
        sel.iter()
            .copied()
            .filter(|&i| l.get(i).sql_cmp(r.get(i)).is_some_and(|o| holds(mask, o)))
            .collect()
    })
}

/// `column op constant` over a number or timestamp column, or `None` for
/// other operand types. The constant is read as `sql_cmp` reads it against
/// the column's type: an integer against floats as a float, text against
/// timestamps as the timestamp it parses to (none: no lane is TRUE).
fn column_vs_const(op: BinaryOp, c: &ColumnSlice, k: &Datum, sel: &[usize]) -> Option<Vec<usize>> {
    let mask = holds_mask(op);
    fn keep(
        sel: &[usize],
        c: &ColumnSlice,
        mask: u8,
        ord: impl Fn(usize) -> Ordering,
    ) -> Vec<usize> {
        if c.all_valid() {
            sel.iter().copied().filter(|&i| holds(mask, ord(i))).collect()
        } else {
            sel.iter().copied().filter(|&i| !c.is_null(i) && holds(mask, ord(i))).collect()
        }
    }
    Some(match (c.values, k) {
        (_, Datum::Null) => Vec::new(),
        (Slice::Int(v), Datum::Int(b)) => keep(sel, c, mask, |i| v[i].cmp(b)),
        (Slice::Int(v), Datum::Float(b)) => keep(sel, c, mask, |i| float_cmp(v[i] as f64, *b)),
        (Slice::Float(v), Datum::Int(b)) => {
            let b = *b as f64;
            keep(sel, c, mask, |i| float_cmp(v[i], b))
        }
        (Slice::Float(v), Datum::Float(b)) => keep(sel, c, mask, |i| float_cmp(v[i], *b)),
        (Slice::Timestamp(v), Datum::Timestamp(b)) => keep(sel, c, mask, |i| v[i].cmp(b)),
        (Slice::Timestamp(v), Datum::Text(s)) => match time::parse_timestamp(s) {
            Some(b) => keep(sel, c, mask, |i| v[i].cmp(&b)),
            None => Vec::new(),
        },
        _ => return None,
    })
}

/// Columns referenced by `e`, accumulated into `out`.
pub fn collect_cols(e: &BExpr, out: &mut std::collections::BTreeSet<usize>) {
    match e {
        BExpr::Const(_) | BExpr::Param(_) => {}
        BExpr::Col(i) => {
            out.insert(*i);
        }
        BExpr::Unary { expr, .. } | BExpr::Cast { expr, .. } | BExpr::IsNull { expr, .. } => {
            collect_cols(expr, out)
        }
        BExpr::Binary { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        BExpr::Like { expr, pattern, .. } => {
            collect_cols(expr, out);
            collect_cols(pattern, out);
        }
        BExpr::Between { expr, low, high, .. } => {
            collect_cols(expr, out);
            collect_cols(low, out);
            collect_cols(high, out);
        }
        BExpr::InList { expr, list, .. } => {
            collect_cols(expr, out);
            for item in list {
                collect_cols(item, out);
            }
        }
        BExpr::InSet { expr, .. } => collect_cols(expr, out),
        BExpr::Case { operand, branches, else_result } => {
            if let Some(o) = operand {
                collect_cols(o, out);
            }
            for (w, t) in branches {
                collect_cols(w, out);
                collect_cols(t, out);
            }
            if let Some(e) = else_result {
                collect_cols(e, out);
            }
        }
        BExpr::Func { args, .. } => {
            for a in args {
                collect_cols(a, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{bind, eval, RowScope};
    use crate::types::Row;
    use sqlparse::parse_expr;

    fn scope() -> RowScope {
        RowScope::of_table("t", &["a".into(), "b".into(), "s".into()])
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Datum::Int(1), Datum::Float(0.5), Datum::from_text("alpha")],
            vec![Datum::Int(2), Datum::Null, Datum::from_text("Beta")],
            vec![Datum::Null, Datum::Float(-1.0), Datum::Null],
            vec![Datum::Int(40), Datum::Float(2.0), Datum::from_text("gamma")],
        ]
    }

    fn to_columns(rows: &[Row]) -> Stripe {
        use sqlparse::ast::TypeName;
        Stripe::from_rows(rows.to_vec(), &[TypeName::Int, TypeName::Float, TypeName::Text]).unwrap()
    }

    fn to_batch(stripe: &Stripe) -> ColumnBatch<'_> {
        let all: Vec<usize> = (0..stripe.columns().len()).collect();
        ColumnBatch::from_stripe(stripe, 0, stripe.rows(), &all)
    }

    /// Every supported expression evaluates identically per-row and batched.
    #[test]
    fn batch_matches_scalar() {
        let exprs = [
            "a + 1",
            "a * 2 - 1",
            "-a",
            "NOT (a > 1)",
            "a > 1 AND b < 1.0",
            "a > 1 OR b IS NULL",
            "a BETWEEN 1 AND 3",
            "a NOT BETWEEN 2 AND 50",
            "a IN (1, 40, NULL)",
            "a IS NOT NULL",
            "s LIKE '%a%'",
            "s ILIKE 'B%'",
            "CASE WHEN a > 5 THEN 'big' WHEN a IS NULL THEN 'null' ELSE 'small' END",
            "CASE a WHEN 1 THEN 10 WHEN 2 THEN 20 END",
            "a::text",
            "b::bigint",
            "s || '!'",
        ];
        let rows = rows();
        let columns = to_columns(&rows);
        let batch = to_batch(&columns);
        let sel: Vec<usize> = (0..rows.len()).collect();
        let ctx = EvalCtx::default();
        for src in exprs {
            let e = bind(&parse_expr(src).unwrap(), &scope()).unwrap();
            assert!(supports_batch(&e), "{src} should be batch-supported");
            let v = eval_batch(&e, &batch, &sel, &ctx).unwrap();
            for (i, row) in rows.iter().enumerate() {
                let scalar = eval(&e, row, &ctx).unwrap();
                assert_eq!(v.get(i).to_datum(), scalar, "{src} row {i}");
            }
        }
    }

    /// AND's masked evaluation prunes the right side exactly like scalar
    /// short-circuit: rows decided by the left never touch the division.
    #[test]
    fn masked_short_circuit_skips_errors() {
        let e = bind(&parse_expr("a > 5 AND 1 / (a - 40) > 0").unwrap(), &scope())
            .unwrap();
        let rows = rows();
        let columns = to_columns(&rows);
        let batch = to_batch(&columns);
        let ctx = EvalCtx::default();
        // row 3 (a=40) is the only one reaching the right side, and it
        // divides by zero — identical to scalar
        let sel: Vec<usize> = (0..rows.len()).collect();
        let err = eval_batch(&e, &batch, &sel, &ctx).unwrap_err();
        let scalar_err = eval(&e, &rows[3], &ctx).unwrap_err();
        assert_eq!(err.code, scalar_err.code);
        // excluding row 3 the expression evaluates cleanly
        let v = eval_batch(&e, &batch, &[0, 1, 2], &ctx).unwrap();
        for i in 0..3 {
            assert_eq!(v.get(i).to_datum(), eval(&e, &rows[i], &ctx).unwrap());
        }
    }

    #[test]
    fn case_branches_stay_lazy() {
        // the ELSE division only runs for rows no WHEN catches; here every
        // row is caught, so the batch path must not evaluate it at all
        let e = bind(
            &parse_expr("CASE WHEN a IS NULL THEN 0 WHEN a >= 1 THEN a ELSE 1 / 0 END")
                .unwrap(),
            &scope(),
        )
        .unwrap();
        let rows = rows();
        let columns = to_columns(&rows);
        let batch = to_batch(&columns);
        let sel: Vec<usize> = (0..rows.len()).collect();
        let v = eval_batch(&e, &batch, &sel, &EvalCtx::default()).unwrap();
        assert_eq!(v.get(2).to_datum(), Datum::Int(0));
        assert_eq!(v.get(3).to_datum(), Datum::Int(40));
    }

    #[test]
    fn functions_are_not_batch_supported() {
        for src in ["random()", "lower(s)", "coalesce(a, 0)"] {
            let e = bind(&parse_expr(src).unwrap(), &scope()).unwrap();
            assert!(!supports_batch(&e), "{src}");
        }
    }

    #[test]
    fn filter_kernel_keeps_true_rows_only() {
        let e = bind(&parse_expr("a > 1").unwrap(), &scope()).unwrap();
        let rows = rows();
        let columns = to_columns(&rows);
        let batch = to_batch(&columns);
        let sel: Vec<usize> = (0..rows.len()).collect();
        // NULL (row 2) is not TRUE → filtered out, like the scalar path
        let kept = filter_batch(&e, &batch, &sel, &EvalCtx::default()).unwrap();
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn unreferenced_columns_never_materialize() {
        let rows = rows();
        let columns = to_columns(&rows);
        let batch = ColumnBatch::from_stripe(&columns, 0, rows.len(), &[0]);
        assert!(batch.has_col(0));
        assert!(!batch.has_col(1) && !batch.has_col(2));
        assert!(batch.col(2).is_err());
        // row hand-off pads the untouched columns with NULL
        let mut out = Vec::new();
        batch.gather(3, &mut out);
        assert_eq!(out, vec![Datum::Int(40), Datum::Null, Datum::Null]);
    }

    /// A node over constants is computed once per batch, and only when a
    /// row asks for it: the error of a bad typed literal needs a row.
    #[test]
    fn constant_operands_fold_once_per_batch() {
        let columns = to_columns(&rows());
        let batch = to_batch(&columns);
        let ctx = EvalCtx::default();
        let e = bind(&parse_expr("-(CAST('7' AS bigint) + 1)").unwrap(), &scope()).unwrap();
        let v = eval_batch(&e, &batch, &[0, 3], &ctx).unwrap();
        assert!(matches!(v, BVec::Const(Datum::Int(-8))), "{v:?}");
        let bad = bind(&parse_expr("a < CAST('x' AS bigint)").unwrap(), &scope()).unwrap();
        assert!(eval_batch(&bad, &batch, &[], &ctx).is_ok());
        assert!(eval_batch(&bad, &batch, &[2], &ctx).is_err());
    }

    #[test]
    fn kernel_counts() {
        let s = scope();
        let e = bind(&parse_expr("a + 1 > 2 AND b < 1.0").unwrap(), &s).unwrap();
        // AND, >, +, < are kernels; consts and cols are not
        assert_eq!(kernel_count(&e), 4);
        assert_eq!(kernel_count(&bind(&parse_expr("a").unwrap(), &s).unwrap()), 0);
    }
}
