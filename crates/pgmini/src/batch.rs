//! Vectorized batched execution over columnar stripes.
//!
//! A [`ColumnBatch`] is a fixed-capacity slice of a columnar stripe:
//! borrowed column-major `[Datum]` slices for the *referenced* columns only,
//! plus a selection (list of live row indices) produced by the filter kernel.
//! Expression kernels ([`eval_batch`]) evaluate a whole batch per call,
//! sharing the scalar cores (`apply_unary` / `apply_binary` /
//! `kleene_combine`) with the row-at-a-time interpreter so both paths
//! produce identical values — and, for statements that fail, identical
//! error codes (see DESIGN.md's determinism argument for the one caveat:
//! *which* of several failing rows reports first).
//!
//! The kernels deliberately exclude `BExpr::Func`: `random()` draws from
//! the statement RNG in row order (order-sensitive by construction), and
//! the other builtins don't appear in scan-bound warehouse filters. A scan
//! whose filter contains one selects its rows one at a time, and an
//! aggregate over one runs on the volcano path.

use crate::error::{PgError, PgResult};
use crate::expr::{apply_binary, apply_unary, kleene_combine, BExpr, EvalCtx};
use crate::types::{text_ops, Datum};
use sqlparse::ast::BinaryOp;
use std::cmp::Ordering;

/// Rows per batch. 1024 keeps a batch's referenced columns comfortably in
/// cache on real hardware, which is what the cost model's per-batch kernel
/// pricing assumes.
pub const BATCH_CAPACITY: usize = 1024;

/// One batch of rows in column-major layout. `cols[c]` is `Some` only for
/// columns the plan references (the projection-pushdown contract,
/// regression-tested in exec.rs), and borrows the stripe's vector: the only
/// values cloned out of a stripe are those of the rows that survive the
/// filter ([`ColumnBatch::gather`]).
pub struct ColumnBatch<'s> {
    pub len: usize,
    cols: Vec<Option<&'s [Datum]>>,
}

impl<'s> ColumnBatch<'s> {
    /// Rows `[lo, lo+len)` of a stripe's column vectors as a batch exposing
    /// only the `referenced` columns.
    pub fn from_stripe(
        stripe_columns: &'s [Vec<Datum>],
        lo: usize,
        len: usize,
        referenced: &[usize],
    ) -> ColumnBatch<'s> {
        let mut cols = vec![None; stripe_columns.len()];
        for &c in referenced {
            cols[c] = Some(&stripe_columns[c][lo..lo + len]);
        }
        ColumnBatch { len, cols }
    }

    pub fn col(&self, i: usize) -> PgResult<&'s [Datum]> {
        match self.cols.get(i) {
            Some(Some(v)) => Ok(v),
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
        row.extend(self.cols.iter().map(|c| c.map_or(Datum::Null, |v| v[r].clone())));
    }
}

/// A kernel result: one value per batch row. `Const` and `Ref` avoid
/// cloning whole vectors for the trivial cases; `Owned` lanes outside the
/// evaluated selection hold NULL and must not be read.
#[derive(Debug)]
pub enum BVec<'a> {
    Const(Datum),
    Ref(&'a [Datum]),
    Owned(Vec<Datum>),
}

impl BVec<'_> {
    pub fn get(&self, i: usize) -> &Datum {
        match self {
            BVec::Const(d) => d,
            BVec::Ref(v) => &v[i],
            BVec::Owned(v) => &v[i],
        }
    }
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
    batch: &'a ColumnBatch,
    sel: &[usize],
    ctx: &EvalCtx,
) -> PgResult<BVec<'a>> {
    Ok(match e {
        BExpr::Const(d) => BVec::Const(d.clone()),
        BExpr::Param(_) => BVec::Const(crate::expr::eval(e, &Vec::new(), ctx)?),
        BExpr::Col(i) => BVec::Ref(batch.col(*i)?),
        BExpr::Unary { op, expr } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            if let (BVec::Const(d), Some(_)) = (&v, sel.first()) {
                return Ok(BVec::Const(apply_unary(*op, d.clone())?));
            }
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = apply_unary(*op, v.get(i).clone())?;
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
                let decided = |d: &Datum| match op {
                    BinaryOp::And => matches!(d, Datum::Bool(false)),
                    _ => matches!(d, Datum::Bool(true)),
                };
                let need: Vec<usize> =
                    sel.iter().copied().filter(|&i| !decided(l.get(i))).collect();
                let r = eval_batch(right, batch, &need, ctx)?;
                let mut out = owned(batch.len);
                for &i in sel {
                    let lv = l.get(i);
                    out[i] = if decided(lv) {
                        lv.clone()
                    } else {
                        kleene_combine(*op, lv.clone(), r.get(i).clone())
                    };
                }
                BVec::Owned(out)
            } else {
                let l = eval_batch(left, batch, sel, ctx)?;
                let r = eval_batch(right, batch, sel, ctx)?;
                if let (BVec::Const(a), BVec::Const(b), Some(_)) = (&l, &r, sel.first()) {
                    return Ok(BVec::Const(apply_binary(*op, a.clone(), b.clone())?));
                }
                let mut out = owned(batch.len);
                for &i in sel {
                    out[i] = apply_binary(*op, l.get(i).clone(), r.get(i).clone())?;
                }
                BVec::Owned(out)
            }
        }
        BExpr::Like { expr, pattern, negated, case_insensitive } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let p = eval_batch(pattern, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                let (vv, pv) = (v.get(i), p.get(i));
                out[i] = if vv.is_null() || pv.is_null() {
                    Datum::Null
                } else {
                    let hit =
                        text_ops::like_match(&vv.to_text(), &pv.to_text(), *case_insensitive);
                    Datum::Bool(hit != *negated)
                };
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
            let items: Vec<BVec> = list
                .iter()
                .map(|item| eval_batch(item, batch, sel, ctx))
                .collect::<PgResult<_>>()?;
            let mut out = owned(batch.len);
            for &i in sel {
                let vv = v.get(i);
                out[i] = if vv.is_null() {
                    Datum::Null
                } else {
                    let mut saw_null = false;
                    let mut hit = false;
                    for item in &items {
                        let iv = item.get(i);
                        match vv.sql_cmp(iv) {
                            Some(Ordering::Equal) => {
                                hit = true;
                                break;
                            }
                            None if iv.is_null() => saw_null = true,
                            _ => {}
                        }
                    }
                    if hit {
                        Datum::Bool(!*negated)
                    } else if saw_null {
                        Datum::Null
                    } else {
                        Datum::Bool(*negated)
                    }
                };
            }
            BVec::Owned(out)
        }
        BExpr::InSet { expr, set, has_null, negated } => {
            let v = eval_batch(expr, batch, sel, ctx)?;
            let mut out = owned(batch.len);
            for &i in sel {
                let vv = v.get(i);
                out[i] = if vv.is_null() {
                    Datum::Null
                } else if set.contains(std::slice::from_ref(vv)) {
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
                        None => matches!(w.get(i), Datum::Bool(true)),
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
                        out[i] = t.get(i).clone();
                    }
                }
                rem = still;
            }
            if !rem.is_empty() {
                if let Some(e) = else_result {
                    let ev = eval_batch(e, batch, &rem, ctx)?;
                    for &i in &rem {
                        out[i] = ev.get(i).clone();
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
                return Ok(BVec::Const(d.clone().cast_to(*ty)?));
            }
            let mut out = owned(batch.len);
            for &i in sel {
                out[i] = v.get(i).clone().cast_to(*ty)?;
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

/// The filter kernel: evaluate `pred` over the selection and keep rows
/// where it is strictly TRUE.
pub fn filter_batch(
    pred: &BExpr,
    batch: &ColumnBatch,
    sel: &[usize],
    ctx: &EvalCtx,
) -> PgResult<Vec<usize>> {
    let v = eval_batch(pred, batch, sel, ctx)?;
    Ok(sel.iter().copied().filter(|&i| matches!(v.get(i), Datum::Bool(true))).collect())
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

    fn to_columns(rows: &[Row]) -> Vec<Vec<Datum>> {
        (0..rows[0].len()).map(|c| rows.iter().map(|r| r[c].clone()).collect()).collect()
    }

    fn to_batch(columns: &[Vec<Datum>]) -> ColumnBatch<'_> {
        let all: Vec<usize> = (0..columns.len()).collect();
        ColumnBatch::from_stripe(columns, 0, columns[0].len(), &all)
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
                assert_eq!(v.get(i), &scalar, "{src} row {i}");
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
            assert_eq!(v.get(i), &eval(&e, &rows[i], &ctx).unwrap());
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
        assert_eq!(v.get(2), &Datum::Int(0));
        assert_eq!(v.get(3), &Datum::Int(40));
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
        let arity = rows[0].len();
        let columns: Vec<Vec<Datum>> = (0..arity)
            .map(|c| rows.iter().map(|r| r[c].clone()).collect())
            .collect();
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
