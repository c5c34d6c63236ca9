//! Restrictions derived from a WHERE conjunct that is an OR over several
//! tables, after PostgreSQL's `extract_restriction_or_clauses`
//! (`src/backend/optimizer/util/orclauses.c`).
//!
//! A row of the joined result passes `(A1 AND B1) OR (A2 AND B2)` only if
//! one branch is true, so only if that branch's conjuncts on each one table
//! are true: when every branch restricts table `t`, the OR over the branches
//! of each branch's conjuncts on `t` is implied by the original conjunct and
//! may filter `t`'s scan before any join. The original OR is still planned
//! as a join condition or a filter, so a derived restriction adds no answer
//! and removes none.

use super::{conjoin, operands, referenced_qualifiers};
use crate::error::PgResult;
use crate::expr::RowScope;
use sqlparse::ast::{BinaryOp, Expr, UnaryOp};
use std::sync::Arc;

/// A restriction on one table qualifier, implied by the WHERE conjunct at
/// index `of`.
pub(super) struct Derived {
    pub of: usize,
    pub expr: Expr,
}

/// Every restriction the cross-table ORs among `conjuncts` imply, per OR in
/// conjunct order and per table in order of first reference.
pub(super) fn derive(conjuncts: &[Expr], scope: &RowScope) -> PgResult<Vec<Derived>> {
    let mut out = Vec::new();
    for (of, c) in conjuncts.iter().enumerate() {
        if !is_or(c) {
            continue;
        }
        let quals = referenced_qualifiers(c, scope)?;
        if quals.len() < 2 {
            continue;
        }
        for q in &quals {
            if let Some(expr) = restriction_on(c, q, scope)? {
                out.push(Derived { of, expr });
            }
        }
    }
    Ok(out)
}

fn is_or(e: &Expr) -> bool {
    matches!(e, Expr::Binary { op: BinaryOp::Or, .. })
}

/// The OR, over `or`'s branches, of each branch's conjuncts that are safe and
/// reference table `q` alone, a nested OR contributing its own restriction
/// on `q`; `None` when some branch has no such conjunct.
fn restriction_on(or: &Expr, q: &str, scope: &RowScope) -> PgResult<Option<Expr>> {
    let mut branches = Vec::new();
    for branch in operands(or, BinaryOp::Or) {
        let mut parts = Vec::new();
        for c in operands(branch, BinaryOp::And) {
            let alone = |quals: &[Arc<str>]| matches!(quals, [only] if &**only == q);
            if is_safe(c) && alone(&referenced_qualifiers(c, scope)?) {
                parts.push(c.clone());
            } else if is_or(c) {
                parts.extend(restriction_on(c, q, scope)?);
            }
        }
        match conjoin(parts) {
            Some(p) => branches.push(p),
            None => return Ok(None),
        }
    }
    Ok(branches.into_iter().reduce(|acc, b| Expr::bin(acc, BinaryOp::Or, b)))
}

/// Whether `e` is built only of column references, constants, comparisons,
/// BETWEEN, IN lists, LIKE, IS [NOT] NULL and AND / OR / NOT over those: no
/// arithmetic, cast, function call or subquery. A copy of it on a scan then
/// raises no error that the written statement would not, and draws no
/// volatile value twice.
fn is_safe(e: &Expr) -> bool {
    let value = |x: &Expr| matches!(x, Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_));
    match e {
        Expr::Binary { left, op: BinaryOp::And | BinaryOp::Or, right } => {
            is_safe(left) && is_safe(right)
        }
        Expr::Binary { left, op, right } => op.is_comparison() && value(left) && value(right),
        Expr::Unary { op: UnaryOp::Not, expr } => is_safe(expr),
        Expr::Between { expr, low, high, .. } => value(expr) && value(low) && value(high),
        Expr::InList { expr, list, .. } => value(expr) && list.iter().all(value),
        Expr::Like { expr, pattern, .. } => value(expr) && value(pattern),
        Expr::IsNull { expr, .. } => value(expr),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::split_conjuncts;
    use sqlparse::ast::Statement;
    use sqlparse::deparse_expr;

    /// The restrictions derived from `where_clause` over tables t1 (a, b)
    /// and t2 (c, d), as SQL.
    fn derived(where_clause: &str) -> Vec<String> {
        let scope = RowScope::of_table("t1", &["a".into(), "b".into()])
            .join(&RowScope::of_table("t2", &["c".into(), "d".into()]));
        let sql = format!("SELECT * FROM t1, t2 WHERE {where_clause}");
        let Ok(Statement::Select(sel)) = sqlparse::parse(&sql) else { panic!("{sql}") };
        let conjuncts = split_conjuncts(sel.where_clause.as_ref().expect("a WHERE"));
        let out = derive(&conjuncts, &scope).expect("derives");
        out.iter().map(|d| deparse_expr(&d.expr)).collect()
    }

    #[test]
    fn every_branch_restricting_a_table_derives_its_restriction() {
        assert_eq!(
            derived(
                "t1.a = t2.c AND ((t1.b = 1 AND t2.d BETWEEN 1 AND 5 AND a > 0) \
                 OR (b IN (2, 3) AND t2.d < 9))"
            ),
            ["t1.b = 1 AND a > 0 OR (b IN (2, 3))", "(t2.d BETWEEN 1 AND 5) OR t2.d < 9"]
        );
        // no branch of the second OR restricts t2; t1's needs the nested OR
        assert_eq!(
            derived("(a = 1 AND (b = 2 AND c = 1 OR b = 3 AND d = 1)) OR (a = 2 AND c = b)"),
            ["a = 1 AND (b = 2 OR b = 3) OR a = 2"]
        );
        // a branch that does not restrict a table leaves that table unrestricted
        assert!(derived("(a = 1 AND c = 1) OR a = c").is_empty());
        assert!(derived("a = 1 OR b = 2").is_empty());
    }

    #[test]
    fn only_safe_conjuncts_are_copied() {
        // division may raise 22012, random() is volatile, a cast may fail:
        // such a conjunct is never copied
        assert_eq!(derived("(a / b > 0 AND c = 1) OR (a = 5 AND c = 2)"), ["c = 1 OR c = 2"]);
        assert_eq!(
            derived("(a = 1 AND b > random() AND c = 1) OR (a = 2 AND c = 2)"),
            ["a = 1 OR a = 2", "c = 1 OR c = 2"]
        );
        assert_eq!(derived("(a::text = '1' AND c = 1) OR (a = 2 AND d = 2)"), ["c = 1 OR d = 2"]);
        assert_eq!(
            derived("(NOT (a = 1) AND b IS NULL AND c LIKE 'x%') OR (a <> 2 AND c = d)"),
            ["(NOT a = 1) AND (b IS NULL) OR a <> 2", "(c LIKE 'x%') OR c = d"]
        );
    }
}
