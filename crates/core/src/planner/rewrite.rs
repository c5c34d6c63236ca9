//! AST utilities shared by all planner tiers: collecting referenced tables
//! and rewriting logical table names to physical shard names.
//!
//! Name rewriting is the heart of the extension approach: the coordinator
//! rewrites `orders` → `orders_102013 orders` (keeping the logical name as
//! the alias so qualified column references survive), deparses, and ships
//! plain SQL to the worker.

use sqlparse::ast::{Expr, Insert, InsertSource, Select, Statement, TableRef};

/// Collect every base table name referenced by a statement, including those
/// inside FROM-subqueries and WHERE/HAVING subqueries.
pub fn collect_tables(stmt: &Statement) -> Vec<String> {
    let mut out = Vec::new();
    match stmt {
        Statement::Select(sel) => collect_select(sel, &mut out),
        Statement::Insert(ins) => {
            push_unique(&mut out, &ins.table);
            if let InsertSource::Query(sel) = &ins.source {
                collect_select(sel, &mut out);
            }
        }
        Statement::Update(u) => {
            push_unique(&mut out, &u.table);
            if let Some(w) = &u.where_clause {
                collect_expr(w, &mut out);
            }
        }
        Statement::Delete(d) => {
            push_unique(&mut out, &d.table);
            if let Some(w) = &d.where_clause {
                collect_expr(w, &mut out);
            }
        }
        _ => {}
    }
    out
}

/// Every base table name a SELECT references, at any depth.
pub fn select_tables(sel: &Select) -> Vec<String> {
    let mut out = Vec::new();
    collect_select(sel, &mut out);
    out
}

fn push_unique(out: &mut Vec<String>, name: &str) {
    if !out.iter().any(|n| n == name) {
        out.push(name.to_string());
    }
}

fn collect_select(sel: &Select, out: &mut Vec<String>) {
    for f in &sel.from {
        collect_table_ref(f, out);
    }
    for item in &sel.projection {
        if let sqlparse::ast::SelectItem::Expr { expr, .. } = item {
            collect_expr(expr, out);
        }
    }
    if let Some(w) = &sel.where_clause {
        collect_expr(w, out);
    }
    if let Some(h) = &sel.having {
        collect_expr(h, out);
    }
}

fn collect_table_ref(t: &TableRef, out: &mut Vec<String>) {
    match t {
        TableRef::Table { name, .. } => push_unique(out, name),
        TableRef::Subquery { query, .. } => collect_select(query, out),
        TableRef::Join { left, right, on, .. } => {
            collect_table_ref(left, out);
            collect_table_ref(right, out);
            if let Some(c) = on {
                collect_expr(c, out);
            }
        }
    }
}

fn collect_expr(e: &Expr, out: &mut Vec<String>) {
    e.walk(&mut |x| match x {
        Expr::InSubquery { subquery, .. } => collect_select(subquery, out),
        Expr::Exists { subquery, .. } => collect_select(subquery, out),
        Expr::ScalarSubquery(q) => collect_select(q, out),
        _ => {}
    });
}

/// Rewrite table names throughout a statement. `map` returns the physical
/// name for a logical table (or `None` to leave it untouched). The logical
/// name is preserved as an alias when none exists.
pub fn rewrite_statement(stmt: &Statement, map: &dyn Fn(&str) -> Option<String>) -> Statement {
    match stmt {
        Statement::Select(sel) => Statement::Select(Box::new(rewrite_select(sel, map))),
        Statement::Insert(ins) => {
            let source = match &ins.source {
                InsertSource::Values(rows) => InsertSource::Values(rows.clone()),
                InsertSource::Query(sel) => {
                    InsertSource::Query(Box::new(rewrite_select(sel, map)))
                }
            };
            Statement::Insert(Box::new(Insert {
                table: map(&ins.table).unwrap_or_else(|| ins.table.clone()),
                columns: ins.columns.clone(),
                source,
                on_conflict: ins.on_conflict.clone(),
            }))
        }
        Statement::Update(u) => {
            let mut u2 = (**u).clone();
            if let Some(phys) = map(&u.table) {
                if u2.alias.is_none() {
                    u2.alias = Some(u.table.clone());
                }
                u2.table = phys;
            }
            u2.where_clause = u2.where_clause.map(|w| rewrite_expr(&w, map));
            Statement::Update(Box::new(u2))
        }
        Statement::Delete(d) => {
            let mut d2 = (**d).clone();
            if let Some(phys) = map(&d.table) {
                if d2.alias.is_none() {
                    d2.alias = Some(d.table.clone());
                }
                d2.table = phys;
            }
            d2.where_clause = d2.where_clause.map(|w| rewrite_expr(&w, map));
            Statement::Delete(Box::new(d2))
        }
        other => other.clone(),
    }
}

/// Rewrite table names in a SELECT (recursively).
pub fn rewrite_select(sel: &Select, map: &dyn Fn(&str) -> Option<String>) -> Select {
    let mut out = sel.clone();
    out.from = sel.from.iter().map(|f| rewrite_table_ref(f, map)).collect();
    out.where_clause = out.where_clause.map(|w| rewrite_expr(&w, map));
    out.having = out.having.map(|h| rewrite_expr(&h, map));
    out.projection = out
        .projection
        .into_iter()
        .map(|item| match item {
            sqlparse::ast::SelectItem::Expr { expr, alias } => {
                sqlparse::ast::SelectItem::Expr { expr: rewrite_expr(&expr, map), alias }
            }
            other => other,
        })
        .collect();
    out
}

fn rewrite_table_ref(t: &TableRef, map: &dyn Fn(&str) -> Option<String>) -> TableRef {
    match t {
        TableRef::Table { name, alias } => match map(name) {
            Some(phys) => TableRef::Table {
                name: phys,
                // keep the logical name visible for qualified references
                alias: alias.clone().or_else(|| Some(name.clone())),
            },
            None => t.clone(),
        },
        TableRef::Subquery { query, alias } => TableRef::Subquery {
            query: Box::new(rewrite_select(query, map)),
            alias: alias.clone(),
        },
        TableRef::Join { left, right, kind, on } => TableRef::Join {
            left: Box::new(rewrite_table_ref(left, map)),
            right: Box::new(rewrite_table_ref(right, map)),
            kind: *kind,
            on: on.as_ref().map(|c| rewrite_expr(c, map)),
        },
    }
}

/// Rewrite subqueries nested inside an expression.
fn rewrite_expr(e: &Expr, map: &dyn Fn(&str) -> Option<String>) -> Expr {
    match e {
        Expr::InSubquery { expr, subquery, negated } => Expr::InSubquery {
            expr: Box::new(rewrite_expr(expr, map)),
            subquery: Box::new(rewrite_select(subquery, map)),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery: Box::new(rewrite_select(subquery, map)),
            negated: *negated,
        },
        Expr::ScalarSubquery(q) => Expr::ScalarSubquery(Box::new(rewrite_select(q, map))),
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(rewrite_expr(expr, map)) }
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_expr(left, map)),
            op: *op,
            right: Box::new(rewrite_expr(right, map)),
        },
        Expr::Like { expr, pattern, negated, case_insensitive } => Expr::Like {
            expr: Box::new(rewrite_expr(expr, map)),
            pattern: Box::new(rewrite_expr(pattern, map)),
            negated: *negated,
            case_insensitive: *case_insensitive,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(rewrite_expr(expr, map)),
            low: Box::new(rewrite_expr(low, map)),
            high: Box::new(rewrite_expr(high, map)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_expr(expr, map)),
            list: list.iter().map(|x| rewrite_expr(x, map)).collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(rewrite_expr(expr, map)), negated: *negated }
        }
        Expr::Case { operand, branches, else_result } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(rewrite_expr(o, map))),
            branches: branches
                .iter()
                .map(|(w, t)| (rewrite_expr(w, map), rewrite_expr(t, map)))
                .collect(),
            else_result: else_result.as_ref().map(|x| Box::new(rewrite_expr(x, map))),
        },
        Expr::Cast { expr, ty } => {
            Expr::Cast { expr: Box::new(rewrite_expr(expr, map)), ty: *ty }
        }
        Expr::Func(f) => {
            let mut f2 = f.clone();
            f2.args = f.args.iter().map(|a| rewrite_expr(a, map)).collect();
            Expr::Func(f2)
        }
        leaf => leaf.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::{deparse, parse};

    #[test]
    fn collects_nested_tables() {
        let s = parse(
            "SELECT * FROM a JOIN (SELECT x FROM b) sub ON a.x = sub.x \
             WHERE a.y IN (SELECT y FROM c) AND EXISTS (SELECT 1 FROM d)",
        )
        .unwrap();
        assert_eq!(collect_tables(&s), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn rewrites_preserving_alias() {
        let s = parse("SELECT orders.o_id FROM orders WHERE orders.w_id = 5").unwrap();
        let out = rewrite_statement(&s, &|n| {
            (n == "orders").then(|| "orders_102013".to_string())
        });
        let text = deparse(&out);
        assert!(text.contains("orders_102013 orders"), "{text}");
        // the rewritten SQL still parses and qualifies columns correctly
        parse(&text).unwrap();
    }

    #[test]
    fn rewrites_inside_subqueries_and_joins() {
        let s = parse(
            "SELECT * FROM a JOIN b ON a.k = b.k \
             WHERE a.v IN (SELECT v FROM a WHERE a.k = 1)",
        )
        .unwrap();
        let out = rewrite_statement(&s, &|n| Some(format!("{n}_9")));
        let text = deparse(&out);
        assert!(text.contains("a_9 a"), "{text}");
        assert!(text.contains("b_9 b"), "{text}");
        assert_eq!(text.matches("a_9").count(), 2, "subquery also rewritten: {text}");
    }

    #[test]
    fn rewrites_dml() {
        let u = parse("UPDATE t SET v = 1 WHERE k = 2 AND v IN (SELECT v FROM u)").unwrap();
        let out = rewrite_statement(&u, &|n| Some(format!("{n}_7")));
        let text = deparse(&out);
        assert!(text.contains("UPDATE t_7 t"), "{text}");
        assert!(text.contains("u_7 u"), "{text}");
        let d = parse("DELETE FROM t WHERE k = 2").unwrap();
        let out = rewrite_statement(&d, &|n| Some(format!("{n}_7")));
        assert!(deparse(&out).contains("DELETE FROM t_7 t"));
        let i = parse("INSERT INTO t (a) SELECT a FROM s").unwrap();
        let out = rewrite_statement(&i, &|n| Some(format!("{n}_7")));
        let text = deparse(&out);
        assert!(text.contains("INSERT INTO t_7"), "{text}");
        assert!(text.contains("FROM s_7 s"), "{text}");
    }

    #[test]
    fn existing_alias_kept() {
        let s = parse("SELECT o.o_id FROM orders o").unwrap();
        let out = rewrite_statement(&s, &|_| Some("orders_5".into()));
        let text = deparse(&out);
        assert!(text.contains("orders_5 o"), "{text}");
    }
}
