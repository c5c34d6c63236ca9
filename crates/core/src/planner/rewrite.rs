//! AST utilities shared by all planner tiers: collecting referenced tables
//! and rewriting logical table names to physical shard names.
//!
//! Name rewriting is the heart of the extension approach: the coordinator
//! rewrites `orders` → `orders_102013 orders` (keeping the logical name as
//! the alias so qualified column references survive), deparses, and ships
//! plain SQL to the worker. Both ride the one statement walk
//! ([`sqlparse::shape`]), so they see the tables of every clause.

use sqlparse::ast::{Select, Statement};
use sqlparse::shape::{self, Visit, VisitMut};

/// Distinct table names in walk order.
#[derive(Default)]
struct Tables(Vec<String>);

impl Visit<'_> for Tables {
    fn table(&mut self, name: &String, _alias: Option<&Option<String>>) {
        if !self.0.contains(name) {
            self.0.push(name.clone());
        }
    }
}

/// Collect every base table name referenced by a statement, in any clause
/// and at any depth.
pub fn collect_tables(stmt: &Statement) -> Vec<String> {
    let mut tables = Tables::default();
    shape::walk(stmt, &mut tables);
    tables.0
}

/// Every base table name a SELECT references, at any depth.
pub fn select_tables(sel: &Select) -> Vec<String> {
    let mut tables = Tables::default();
    shape::walk_select(sel, &mut tables);
    tables.0
}

/// Renames the tables `map` names; a renamed table without an alias keeps
/// its logical name as one.
struct Rename<'m>(&'m dyn Fn(&str) -> Option<String>);

impl VisitMut for Rename<'_> {
    fn rewrites_values(&mut self) -> bool {
        false
    }

    fn table(&mut self, name: &mut String, alias: Option<&mut Option<String>>) {
        if let Some(physical) = (self.0)(name) {
            let logical = std::mem::replace(name, physical);
            // an INSERT target has no alias slot
            if let Some(alias @ None) = alias {
                *alias = Some(logical);
            }
        }
    }
}

/// Rewrite table names throughout a statement. `map` returns the physical
/// name for a logical table (or `None` to leave it untouched). The logical
/// name is preserved as an alias when none exists.
pub fn rewrite_statement(stmt: &Statement, map: &dyn Fn(&str) -> Option<String>) -> Statement {
    let mut out = stmt.clone();
    shape::walk_mut(&mut out, &mut Rename(map));
    out
}

/// [`rewrite_statement`] of one SELECT.
pub fn rewrite_select(sel: &Select, map: &dyn Fn(&str) -> Option<String>) -> Select {
    let mut out = sel.clone();
    shape::walk_select_mut(&mut out, &mut Rename(map));
    out
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
