//! SQL front-end for the citrus distributed engine.
//!
//! This crate is the stand-in for PostgreSQL's parser. Notably, the paper
//! points out that the parser is the one module PostgreSQL does *not* make
//! extensible — so in this reproduction the parser is likewise shared by the
//! single-node engine (`pgmini`) and the distributed layer (`citrus`), which
//! both consume the same [`ast::Statement`] trees.
//!
//! The crate provides four things:
//!
//! * [`lexer`] / [`parser`] — SQL text → [`ast::Statement`];
//! * [`ast`] — the tree the planners rewrite (shard-name substitution);
//! * [`deparse`] — [`ast::Statement`] → SQL text, used to ship rewritten
//!   queries to worker nodes over the "wire";
//! * [`shape`] — a statement's structure with its value literals lifted into
//!   slots: the key and the bind vector of both plan caches.
//!
//! ```
//! use sqlparse::{parse, deparse};
//! let stmt = parse("SELECT key, count(*) FROM events GROUP BY key").unwrap();
//! let sql = deparse(&stmt);
//! assert_eq!(parse(&sql).unwrap(), stmt); // round-trips
//! ```

pub mod ast;
pub mod deparse;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod shape;

pub use ast::{Expr, Select, Statement};
pub use deparse::{deparse, deparse_expr, quote_ident, quote_literal};
pub use error::ParseError;
pub use parser::{parse, parse_expr, parse_many};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn roundtrip(sql: &str) -> Statement {
        let stmt = parse(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let text = deparse(&stmt);
        let again = parse(&text).unwrap_or_else(|e| panic!("re-parse {text:?}: {e}"));
        assert_eq!(stmt, again, "deparse round-trip changed the tree for {sql:?} -> {text:?}");
        stmt
    }

    #[test]
    fn select_simple() {
        let s = roundtrip("SELECT a, b FROM t WHERE a = 1");
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.projection.len(), 2);
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn select_full_clauses() {
        let s = roundtrip(
            "SELECT DISTINCT a, sum(b) AS total FROM t WHERE a > 2 GROUP BY a \
             HAVING sum(b) > 10 ORDER BY total DESC LIMIT 5 OFFSET 2",
        );
        let Statement::Select(q) = s else { panic!() };
        assert!(q.distinct);
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(Expr::int(5)));
        assert_eq!(q.offset, Some(Expr::int(2)));
    }

    #[test]
    fn select_for_update() {
        let s = roundtrip("SELECT * FROM stock WHERE s_i_id = 7 FOR UPDATE");
        let Statement::Select(q) = s else { panic!() };
        assert!(q.for_update);
    }

    #[test]
    fn joins_inner_left_using() {
        roundtrip("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.x = c.x");
        let s = parse("SELECT * FROM a JOIN b USING (id)").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let TableRef::Join { on, .. } = &q.from[0] else { panic!() };
        // USING desugars to equality
        assert!(matches!(on, Some(Expr::Binary { op: BinaryOp::Eq, .. })));
    }

    #[test]
    fn derived_table() {
        let s = roundtrip("SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1");
        let Statement::Select(q) = s else { panic!() };
        assert!(matches!(q.from[0], TableRef::Subquery { .. }));
    }

    #[test]
    fn subqueries_in_where() {
        roundtrip("SELECT * FROM t WHERE a IN (SELECT b FROM u)");
        roundtrip("SELECT * FROM t WHERE a NOT IN (1, 2, 3)");
        roundtrip("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = 5)");
        roundtrip("SELECT * FROM t WHERE a > (SELECT avg(b) FROM u)");
    }

    #[test]
    fn case_expressions() {
        roundtrip("SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t");
        roundtrip("SELECT CASE a WHEN 1 THEN 10 ELSE 0 END FROM t");
    }

    #[test]
    fn json_operators_and_casts() {
        let s = roundtrip("SELECT (data->'payload'->>'id')::bigint FROM events");
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        assert!(matches!(expr, Expr::Cast { .. }));
        roundtrip("SELECT data->>'created_at' FROM events WHERE data->'x'->>'y' ILIKE '%pg%'");
    }

    #[test]
    fn typed_date_literal_becomes_cast() {
        let s = parse("SELECT * FROM t WHERE d < date '2020-01-01'").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let Some(Expr::Binary { right, .. }) = q.where_clause else { panic!() };
        assert!(matches!(*right, Expr::Cast { ty: TypeName::Timestamp, .. }));
    }

    #[test]
    fn operator_precedence() {
        let s = parse("SELECT 1 + 2 * 3").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        // must parse as 1 + (2 * 3)
        let Expr::Binary { op: BinaryOp::Add, right, .. } = expr else { panic!("{expr:?}") };
        assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn and_or_precedence() {
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let Some(Expr::Binary { op: BinaryOp::Or, .. }) = q.where_clause else {
            panic!("OR should be outermost")
        };
    }

    #[test]
    fn between_like_isnull() {
        roundtrip("SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3");
        roundtrip("SELECT * FROM t WHERE name LIKE 'a%' AND name NOT ILIKE '%b'");
        roundtrip("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
    }

    #[test]
    fn insert_forms() {
        roundtrip("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
        roundtrip("INSERT INTO t SELECT a, b FROM u WHERE a > 0");
        roundtrip("INSERT INTO t (a) VALUES (1) ON CONFLICT (a) DO NOTHING");
        roundtrip("INSERT INTO t (a, n) VALUES (1, 1) ON CONFLICT (a) DO UPDATE SET n = t.n + 1");
    }

    #[test]
    fn update_delete() {
        roundtrip("UPDATE accounts SET balance = balance - 10 WHERE id = 3");
        roundtrip("DELETE FROM logs WHERE ts < 100");
    }

    #[test]
    fn create_table_with_constraints() {
        let s = roundtrip(
            "CREATE TABLE orders (id bigint PRIMARY KEY, wid int NOT NULL, note text, \
             PRIMARY KEY (id), FOREIGN KEY (wid) REFERENCES warehouse (id))",
        );
        let Statement::CreateTable(ct) = s else { panic!() };
        assert_eq!(ct.columns.len(), 3);
        assert_eq!(ct.constraints.len(), 2);
    }

    #[test]
    fn create_table_type_modifiers_are_swallowed() {
        let s = parse(
            "CREATE TABLE t (a varchar(16), b numeric(12, 2), c double precision, \
             d timestamp with time zone, e char(1))",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else { panic!() };
        assert_eq!(ct.columns[0].ty, TypeName::Text);
        assert_eq!(ct.columns[1].ty, TypeName::Float);
        assert_eq!(ct.columns[2].ty, TypeName::Float);
        assert_eq!(ct.columns[3].ty, TypeName::Timestamp);
        assert_eq!(ct.columns[4].ty, TypeName::Text);
    }

    #[test]
    fn create_index_variants() {
        roundtrip("CREATE INDEX i ON t (a, b)");
        roundtrip("CREATE UNIQUE INDEX i ON t (a)");
        roundtrip("CREATE INDEX i ON t USING gin ((data->>'msg'))");
        roundtrip("CREATE INDEX i ON t (a) WHERE b > 0");
        // opclass suffix is accepted and ignored
        parse("CREATE INDEX i ON t USING gin ((data->>'m') gin_trgm_ops)").unwrap();
    }

    #[test]
    fn transaction_control() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(
            parse("PREPARE TRANSACTION 'citrus_1_2'").unwrap(),
            Statement::PrepareTransaction("citrus_1_2".into())
        );
        assert_eq!(
            parse("COMMIT PREPARED 'citrus_1_2'").unwrap(),
            Statement::CommitPrepared("citrus_1_2".into())
        );
        assert_eq!(
            parse("ROLLBACK PREPARED 'citrus_1_2'").unwrap(),
            Statement::RollbackPrepared("citrus_1_2".into())
        );
    }

    #[test]
    fn copy_and_misc() {
        roundtrip("COPY t (a, b) FROM STDIN");
        roundtrip("TRUNCATE a, b");
        roundtrip("DROP TABLE IF EXISTS x, y");
        roundtrip("VACUUM t");
        parse("SET citus_shard_count = 32").unwrap();
        parse("EXPLAIN SELECT * FROM t").unwrap();
    }

    #[test]
    fn count_star_and_distinct() {
        let s = roundtrip("SELECT count(*), count(DISTINCT a), avg(b) FROM t");
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr: Expr::Func(f), .. } = &q.projection[0] else { panic!() };
        assert!(f.star);
        let SelectItem::Expr { expr: Expr::Func(f), .. } = &q.projection[1] else { panic!() };
        assert!(f.distinct);
    }

    #[test]
    fn extract_special_form() {
        let s = parse("SELECT extract(year FROM o_date) FROM orders").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr: Expr::Func(f), .. } = &q.projection[0] else { panic!() };
        assert_eq!(f.name, "extract");
        assert_eq!(f.args[0], Expr::string("year"));
    }

    #[test]
    fn multi_statement_script() {
        let stmts = parse_many("BEGIN; UPDATE t SET a = 1; COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn quoted_identifiers_roundtrip() {
        let s = roundtrip("SELECT \"MiXeD\" FROM \"Weird Table\"");
        let Statement::Select(q) = s else { panic!() };
        assert!(matches!(&q.from[0], TableRef::Table { name, .. } if name == "Weird Table"));
    }

    #[test]
    fn errors_have_positions() {
        let err = parse("SELECT FROM WHERE").unwrap_err();
        assert!(err.offset > 0);
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("UPDATE t").is_err());
        assert!(parse("CREATE TABLE t (a unknown_type)").is_err());
    }

    #[test]
    fn shard_name_rewrite_scenario() {
        // The distributed layer's core trick: rename tables, deparse, re-parse.
        let mut stmt = parse("SELECT o_id FROM orders WHERE w_id = 7").unwrap();
        if let Statement::Select(q) = &mut stmt {
            if let TableRef::Table { name, .. } = &mut q.from[0] {
                *name = "orders_102013".into();
            }
        }
        let text = deparse(&stmt);
        assert!(text.contains("orders_102013"));
        parse(&text).unwrap();
    }
}
