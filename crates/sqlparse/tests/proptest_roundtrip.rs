//! Property tests: deparse∘parse is the identity on the AST — load-bearing,
//! because the distributed layer ships rewritten statements as deparsed SQL —
//! and so is `bind_params` after `lift`, which plan caches rely on.

use proptest::prelude::*;
use sqlparse::ast::*;
use sqlparse::{deparse, parse, shape};

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        any::<bool>().prop_map(Literal::Bool),
        any::<i32>().prop_map(|v| Literal::Int(v as i64)),
        (-1_000_000..1_000_000i64).prop_map(|v| Literal::Float(v as f64 / 100.0)),
        "[a-z '%_]{0,12}".prop_map(Literal::String),
    ]
}

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not reserved", |s| {
        ![
            "where", "group", "having", "order", "limit", "offset", "on", "join", "inner",
            "left", "right", "full", "cross", "union", "as", "from", "for", "set", "values",
            "using", "and", "or", "not", "when", "then", "else", "end", "case", "select",
            "insert", "update", "delete", "returning", "in", "is", "like", "ilike", "between",
            "null", "asc", "desc", "distinct", "true", "false", "date", "timestamp", "exists",
            "cast", "extract", "begin", "commit", "rollback", "create", "drop", "copy",
            "vacuum", "explain", "table", "index", "prepare", "start", "abort", "truncate",
        ]
        .contains(&s.as_str())
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(Expr::Literal),
        arb_ident().prop_map(|name| Expr::Column { table: None, name }),
        (arb_ident(), arb_ident())
            .prop_map(|(t, name)| Expr::Column { table: Some(t), name }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), arb_binop(), inner.clone())
                .prop_map(|(l, op, r)| Expr::bin(l, op, r)),
            (inner.clone())
                .prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            // Neg folds into numeric literals at parse time, so the
            // canonical AST only applies it to non-literals
            (inner.clone())
                .prop_map(|e| match e {
                    Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(v.wrapping_neg())),
                    Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                    other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
                }),
            (inner.clone(), prop::bool::ANY)
                .prop_map(|(e, n)| Expr::IsNull { expr: Box::new(e), negated: n }),
            (inner.clone(), arb_type())
                .prop_map(|(e, ty)| Expr::Cast { expr: Box::new(e), ty }),
            (inner.clone(), inner.clone(), inner.clone(), prop::bool::ANY).prop_map(
                |(e, lo, hi, n)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: n,
                }
            ),
            (inner.clone(), prop::collection::vec(inner.clone(), 1..4), prop::bool::ANY)
                .prop_map(|(e, list, n)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated: n
                }),
            (arb_ident(), prop::collection::vec(inner.clone(), 0..3)).prop_map(
                |(name, args)| Expr::Func(FuncCall::new(&name, args))
            ),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, t, e)| Expr::Case {
                    operand: None,
                    branches: vec![(c, t)],
                    else_result: Some(Box::new(e)),
                }),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
        Just(BinaryOp::Mod),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Neq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Gt),
        Just(BinaryOp::Ge),
        Just(BinaryOp::And),
        Just(BinaryOp::Or),
        Just(BinaryOp::Concat),
        Just(BinaryOp::JsonGet),
        Just(BinaryOp::JsonGetText),
    ]
}

fn arb_type() -> impl Strategy<Value = TypeName> {
    prop_oneof![
        Just(TypeName::Int),
        Just(TypeName::Float),
        Just(TypeName::Text),
        Just(TypeName::Bool),
        Just(TypeName::Json),
        Just(TypeName::Timestamp),
    ]
}

fn arb_select() -> impl Strategy<Value = Statement> {
    (
        prop::collection::vec((arb_expr(), prop::option::of(arb_ident())), 1..4),
        arb_ident(),
        prop::option::of(arb_ident()),
        prop::option::of(arb_expr()),
        prop::collection::vec(arb_expr(), 0..3),
        prop::collection::vec((arb_expr(), prop::bool::ANY), 0..2),
        prop::option::of(0..1000i64),
        prop::bool::ANY,
    )
        .prop_map(
            |(projection, table, alias, where_clause, group_by, order_by, limit, distinct)| {
                let mut sel = Select::empty();
                sel.distinct = distinct;
                sel.projection = projection
                    .into_iter()
                    .map(|(expr, alias)| SelectItem::Expr { expr, alias })
                    .collect();
                sel.from = vec![TableRef::Table { name: table, alias }];
                sel.where_clause = where_clause;
                sel.group_by = group_by;
                sel.order_by = order_by
                    .into_iter()
                    .map(|(expr, desc)| OrderByItem { expr, desc })
                    .collect();
                sel.limit = limit.map(Expr::int);
                Statement::Select(Box::new(sel))
            },
        )
}

fn arb_update() -> impl Strategy<Value = Statement> {
    (arb_ident(), arb_ident(), arb_expr(), prop::option::of(arb_expr())).prop_map(
        |(table, column, value, where_clause)| {
            Statement::Update(Box::new(Update {
                table,
                alias: None,
                assignments: vec![Assignment { column, value }],
                where_clause,
            }))
        },
    )
}

/// A statement's value literals, in slot order.
#[derive(Default)]
struct Values(Vec<Expr>);

impl shape::Visit<'_> for Values {
    fn value(&mut self, e: &Expr) {
        self.0.push(e.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_roundtrips(e in arb_expr()) {
        let stmt = Statement::Select(Box::new(Select {
            projection: vec![SelectItem::Expr { expr: e, alias: None }],
            ..Select::empty()
        }));
        let text = deparse(&stmt);
        let parsed = parse(&text)
            .unwrap_or_else(|err| panic!("deparse produced unparsable SQL {text:?}: {err}"));
        prop_assert_eq!(parsed, stmt, "round-trip changed the tree for {}", text);
    }

    #[test]
    fn select_roundtrips(s in arb_select()) {
        let text = deparse(&s);
        let parsed = parse(&text)
            .unwrap_or_else(|err| panic!("deparse produced unparsable SQL {text:?}: {err}"));
        prop_assert_eq!(parsed, s, "round-trip changed the tree for {}", text);
    }

    #[test]
    fn update_roundtrips(stmt in arb_update()) {
        let text = deparse(&stmt);
        let parsed = parse(&text).unwrap_or_else(|err| panic!("{text:?}: {err}"));
        prop_assert_eq!(parsed, stmt);
    }

    /// `lift` replaces slot `n` by `$n`; binding each `$n` back to the walk's
    /// `n`-th value literal gives back the statement.
    #[test]
    fn bind_params_undoes_lift(stmt in prop_oneof![arb_select(), arb_update()]) {
        let mut values = Values::default();
        let facts = shape::walk(&stmt, &mut values);
        prop_assert_eq!(facts.slots, values.0.len());
        let mut generic = stmt.clone();
        prop_assert_eq!(shape::lift(&mut generic), facts);
        shape::bind_params(&mut generic, |n| values.0.get(n - 1).cloned())
            .unwrap_or_else(|n| panic!("${n} has no value"));
        prop_assert_eq!(generic, stmt);
    }

    #[test]
    fn lexer_never_panics(s in "\\PC{0,60}") {
        let _ = sqlparse::lexer::lex(&s);
    }

    #[test]
    fn parser_never_panics(s in "[a-zA-Z0-9 ,.()*'=<>%_-]{0,80}") {
        let _ = parse(&s);
    }
}
