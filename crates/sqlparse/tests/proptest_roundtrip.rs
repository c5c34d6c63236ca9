//! Property tests: deparse∘parse is the identity on the AST — load-bearing,
//! because the distributed layer ships rewritten statements as deparsed SQL —
//! and so is `bind_params` after `lift`, which plan caches rely on. An `IN`
//! list shared by two copies of a statement walks and lifts like a list of
//! the statement's own.

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
                    list: list.into(),
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

fn arb_insert() -> impl Strategy<Value = Statement> {
    (1..4usize)
        .prop_flat_map(|width| {
            (
                arb_ident(),
                prop::option::of(prop::collection::vec(arb_ident(), width)),
                prop::collection::vec(prop::collection::vec(arb_expr(), width), 1..3),
                prop::option::of((
                    prop::collection::vec(arb_ident(), 1..3),
                    prop::option::of((arb_ident(), arb_expr())),
                )),
            )
        })
        .prop_map(|(table, columns, rows, on_conflict)| {
            Statement::Insert(Box::new(Insert {
                table,
                columns: columns.unwrap_or_default(),
                source: InsertSource::Values(rows),
                on_conflict: on_conflict.map(|(target, update)| OnConflict {
                    target,
                    action: match update {
                        None => ConflictAction::Nothing,
                        Some((column, value)) => {
                            ConflictAction::Update(vec![Assignment { column, value }])
                        }
                    },
                }),
            }))
        })
}

fn arb_delete() -> impl Strategy<Value = Statement> {
    (arb_ident(), prop::option::of(arb_ident()), prop::option::of(arb_expr())).prop_map(
        |(table, alias, where_clause)| {
            Statement::Delete(Box::new(Delete { table, alias, where_clause }))
        },
    )
}

/// A value an `IN` subquery's row can hold: a literal, or a literal cast to
/// a type without literal syntax.
fn arb_value() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => arb_literal().prop_map(|l| match l {
            // a negative number deparses as `-n`, which parses back folded
            Literal::Int(v) => Expr::int(v),
            other => Expr::Literal(other),
        }),
        1 => ("[0-9: -]{0,12}", prop_oneof![Just(TypeName::Timestamp), Just(TypeName::Json)])
            .prop_map(|(text, ty)| Expr::Cast { expr: Box::new(Expr::string(&text)), ty }),
    ]
}

/// Two equal SELECTs whose WHERE ends in `x [NOT] IN (values)`, each with a
/// list of its own; lists on both sides of `shape::FOLDED_IN_LIST`.
fn arb_in_values() -> impl Strategy<Value = (Statement, Statement)> {
    (arb_select(), arb_expr(), prop::collection::vec(arb_value(), 1..40), prop::bool::ANY)
        .prop_map(|(stmt, x, values, negated)| {
            let Statement::Select(sel) = stmt else { unreachable!("arb_select") };
            let with = || {
                let list = values.clone().into();
                let e = Expr::InList { expr: Box::new(x.clone()), list, negated };
                let mut sel = sel.clone();
                sel.where_clause = Some(match sel.where_clause.take() {
                    Some(w) => Expr::bin(w, BinaryOp::And, e),
                    None => e,
                });
                Statement::Select(sel)
            };
            (with(), with())
        })
}

/// The list of the `IN` that ends a statement of [`arb_in_values`].
fn last_list(stmt: &Statement) -> &std::sync::Arc<[Expr]> {
    let Statement::Select(sel) = stmt else { unreachable!("arb_select") };
    match sel.where_clause.as_ref() {
        Some(Expr::Binary { right, op: BinaryOp::And, .. }) => match &**right {
            Expr::InList { list, .. } => list,
            other => unreachable!("{other:?}"),
        },
        Some(Expr::InList { list, .. }) => list,
        other => unreachable!("{other:?}"),
    }
}

/// A statement's value literals, in slot order.
#[derive(Default)]
struct Values(Vec<Expr>);

impl shape::Visit<'_> for Values {
    fn value(&mut self, e: &Expr) {
        self.0.push(e.clone());
    }
}

/// A walk over `&mut` that rewrites nothing, and says so when `.1` is
/// false; it keeps the skeleton.
struct Untouched(Vec<u8>, bool);

impl shape::VisitMut for Untouched {
    fn byte(&mut self, b: u8) {
        self.0.push(b);
    }

    fn rewrites_values(&mut self) -> bool {
        self.1
    }
}

/// A statement's skeleton and value literals.
#[derive(Default, Debug, PartialEq)]
struct Shape(Vec<u8>, Vec<Expr>);

impl shape::Visit<'_> for Shape {
    fn byte(&mut self, b: u8) {
        self.0.push(b);
    }

    fn value(&mut self, e: &Expr) {
        self.1.push(e.clone());
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

    #[test]
    fn insert_roundtrips(stmt in arb_insert()) {
        let text = deparse(&stmt);
        let parsed = parse(&text).unwrap_or_else(|err| panic!("{text:?}: {err}"));
        prop_assert_eq!(parsed, stmt);
    }

    #[test]
    fn delete_roundtrips(stmt in arb_delete()) {
        let text = deparse(&stmt);
        let parsed = parse(&text).unwrap_or_else(|err| panic!("{text:?}: {err}"));
        prop_assert_eq!(parsed, stmt);
    }

    /// An `IN` list shared with another copy of the statement gives the
    /// skeleton, values and facts of one of its own, lifts to the same
    /// generic form, with no literal left, without touching the other copy,
    /// and is read where it is shared by a walk that leaves values alone.
    #[test]
    fn shared_in_list_walks_as_its_own((shared, own) in arb_in_values()) {
        let copy = shared.clone();
        prop_assert!(std::sync::Arc::ptr_eq(last_list(&shared), last_list(&copy)));
        let (mut a, mut b) = (Shape::default(), Shape::default());
        let facts = shape::walk(&shared, &mut a);
        prop_assert_eq!(facts, shape::walk(&own, &mut b));
        prop_assert_eq!(&a, &b);
        for says_it_rewrites in [false, true] {
            let mut mutable = shared.clone();
            let mut v = Untouched(Vec::new(), says_it_rewrites);
            prop_assert_eq!(shape::walk_mut(&mut mutable, &mut v), facts);
            prop_assert_eq!(&v.0, &a.0);
            prop_assert_eq!(&mutable, &own);
            if !says_it_rewrites {
                prop_assert!(std::sync::Arc::ptr_eq(last_list(&mutable), last_list(&copy)));
            }
        }
        let (mut lifted, mut generic) = (shared.clone(), own.clone());
        prop_assert_eq!(shape::lift(&mut lifted), shape::lift(&mut generic));
        prop_assert_eq!(&lifted, &generic);
        let mut left = Shape::default();
        shape::walk(&lifted, &mut left);
        prop_assert!(left.1.is_empty(), "{:?}", left.1);
        prop_assert_eq!(&copy, &own);
    }

    /// `lift` replaces slot `n` by `$n`; binding each `$n` back to the walk's
    /// `n`-th value literal gives back the statement.
    #[test]
    fn bind_params_undoes_lift(
        stmt in prop_oneof![arb_select(), arb_update(), arb_insert(), arb_delete()]
    ) {
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
