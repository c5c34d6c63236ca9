//! Abstract syntax tree for the SQL dialect understood by the engine.
//!
//! The AST is deliberately close to PostgreSQL's surface syntax because the
//! distributed layer rewrites table names to shard names and *deparses the
//! tree back to SQL text* to send to worker nodes — exactly how Citus ships
//! queries over the regular PostgreSQL protocol.

use std::sync::Arc;

/// Any top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Box<Select>),
    Insert(Box<Insert>),
    Update(Box<Update>),
    Delete(Box<Delete>),
    CreateTable(Box<CreateTable>),
    CreateIndex(Box<CreateIndex>),
    /// `CREATE ROLLUP name AS SELECT ...` — an incrementally maintained
    /// aggregate table (a distributed-engine extension; plain engines reject
    /// it at execution time).
    CreateRollup(Box<CreateRollup>),
    DropTable { names: Vec<String>, if_exists: bool },
    /// `DROP ROLLUP [IF EXISTS] name`.
    DropRollup { name: String, if_exists: bool },
    Truncate { tables: Vec<String> },
    Copy(Box<CopyStmt>),
    Begin,
    Commit,
    Rollback,
    /// `PREPARE TRANSACTION 'gid'` — first phase of 2PC.
    PrepareTransaction(String),
    /// `COMMIT PREPARED 'gid'` — second phase of 2PC.
    CommitPrepared(String),
    /// `ROLLBACK PREPARED 'gid'`.
    RollbackPrepared(String),
    Vacuum { table: Option<String> },
    Set { name: String, value: Literal },
    Explain { options: ExplainOptions, inner: Box<Statement> },
}

/// Options accepted by `EXPLAIN`, either bare (`EXPLAIN ANALYZE`) or in the
/// parenthesised list form (`EXPLAIN (ANALYZE, DISTRIBUTED) ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExplainOptions {
    /// Execute the statement and report what actually happened.
    pub analyze: bool,
    /// Render the distributed plan (tier, shard pruning, task list) instead
    /// of a single node's local plan.
    pub distributed: bool,
}

/// A `SELECT` query (also used for subqueries and `INSERT .. SELECT` sources).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    /// Comma-separated FROM items; joins nest inside a single item.
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
    /// `FOR UPDATE` row locking.
    pub for_update: bool,
}

impl Select {
    /// An empty SELECT skeleton, convenient for programmatic plan rewriting.
    pub fn empty() -> Self {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
            for_update: false,
        }
    }
}

/// One projection item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table { name: String, alias: Option<String> },
    Subquery { query: Box<Select>, alias: String },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// `ON` condition; `None` only for CROSS joins.
        on: Option<Expr>,
    },
}

impl TableRef {
    /// The name this item is visible as (alias, or the table name itself).
    pub fn visible_name(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Literal),
    Param(usize),
    Column { table: Option<String>, name: String },
    Unary { op: UnaryOp, expr: Box<Expr> },
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool, case_insensitive: bool },
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (list)`. The list is shared: a copy of the statement
    /// does not copy it, so the values of an `IN` subquery, computed once
    /// before the statement runs, reach every copy as one list.
    InList { expr: Box<Expr>, list: Arc<[Expr]>, negated: bool },
    InSubquery { expr: Box<Expr>, subquery: Box<Select>, negated: bool },
    Exists { subquery: Box<Select>, negated: bool },
    ScalarSubquery(Box<Select>),
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_result: Option<Box<Expr>>,
    },
    Cast { expr: Box<Expr>, ty: TypeName },
    Func(FuncCall),
    IsNull { expr: Box<Expr>, negated: bool },
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.to_string() }
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience constructor for a string literal.
    pub fn string(v: &str) -> Expr {
        Expr::Literal(Literal::String(v.to_string()))
    }

    /// `left op right` as a boxed binary expression.
    pub fn bin(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// Walk the expression tree, calling `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => {}
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list.iter() {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Case { operand, branches, else_result } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_result {
                    e.walk(f);
                }
            }
            Expr::Func(fc) => {
                for a in &fc.args {
                    a.walk(f);
                }
            }
        }
    }

    /// The `SELECT` of a scalar, `IN` or `EXISTS` subquery.
    pub fn subquery(&self) -> Option<&Select> {
        match self {
            Expr::InSubquery { subquery, .. }
            | Expr::Exists { subquery, .. }
            | Expr::ScalarSubquery(subquery) => Some(subquery),
            _ => None,
        }
    }

    /// [`Expr::subquery`], to rewrite.
    pub fn subquery_mut(&mut self) -> Option<&mut Select> {
        match self {
            Expr::InSubquery { subquery, .. }
            | Expr::Exists { subquery, .. }
            | Expr::ScalarSubquery(subquery) => Some(subquery),
            _ => None,
        }
    }

    /// True when the expression tree contains any subquery.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_)) {
                found = true;
            }
        });
        found
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct FuncCall {
    pub name: String,
    pub args: Vec<Expr>,
    /// `count(DISTINCT x)`
    pub distinct: bool,
    /// `count(*)`
    pub star: bool,
}

impl FuncCall {
    pub fn new(name: &str, args: Vec<Expr>) -> Self {
        FuncCall { name: name.to_string(), args, distinct: false, star: false }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
    /// `->` jsonb member access (returns json).
    JsonGet,
    /// `->>` jsonb member access (returns text).
    JsonGetText,
}

impl BinaryOp {
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
            BinaryOp::JsonGet => "->",
            BinaryOp::JsonGetText => "->>",
        }
    }

    /// Binding power for the deparser's parenthesisation (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq | BinaryOp::Neq | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 6,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 7,
            BinaryOp::JsonGet | BinaryOp::JsonGetText => 9,
        }
    }

    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Neq | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    String(String),
}

/// Column type names, normalised from the many PostgreSQL spellings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    Int,
    Float,
    Text,
    Bool,
    Json,
    Timestamp,
}

impl TypeName {
    /// Map a PostgreSQL type spelling to the normalised type, if recognised.
    pub fn from_keyword(kw: &str) -> Option<TypeName> {
        Some(match kw {
            "int" | "integer" | "int4" | "int8" | "bigint" | "smallint" | "int2" | "serial"
            | "bigserial" => TypeName::Int,
            "float" | "float4" | "float8" | "real" | "double" | "numeric" | "decimal" => {
                TypeName::Float
            }
            "text" | "varchar" | "char" | "character" | "citext" => TypeName::Text,
            "bool" | "boolean" => TypeName::Bool,
            "json" | "jsonb" => TypeName::Json,
            "timestamp" | "timestamptz" | "date" | "time" => TypeName::Timestamp,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TypeName::Int => "bigint",
            TypeName::Float => "double precision",
            TypeName::Text => "text",
            TypeName::Bool => "boolean",
            TypeName::Json => "jsonb",
            TypeName::Timestamp => "timestamp",
        }
    }
}

/// `CREATE ROLLUP name AS SELECT agg(..) .. GROUP BY ..`: the defining query
/// is kept verbatim; validation (single source table, supported aggregates)
/// happens in the executing engine, not the parser.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateRollup {
    pub name: String,
    pub if_not_exists: bool,
    pub query: Select,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
    pub constraints: Vec<TableConstraint>,
    /// `USING <method>` access-method clause (e.g. `USING columnar`).
    pub using: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: TypeName,
    pub not_null: bool,
    pub primary_key: bool,
    pub unique: bool,
    pub default: Option<Expr>,
    /// `REFERENCES table(col)` inline foreign key.
    pub references: Option<(String, String)>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    PrimaryKey(Vec<String>),
    Unique(Vec<String>),
    ForeignKey { columns: Vec<String>, ref_table: String, ref_columns: Vec<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    /// Index access method: `btree` (default) or `gin`.
    pub method: Option<String>,
    pub columns: Vec<Expr>,
    pub unique: bool,
    pub where_clause: Option<Expr>,
    pub if_not_exists: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CopyStmt {
    pub table: String,
    pub columns: Vec<String>,
    /// Only `COPY .. FROM STDIN` is supported; data arrives via the session API.
    pub from_stdin: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Vec<String>,
    pub source: InsertSource,
    pub on_conflict: Option<OnConflict>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Select>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct OnConflict {
    /// Conflict target column list (the unique key).
    pub target: Vec<String>,
    pub action: ConflictAction,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ConflictAction {
    Nothing,
    /// `DO UPDATE SET ..`; `excluded.col` refers to the proposed row.
    Update(Vec<Assignment>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub column: String,
    pub value: Expr,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub alias: Option<String>,
    pub assignments: Vec<Assignment>,
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub alias: Option<String>,
    pub where_clause: Option<Expr>,
}
