//! Recursive-descent SQL parser.
//!
//! The grammar covers the subset of PostgreSQL SQL exercised by the four
//! workload patterns in the paper: full SELECT (joins, derived tables,
//! subqueries, grouping, ordering, FOR UPDATE), DML with ON CONFLICT,
//! DDL, COPY FROM STDIN, and the transaction-control statements used for
//! two-phase commit (`PREPARE TRANSACTION`, `COMMIT PREPARED`, ...).

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{lex, Op, Token, TokenKind};

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    match <[Statement; 1]>::try_from(parse_many(sql)?) {
        Ok([stmt]) => Ok(stmt),
        Err(stmts) if stmts.is_empty() => Err(ParseError::at(0, "empty statement")),
        Err(_) => Err(ParseError::at(0, "expected a single statement")),
    }
}

/// Parse a semicolon-separated script into statements.
pub fn parse_many(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_op(Op::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.parse_statement()?);
        if !p.eat_op(Op::Semicolon) && !p.at_eof() {
            return Err(p.unexpected("';' or end of input"));
        }
    }
    Ok(out)
}

/// Parse a standalone expression (used by index definitions and tests).
pub fn parse_expr(sql: &str) -> Result<Expr, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.parse_expr()?;
    if !p.at_eof() {
        return Err(p.unexpected("end of expression"));
    }
    Ok(e)
}

/// Words that cannot be used as a bare (non-`AS`) alias.
const RESERVED: &[&str] = &[
    "where", "group", "having", "order", "limit", "offset", "on", "join", "inner", "left",
    "right", "full", "cross", "union", "as", "from", "for", "set", "values", "using", "and",
    "or", "not", "when", "then", "else", "end", "case", "select", "insert", "update", "delete",
    "returning", "in", "is", "like", "ilike", "between", "null", "asc", "desc", "distinct",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::at(self.offset(), format!("expected {wanted}, found {:?}", self.peek()))
    }

    /// Is the current token the given (lowercase) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn at_kw2(&self, kw: &str) -> bool {
        matches!(self.peek2(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{}'", kw.to_uppercase())))
        }
    }

    fn at_op(&self, op: Op) -> bool {
        matches!(self.peek(), TokenKind::Op(o) if *o == op)
    }

    fn eat_op(&mut self, op: Op) -> bool {
        if self.at_op(op) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: Op) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{}'", op.as_str())))
        }
    }

    /// Consume an identifier (quoted or not) and return its text.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn string_lit(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::String(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("string literal")),
        }
    }

    // ---------------- statements ----------------

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(kw) => match kw.as_str() {
                "select" => Ok(Statement::Select(Box::new(self.parse_select()?))),
                "insert" => self.parse_insert(),
                "update" => self.parse_update(),
                "delete" => self.parse_delete(),
                "create" => self.parse_create(),
                "drop" => self.parse_drop(),
                "truncate" => self.parse_truncate(),
                "copy" => self.parse_copy(),
                "begin" | "start" => {
                    self.advance();
                    self.eat_kw("transaction");
                    self.eat_kw("work");
                    Ok(Statement::Begin)
                }
                "commit" => {
                    self.advance();
                    if self.eat_kw("prepared") {
                        Ok(Statement::CommitPrepared(self.string_lit()?))
                    } else {
                        self.eat_kw("work");
                        Ok(Statement::Commit)
                    }
                }
                "rollback" | "abort" => {
                    self.advance();
                    if self.eat_kw("prepared") {
                        Ok(Statement::RollbackPrepared(self.string_lit()?))
                    } else {
                        self.eat_kw("work");
                        Ok(Statement::Rollback)
                    }
                }
                "prepare" => {
                    self.advance();
                    self.expect_kw("transaction")?;
                    Ok(Statement::PrepareTransaction(self.string_lit()?))
                }
                "vacuum" => {
                    self.advance();
                    let table = if matches!(self.peek(), TokenKind::Ident(_) | TokenKind::QuotedIdent(_))
                    {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    Ok(Statement::Vacuum { table })
                }
                "set" => {
                    self.advance();
                    self.eat_kw("local");
                    let name = self.ident()?;
                    if !self.eat_op(Op::Eq) {
                        self.expect_kw("to")?;
                    }
                    let value = self.parse_literal()?;
                    Ok(Statement::Set { name, value })
                }
                "explain" => {
                    self.advance();
                    let mut options = ExplainOptions::default();
                    if self.eat_op(Op::LParen) {
                        loop {
                            let opt = self.ident()?;
                            match opt.as_str() {
                                "analyze" => options.analyze = true,
                                "distributed" => options.distributed = true,
                                other => {
                                    return Err(ParseError::at(
                                        self.offset(),
                                        format!("unrecognized EXPLAIN option \"{other}\""),
                                    ))
                                }
                            }
                            if !self.eat_op(Op::Comma) {
                                break;
                            }
                        }
                        self.expect_op(Op::RParen)?;
                    } else if self.eat_kw("analyze") {
                        options.analyze = true;
                    }
                    Ok(Statement::Explain {
                        options,
                        inner: Box::new(self.parse_statement()?),
                    })
                }
                _ => Err(self.unexpected("statement keyword")),
            },
            _ => Err(self.unexpected("statement")),
        }
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        match self.peek().clone() {
            TokenKind::String(s) => {
                self.advance();
                Ok(Literal::String(s))
            }
            TokenKind::Number(n) => {
                self.advance();
                number_literal(&n, self.offset())
            }
            TokenKind::Ident(w) if w == "true" => {
                self.advance();
                Ok(Literal::Bool(true))
            }
            TokenKind::Ident(w) if w == "false" => {
                self.advance();
                Ok(Literal::Bool(false))
            }
            TokenKind::Ident(w) if w == "null" => {
                self.advance();
                Ok(Literal::Null)
            }
            TokenKind::Ident(w) if w == "on" => {
                self.advance();
                Ok(Literal::Bool(true))
            }
            TokenKind::Ident(w) if w == "off" => {
                self.advance();
                Ok(Literal::Bool(false))
            }
            TokenKind::Op(Op::Minus) => {
                self.advance();
                match self.parse_literal()? {
                    Literal::Int(v) => Ok(Literal::Int(-v)),
                    Literal::Float(v) => Ok(Literal::Float(-v)),
                    _ => Err(self.unexpected("numeric literal after '-'")),
                }
            }
            _ => Err(self.unexpected("literal")),
        }
    }

    // ---------------- SELECT ----------------

    pub(crate) fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("select")?;
        let mut sel = Select::empty();
        sel.distinct = self.eat_kw("distinct");
        loop {
            sel.projection.push(self.parse_select_item()?);
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        if self.eat_kw("from") {
            loop {
                sel.from.push(self.parse_table_ref()?);
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("where") {
            sel.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                sel.group_by.push(self.parse_expr()?);
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("having") {
            sel.having = Some(self.parse_expr()?);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                sel.order_by.push(OrderByItem { expr, desc });
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
        }
        // LIMIT and OFFSET may appear in either order
        loop {
            if sel.limit.is_none() && self.eat_kw("limit") {
                sel.limit = Some(self.parse_expr()?);
            } else if sel.offset.is_none() && self.eat_kw("offset") {
                sel.offset = Some(self.parse_expr()?);
            } else {
                break;
            }
        }
        if self.eat_kw("for") {
            self.expect_kw("update")?;
            sel.for_update = true;
        }
        Ok(sel)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.at_op(Op::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let TokenKind::Ident(t) = self.peek().clone() {
            if matches!(self.peek2(), TokenKind::Op(Op::Dot))
                && matches!(
                    self.tokens.get(self.pos + 2).map(|t| &t.kind),
                    Some(TokenKind::Op(Op::Star))
                )
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(t));
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        match self.peek().clone() {
            TokenKind::Ident(w) if !RESERVED.contains(&w.as_str()) => {
                self.advance();
                Ok(Some(w))
            }
            TokenKind::QuotedIdent(w) => {
                self.advance();
                Ok(Some(w))
            }
            _ => Ok(None),
        }
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.at_kw("join") || (self.at_kw("inner") && self.at_kw2("join")) {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.at_kw("left") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.at_kw("right") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Right
            } else if self.at_kw("full") {
                self.advance();
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Full
            } else if self.at_kw("cross") {
                self.advance();
                self.expect_kw("join")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else if self.eat_kw("using") {
                // USING (a, b) is sugar for equality on the shared columns.
                self.expect_op(Op::LParen)?;
                let mut cond: Option<Expr> = None;
                loop {
                    let col = self.ident()?;
                    let lname = left.visible_name().map(str::to_string);
                    let rname = right.visible_name().map(str::to_string);
                    let eq = Expr::bin(
                        Expr::Column { table: lname, name: col.clone() },
                        BinaryOp::Eq,
                        Expr::Column { table: rname, name: col },
                    );
                    cond = Some(match cond {
                        None => eq,
                        Some(c) => Expr::bin(c, BinaryOp::And, eq),
                    });
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RParen)?;
                cond
            } else {
                self.expect_kw("on")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_op(Op::LParen) {
            if self.at_kw("select") {
                let query = Box::new(self.parse_select()?);
                self.expect_op(Op::RParen)?;
                self.eat_kw("as");
                let alias = self.ident()?;
                return Ok(TableRef::Subquery { query, alias });
            }
            let inner = self.parse_table_ref()?;
            self.expect_op(Op::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let alias = self.parse_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ---------------- DML ----------------

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.at_op(Op::LParen) {
            // Could be a column list or a parenthesised SELECT source; column
            // lists are identifiers followed by ',' or ')'.
            let save = self.pos;
            self.advance();
            let looks_like_columns = matches!(
                self.peek(),
                TokenKind::Ident(w) if w != "select"
            ) || matches!(self.peek(), TokenKind::QuotedIdent(_));
            if looks_like_columns {
                loop {
                    columns.push(self.ident()?);
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RParen)?;
            } else {
                self.pos = save;
            }
        }
        let source = if self.eat_kw("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_op(Op::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RParen)?;
                rows.push(row);
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            let wrapped = self.eat_op(Op::LParen);
            let q = self.parse_select()?;
            if wrapped {
                self.expect_op(Op::RParen)?;
            }
            InsertSource::Query(Box::new(q))
        };
        let on_conflict = if self.eat_kw("on") {
            self.expect_kw("conflict")?;
            let mut target = Vec::new();
            if self.eat_op(Op::LParen) {
                loop {
                    target.push(self.ident()?);
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
                self.expect_op(Op::RParen)?;
            }
            self.expect_kw("do")?;
            let action = if self.eat_kw("nothing") {
                ConflictAction::Nothing
            } else {
                self.expect_kw("update")?;
                self.expect_kw("set")?;
                ConflictAction::Update(self.parse_assignments()?)
            };
            Some(OnConflict { target, action })
        } else {
            None
        };
        Ok(Statement::Insert(Box::new(Insert { table, columns, source, on_conflict })))
    }

    fn parse_assignments(&mut self) -> Result<Vec<Assignment>, ParseError> {
        let mut out = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect_op(Op::Eq)?;
            let value = self.parse_expr()?;
            out.push(Assignment { column, value });
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        let alias = if self.at_kw("set") { None } else { self.parse_alias()? };
        self.expect_kw("set")?;
        let assignments = self.parse_assignments()?;
        let where_clause = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update(Box::new(Update { table, alias, assignments, where_clause })))
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let alias = if self.at_kw("where") { None } else { self.parse_alias()? };
        let where_clause = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete(Box::new(Delete { table, alias, where_clause })))
    }

    // ---------------- DDL ----------------

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("create")?;
        let unique = self.eat_kw("unique");
        if self.eat_kw("table") {
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_op(Op::LParen)?;
            let mut columns = Vec::new();
            let mut constraints = Vec::new();
            loop {
                if self.at_kw("primary") {
                    self.advance();
                    self.expect_kw("key")?;
                    constraints.push(TableConstraint::PrimaryKey(self.parse_name_list()?));
                } else if self.at_kw("unique") {
                    self.advance();
                    constraints.push(TableConstraint::Unique(self.parse_name_list()?));
                } else if self.at_kw("foreign") {
                    self.advance();
                    self.expect_kw("key")?;
                    let columns = self.parse_name_list()?;
                    self.expect_kw("references")?;
                    let ref_table = self.ident()?;
                    let ref_columns =
                        if self.at_op(Op::LParen) { self.parse_name_list()? } else { Vec::new() };
                    constraints.push(TableConstraint::ForeignKey { columns, ref_table, ref_columns });
                } else if self.at_kw("constraint") {
                    // named constraint: skip the name, re-dispatch
                    self.advance();
                    let _name = self.ident()?;
                    continue;
                } else {
                    columns.push(self.parse_column_def()?);
                }
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
            self.expect_op(Op::RParen)?;
            let using = if self.eat_kw("using") { Some(self.ident()?) } else { None };
            return Ok(Statement::CreateTable(Box::new(CreateTable {
                name,
                if_not_exists,
                columns,
                constraints,
                using,
            })));
        }
        if self.eat_kw("index") {
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            let method = if self.eat_kw("using") { Some(self.ident()?) } else { None };
            self.expect_op(Op::LParen)?;
            let mut columns = Vec::new();
            loop {
                let mut e = self.parse_expr()?;
                // Ignore per-column opclass names like `gin_trgm_ops`.
                if let TokenKind::Ident(w) = self.peek().clone() {
                    if w.ends_with("_ops") || w.ends_with("_pattern_ops") {
                        self.advance();
                    }
                }
                // normalise (expr) wrapping used by expression indexes
                if let Expr::Func(f) = &e {
                    if f.name == "__paren" && f.args.len() == 1 {
                        e = f.args[0].clone();
                    }
                }
                columns.push(e);
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
            self.expect_op(Op::RParen)?;
            let where_clause = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
            return Ok(Statement::CreateIndex(Box::new(CreateIndex {
                name,
                table,
                method,
                columns,
                unique,
                where_clause,
                if_not_exists,
            })));
        }
        if self.eat_kw("rollup") {
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_kw("as")?;
            let query = self.parse_select()?;
            return Ok(Statement::CreateRollup(Box::new(CreateRollup {
                name,
                if_not_exists,
                query,
            })));
        }
        Err(self.unexpected("'TABLE', 'INDEX' or 'ROLLUP' after CREATE"))
    }

    fn parse_if_not_exists(&mut self) -> Result<bool, ParseError> {
        if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_name_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_op(Op::LParen)?;
        let mut out = Vec::new();
        loop {
            out.push(self.ident()?);
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        self.expect_op(Op::RParen)?;
        Ok(out)
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.ident()?;
        let ty_word = self.ident()?;
        let ty = TypeName::from_keyword(&ty_word)
            .ok_or_else(|| ParseError::at(self.offset(), format!("unknown type '{ty_word}'")))?;
        // Swallow type modifiers: varchar(16), numeric(12, 2), double precision,
        // timestamp with time zone.
        if ty_word == "double" {
            self.eat_kw("precision");
        }
        if ty_word == "character" {
            self.eat_kw("varying");
        }
        if self.eat_op(Op::LParen) {
            loop {
                match self.advance() {
                    TokenKind::Op(Op::RParen) => break,
                    TokenKind::Eof => return Err(self.unexpected("')'")),
                    _ => {}
                }
            }
        }
        if (ty_word == "timestamp" || ty_word == "time") && self.eat_kw("with") {
            self.expect_kw("time")?;
            self.expect_kw("zone")?;
        }
        let mut def = ColumnDef {
            name,
            ty,
            not_null: false,
            primary_key: false,
            unique: false,
            default: None,
            references: None,
        };
        loop {
            if self.eat_kw("not") {
                self.expect_kw("null")?;
                def.not_null = true;
            } else if self.eat_kw("null") {
                // explicit nullable: no-op
            } else if self.eat_kw("primary") {
                self.expect_kw("key")?;
                def.primary_key = true;
                def.not_null = true;
            } else if self.eat_kw("unique") {
                def.unique = true;
            } else if self.eat_kw("default") {
                def.default = Some(self.parse_expr()?);
            } else if self.eat_kw("references") {
                let table = self.ident()?;
                let col = if self.at_op(Op::LParen) {
                    let cols = self.parse_name_list()?;
                    cols.into_iter().next().unwrap_or_default()
                } else {
                    String::new()
                };
                def.references = Some((table, col));
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn parse_drop(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("drop")?;
        if self.eat_kw("rollup") {
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Statement::DropRollup { name, if_exists });
        }
        self.expect_kw("table")?;
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        self.eat_kw("cascade");
        Ok(Statement::DropTable { names, if_exists })
    }

    fn parse_truncate(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("truncate")?;
        self.eat_kw("table");
        let mut tables = Vec::new();
        loop {
            tables.push(self.ident()?);
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        Ok(Statement::Truncate { tables })
    }

    fn parse_copy(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("copy")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.at_op(Op::LParen) {
            columns = self.parse_name_list()?;
        }
        self.expect_kw("from")?;
        self.expect_kw("stdin")?;
        // Ignore `WITH (FORMAT csv, ...)` options.
        if self.eat_kw("with") && self.eat_op(Op::LParen) {
            loop {
                match self.advance() {
                    TokenKind::Op(Op::RParen) => break,
                    TokenKind::Eof => return Err(self.unexpected("')'")),
                    _ => {}
                }
            }
        }
        Ok(Statement::Copy(Box::new(CopyStmt { table, columns, from_stdin: true })))
    }

    // ---------------- expressions ----------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            left = Expr::bin(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            left = Expr::bin(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_additive()?;
        loop {
            if self.eat_kw("is") {
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                left = Expr::IsNull { expr: Box::new(left), negated };
                continue;
            }
            let negated = if self.at_kw("not")
                && (self.at_kw2("between") || self.at_kw2("in") || self.at_kw2("like")
                    || self.at_kw2("ilike"))
            {
                self.advance();
                true
            } else {
                false
            };
            if self.eat_kw("between") {
                let low = self.parse_additive()?;
                self.expect_kw("and")?;
                let high = self.parse_additive()?;
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_kw("in") {
                self.expect_op(Op::LParen)?;
                if self.at_kw("select") {
                    let sub = self.parse_select()?;
                    self.expect_op(Op::RParen)?;
                    left = Expr::InSubquery {
                        expr: Box::new(left),
                        subquery: Box::new(sub),
                        negated,
                    };
                } else {
                    let mut list = Vec::new();
                    loop {
                        list.push(self.parse_expr()?);
                        if !self.eat_op(Op::Comma) {
                            break;
                        }
                    }
                    self.expect_op(Op::RParen)?;
                    left = Expr::InList { expr: Box::new(left), list: list.into(), negated };
                }
                continue;
            }
            let ci = if self.eat_kw("like") {
                Some(false)
            } else if self.eat_kw("ilike") {
                Some(true)
            } else {
                None
            };
            if let Some(case_insensitive) = ci {
                let pattern = self.parse_additive()?;
                left = Expr::Like {
                    expr: Box::new(left),
                    pattern: Box::new(pattern),
                    negated,
                    case_insensitive,
                };
                continue;
            }
            if negated {
                return Err(self.unexpected("BETWEEN, IN, LIKE or ILIKE after NOT"));
            }
            let op = match self.peek() {
                TokenKind::Op(Op::Eq) => BinaryOp::Eq,
                TokenKind::Op(Op::Neq) => BinaryOp::Neq,
                TokenKind::Op(Op::Lt) => BinaryOp::Lt,
                TokenKind::Op(Op::Le) => BinaryOp::Le,
                TokenKind::Op(Op::Gt) => BinaryOp::Gt,
                TokenKind::Op(Op::Ge) => BinaryOp::Ge,
                _ => break,
            };
            self.advance();
            let right = self.parse_additive()?;
            left = Expr::bin(left, op, right);
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Op(Op::Plus) => BinaryOp::Add,
                TokenKind::Op(Op::Minus) => BinaryOp::Sub,
                TokenKind::Op(Op::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::bin(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Op(Op::Star) => BinaryOp::Mul,
                TokenKind::Op(Op::Slash) => BinaryOp::Div,
                TokenKind::Op(Op::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::bin(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_op(Op::Minus) {
            let inner = self.parse_unary()?;
            // fold negation into numeric literals so `-1` is a literal (and
            // deparse→parse round-trips structurally)
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(v.wrapping_neg())),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_op(Op::Plus) {
            return self.parse_unary();
        }
        self.parse_postfix()
    }

    /// Postfix operators: `::type` casts and json `->` / `->>` access.
    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat_op(Op::DoubleColon) {
                let ty_word = self.ident()?;
                let ty = TypeName::from_keyword(&ty_word).ok_or_else(|| {
                    ParseError::at(self.offset(), format!("unknown type '{ty_word}' in cast"))
                })?;
                if ty_word == "double" {
                    self.eat_kw("precision");
                }
                e = Expr::Cast { expr: Box::new(e), ty };
                if ty_word == "date" {
                    // `::date` truncates the time-of-day, like PostgreSQL
                    e = Expr::Func(crate::ast::FuncCall::new(
                        "date_trunc",
                        vec![Expr::string("day"), e],
                    ));
                }
                continue;
            }
            let op = match self.peek() {
                TokenKind::Op(Op::Arrow) => BinaryOp::JsonGet,
                TokenKind::Op(Op::LongArrow) => BinaryOp::JsonGetText,
                _ => break,
            };
            self.advance();
            // the accessor key is a (possibly negated) primary
            let key = if self.eat_op(Op::Minus) {
                match self.parse_primary()? {
                    Expr::Literal(Literal::Int(v)) => {
                        Expr::Literal(Literal::Int(v.wrapping_neg()))
                    }
                    Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                    other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
                }
            } else {
                self.parse_primary()?
            };
            e = Expr::bin(e, op, key);
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Literal(number_literal(&n, self.offset())?))
            }
            TokenKind::String(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Param(n) => {
                self.advance();
                Ok(Expr::Param(n))
            }
            TokenKind::Op(Op::LParen) => {
                self.advance();
                if self.at_kw("select") {
                    let sub = self.parse_select()?;
                    self.expect_op(Op::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(sub)));
                }
                let inner = self.parse_expr()?;
                self.expect_op(Op::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(w) => match w.as_str() {
                "null" => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Null))
                }
                "true" => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Bool(true)))
                }
                "false" => {
                    self.advance();
                    Ok(Expr::Literal(Literal::Bool(false)))
                }
                "case" => self.parse_case(),
                "cast" => {
                    self.advance();
                    self.expect_op(Op::LParen)?;
                    let inner = self.parse_expr()?;
                    self.expect_kw("as")?;
                    let ty_word = self.ident()?;
                    let ty = TypeName::from_keyword(&ty_word).ok_or_else(|| {
                        ParseError::at(self.offset(), format!("unknown type '{ty_word}' in cast"))
                    })?;
                    if ty_word == "double" {
                        self.eat_kw("precision");
                    }
                    self.expect_op(Op::RParen)?;
                    let cast = Expr::Cast { expr: Box::new(inner), ty };
                    Ok(if ty_word == "date" {
                        Expr::Func(crate::ast::FuncCall::new(
                            "date_trunc",
                            vec![Expr::string("day"), cast],
                        ))
                    } else {
                        cast
                    })
                }
                "exists" => {
                    self.advance();
                    self.expect_op(Op::LParen)?;
                    let sub = self.parse_select()?;
                    self.expect_op(Op::RParen)?;
                    Ok(Expr::Exists { subquery: Box::new(sub), negated: false })
                }
                "extract" => {
                    self.advance();
                    self.expect_op(Op::LParen)?;
                    let field = self.ident()?;
                    self.expect_kw("from")?;
                    let from = self.parse_expr()?;
                    self.expect_op(Op::RParen)?;
                    Ok(Expr::Func(FuncCall::new(
                        "extract",
                        vec![Expr::Literal(Literal::String(field)), from],
                    )))
                }
                // typed literals: date '2020-01-01', timestamp '...'
                "date" | "timestamp" if matches!(self.peek2(), TokenKind::String(_)) => {
                    self.advance();
                    let s = self.string_lit()?;
                    Ok(Expr::Cast {
                        expr: Box::new(Expr::Literal(Literal::String(s))),
                        ty: TypeName::Timestamp,
                    })
                }
                _ => {
                    self.advance();
                    // qualified column: t.col
                    if self.eat_op(Op::Dot) {
                        let name = self.ident()?;
                        return Ok(Expr::Column { table: Some(w), name });
                    }
                    // function call
                    if self.at_op(Op::LParen) {
                        self.advance();
                        let mut fc = FuncCall::new(&w, Vec::new());
                        if self.eat_op(Op::Star) {
                            fc.star = true;
                        } else if !self.at_op(Op::RParen) {
                            fc.distinct = self.eat_kw("distinct");
                            loop {
                                fc.args.push(self.parse_expr()?);
                                if !self.eat_op(Op::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_op(Op::RParen)?;
                        return Ok(Expr::Func(fc));
                    }
                    Ok(Expr::Column { table: None, name: w })
                }
            },
            TokenKind::QuotedIdent(w) => {
                self.advance();
                if self.eat_op(Op::Dot) {
                    let name = self.ident()?;
                    return Ok(Expr::Column { table: Some(w), name });
                }
                Ok(Expr::Column { table: None, name: w })
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("case")?;
        let operand = if self.at_kw("when") { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.parse_expr()?;
            self.expect_kw("then")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.unexpected("'WHEN'"));
        }
        let else_result =
            if self.eat_kw("else") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { operand, branches, else_result })
    }
}

fn number_literal(text: &str, offset: usize) -> Result<Literal, ParseError> {
    if text.contains('.') || text.contains('e') || text.contains('E') {
        text.parse::<f64>()
            .map(Literal::Float)
            .map_err(|_| ParseError::at(offset, "invalid numeric literal"))
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok(Literal::Int(v)),
            // overflowing integers fall back to float, like PostgreSQL numerics
            Err(_) => text
                .parse::<f64>()
                .map(Literal::Float)
                .map_err(|_| ParseError::at(offset, "invalid numeric literal")),
        }
    }
}
