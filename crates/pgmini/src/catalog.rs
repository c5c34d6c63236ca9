//! System catalog: tables, columns, indexes, and foreign keys.

use crate::cost::pages_for;
use crate::error::{ErrorCode, PgError, PgResult};
use sqlparse::ast::{ColumnDef, CreateIndex, CreateTable, Expr, TableConstraint, TypeName};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a table for the lifetime of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifies an index for the lifetime of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A column definition as stored in the catalog.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: TypeName,
    pub not_null: bool,
    pub default: Option<Expr>,
}

/// Physical storage layout of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Row-oriented MVCC heap (PostgreSQL's default).
    Heap,
    /// Append-only column store (the paper's "columnar storage" capability
    /// for data-warehousing workloads).
    Columnar,
}

/// Index access method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMethod {
    BTree,
    /// Trigram GIN, the pg_trgm stand-in for substring search.
    Gin,
}

/// A foreign key from this table to another.
#[derive(Debug, Clone)]
pub struct ForeignKey {
    pub columns: Vec<usize>,
    pub ref_table: TableId,
    pub ref_columns: Vec<usize>,
}

/// Catalog entry for a table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    pub storage: Storage,
    /// Simulated on-disk row width in bytes (drives buffer-pool page math).
    /// Defaults to an estimate from the column types; benchmarks override it
    /// to model the paper's full-size datasets.
    pub sim_row_width: u32,
    /// Primary key column positions, if any.
    pub primary_key: Option<Vec<usize>>,
    pub indexes: Vec<IndexId>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableMeta {
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Simulated pages occupied by `rows` rows of this table.
    pub fn pages(&self, rows: u64) -> u64 {
        pages_for(rows, self.sim_row_width)
    }
}

/// Catalog entry for an index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub method: IndexMethod,
    /// Indexed expressions (plain columns or expressions over them).
    pub exprs: Vec<Expr>,
    pub unique: bool,
    /// Partial-index predicate.
    pub predicate: Option<Expr>,
}

/// The system catalog. Guarded by a single `RwLock` in the engine; DDL takes
/// the write side, everything else reads. Entries are shared: a reader (or a
/// cached plan) holds the `Arc` it looked up, and DDL copies on write.
#[derive(Debug, Default)]
pub struct Catalog {
    tables_by_name: HashMap<String, TableId>,
    tables: HashMap<TableId, Arc<TableMeta>>,
    indexes_by_name: HashMap<String, IndexId>,
    indexes: HashMap<IndexId, Arc<IndexMeta>>,
    next_table: u32,
    next_index: u32,
}

/// Rough per-type width estimate for default page math. Public because the
/// executor's per-column columnar I/O accounting apportions a table's
/// simulated bytes across columns by these same widths.
pub fn type_width(ty: TypeName) -> u32 {
    match ty {
        TypeName::Bool => 1,
        TypeName::Int => 8,
        TypeName::Float => 8,
        TypeName::Timestamp => 8,
        TypeName::Text => 32,
        TypeName::Json => 256,
    }
}

impl Catalog {
    /// Create a table from a parsed `CREATE TABLE`. Returns the new id, or
    /// `None` when `IF NOT EXISTS` suppressed creation.
    pub fn create_table(&mut self, stmt: &CreateTable) -> PgResult<Option<TableId>> {
        if self.tables_by_name.contains_key(&stmt.name) {
            if stmt.if_not_exists {
                return Ok(None);
            }
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("relation \"{}\" already exists", stmt.name),
            ));
        }
        let id = TableId(self.next_table);
        self.next_table += 1;
        let columns: Vec<Column> = stmt
            .columns
            .iter()
            .map(|c: &ColumnDef| Column {
                name: c.name.clone(),
                ty: c.ty,
                not_null: c.not_null,
                default: c.default.clone(),
            })
            .collect();
        // primary key: first inline `PRIMARY KEY` column wins, else constraint
        let mut primary_key: Option<Vec<usize>> = stmt
            .columns
            .iter()
            .position(|c| c.primary_key)
            .map(|i| vec![i]);
        let positions = |names: &[String]| -> PgResult<Vec<usize>> {
            names
                .iter()
                .map(|name| {
                    columns
                        .iter()
                        .position(|c| &c.name == name)
                        .ok_or_else(|| PgError::undefined_column(name))
                })
                .collect()
        };
        for con in &stmt.constraints {
            match con {
                TableConstraint::PrimaryKey(cols) => primary_key = Some(positions(cols)?),
                TableConstraint::Unique(cols) => {
                    positions(cols)?;
                }
                TableConstraint::ForeignKey { .. } => {}
            }
        }
        let storage = match stmt.using.as_deref() {
            None | Some("heap") => Storage::Heap,
            Some("columnar") => Storage::Columnar,
            Some(other) => {
                return Err(PgError::unsupported(format!("table access method \"{other}\"")))
            }
        };
        if storage == Storage::Columnar {
            // The append-only column store has no per-row ids to hang index
            // entries or FK checks off; reject constraints that need them.
            let constrained = primary_key.is_some()
                || stmt.columns.iter().any(|c| c.unique || c.references.is_some())
                || stmt.constraints.iter().any(|c| {
                    matches!(c, TableConstraint::Unique(_) | TableConstraint::ForeignKey { .. })
                });
            if constrained {
                return Err(PgError::unsupported(
                    "columnar tables do not support primary key, unique, or foreign key constraints",
                ));
            }
        }
        let width_data: u32 = columns.iter().map(|c| type_width(c.ty)).sum();
        // 24-byte tuple header + item pointer, like PostgreSQL
        let sim_row_width = width_data + 28;
        let meta = TableMeta {
            id,
            name: stmt.name.clone(),
            columns,
            storage,
            sim_row_width,
            primary_key,
            indexes: Vec::new(),
            foreign_keys: Vec::new(),
        };
        self.tables_by_name.insert(stmt.name.clone(), id);
        self.tables.insert(id, Arc::new(meta));
        Ok(Some(id))
    }

    /// Register a foreign key; the referenced columns default to the
    /// referenced table's primary key.
    pub fn add_foreign_key(
        &mut self,
        table: TableId,
        columns: &[String],
        ref_table_name: &str,
        ref_columns: &[String],
    ) -> PgResult<()> {
        let ref_id = self.table_id(ref_table_name)?;
        let ref_meta = &self.tables[&ref_id];
        let ref_idxs: Vec<usize> = if ref_columns.is_empty() {
            ref_meta.primary_key.clone().ok_or_else(|| {
                PgError::new(
                    ErrorCode::InvalidParameter,
                    format!("referenced table \"{ref_table_name}\" has no primary key"),
                )
            })?
        } else {
            ref_columns
                .iter()
                .map(|n| {
                    ref_meta.column_index(n).ok_or_else(|| PgError::undefined_column(n))
                })
                .collect::<PgResult<_>>()?
        };
        let meta = self
            .tables
            .get(&table)
            .ok_or_else(|| PgError::internal("fk on unknown table"))?;
        let col_idxs: Vec<usize> = columns
            .iter()
            .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
            .collect::<PgResult<_>>()?;
        if col_idxs.len() != ref_idxs.len() {
            return Err(PgError::new(
                ErrorCode::InvalidParameter,
                "foreign key column count mismatch",
            ));
        }
        self.table_mut(table)?.foreign_keys.push(ForeignKey {
            columns: col_idxs,
            ref_table: ref_id,
            ref_columns: ref_idxs,
        });
        Ok(())
    }

    /// Create an index from a parsed `CREATE INDEX`. Returns `None` when
    /// `IF NOT EXISTS` suppressed creation.
    pub fn create_index(&mut self, stmt: &CreateIndex) -> PgResult<Option<IndexId>> {
        if self.indexes_by_name.contains_key(&stmt.name) {
            if stmt.if_not_exists {
                return Ok(None);
            }
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("index \"{}\" already exists", stmt.name),
            ));
        }
        let table = self.table_id(&stmt.table)?;
        let method = match stmt.method.as_deref() {
            None | Some("btree") => IndexMethod::BTree,
            Some("gin") => IndexMethod::Gin,
            Some(other) => {
                return Err(PgError::unsupported(format!("index method \"{other}\"")))
            }
        };
        let id = IndexId(self.next_index);
        self.next_index += 1;
        let meta = IndexMeta {
            id,
            name: stmt.name.clone(),
            table,
            method,
            exprs: stmt.columns.clone(),
            unique: stmt.unique,
            predicate: stmt.where_clause.clone(),
        };
        self.indexes_by_name.insert(stmt.name.clone(), id);
        self.indexes.insert(id, Arc::new(meta));
        self.table_mut(table)?.indexes.push(id);
        Ok(Some(id))
    }

    /// Register an implicit unique index backing a primary key / UNIQUE
    /// column; returns the synthesised index id.
    pub fn create_pkey_index(&mut self, table: TableId, cols: &[usize]) -> PgResult<IndexId> {
        let id = IndexId(self.next_index);
        let meta = self.table_mut(table)?;
        meta.indexes.push(id);
        let name = format!("{}_pkey_{}", meta.name, id.0);
        let exprs = cols.iter().map(|&i| Expr::col(&meta.columns[i].name)).collect();
        self.next_index += 1;
        self.indexes_by_name.insert(name.clone(), id);
        let meta =
            IndexMeta { id, name, table, method: IndexMethod::BTree, exprs, unique: true, predicate: None };
        self.indexes.insert(id, Arc::new(meta));
        Ok(id)
    }

    pub fn drop_table(&mut self, name: &str) -> PgResult<Arc<TableMeta>> {
        let id = self.table_id(name)?;
        // refuse to drop a table another table references
        for t in self.tables.values() {
            if t.id != id && t.foreign_keys.iter().any(|fk| fk.ref_table == id) {
                return Err(PgError::new(
                    ErrorCode::InvalidParameter,
                    format!("cannot drop \"{name}\": other tables reference it"),
                ));
            }
        }
        let meta = self.tables.remove(&id).ok_or_else(|| PgError::undefined_table(name))?;
        self.tables_by_name.remove(name);
        for idx in &meta.indexes {
            if let Some(im) = self.indexes.remove(idx) {
                self.indexes_by_name.remove(&im.name);
            }
        }
        Ok(meta)
    }

    pub fn table_id(&self, name: &str) -> PgResult<TableId> {
        self.tables_by_name.get(name).copied().ok_or_else(|| PgError::undefined_table(name))
    }

    pub fn table(&self, id: TableId) -> PgResult<&Arc<TableMeta>> {
        self.tables.get(&id).ok_or_else(|| PgError::internal(format!("no table {id:?}")))
    }

    pub fn table_mut(&mut self, id: TableId) -> PgResult<&mut TableMeta> {
        self.tables
            .get_mut(&id)
            .map(Arc::make_mut)
            .ok_or_else(|| PgError::internal(format!("no table {id:?}")))
    }

    pub fn table_by_name(&self, name: &str) -> PgResult<&Arc<TableMeta>> {
        self.table(self.table_id(name)?)
    }

    pub fn index(&self, id: IndexId) -> PgResult<&Arc<IndexMeta>> {
        self.indexes.get(&id).ok_or_else(|| PgError::internal(format!("no index {id:?}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables_by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// Tables that declare a foreign key referencing `id`.
    pub fn referencing_tables(&self, id: TableId) -> Vec<(TableId, ForeignKey)> {
        let mut out = Vec::new();
        for t in self.tables.values() {
            for fk in &t.foreign_keys {
                if fk.ref_table == id {
                    out.push((t.id, fk.clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::parse;
    use sqlparse::ast::Statement;

    fn create(catalog: &mut Catalog, sql: &str) -> TableId {
        let Statement::CreateTable(ct) = parse(sql).unwrap() else { panic!() };
        catalog.create_table(&ct).unwrap().unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::default();
        let id = create(&mut c, "CREATE TABLE t (a bigint PRIMARY KEY, b text)");
        let meta = c.table_by_name("t").unwrap();
        assert_eq!(meta.id, id);
        assert_eq!(meta.columns.len(), 2);
        assert_eq!(meta.primary_key, Some(vec![0]));
        assert_eq!(meta.column_index("b"), Some(1));
        assert!(c.table_id("nope").is_err());
    }

    #[test]
    fn duplicate_table_errors_if_not_exists_is_quiet() {
        let mut c = Catalog::default();
        create(&mut c, "CREATE TABLE t (a int)");
        let Statement::CreateTable(ct) = parse("CREATE TABLE t (a int)").unwrap() else {
            panic!()
        };
        assert!(c.create_table(&ct).is_err());
        let Statement::CreateTable(ct) =
            parse("CREATE TABLE IF NOT EXISTS t (a int)").unwrap()
        else {
            panic!()
        };
        assert_eq!(c.create_table(&ct).unwrap(), None);
    }

    #[test]
    fn composite_primary_key_from_constraint() {
        let mut c = Catalog::default();
        create(&mut c, "CREATE TABLE t (a int, b int, c text, PRIMARY KEY (b, a))");
        assert_eq!(c.table_by_name("t").unwrap().primary_key, Some(vec![1, 0]));
    }

    #[test]
    fn foreign_keys_register_and_block_drop() {
        let mut c = Catalog::default();
        create(&mut c, "CREATE TABLE parent (id int PRIMARY KEY)");
        let child = create(&mut c, "CREATE TABLE child (id int PRIMARY KEY, pid int)");
        c.add_foreign_key(child, &["pid".into()], "parent", &[]).unwrap();
        assert_eq!(c.table(child).unwrap().foreign_keys.len(), 1);
        assert!(c.drop_table("parent").is_err());
        c.drop_table("child").unwrap();
        c.drop_table("parent").unwrap();
    }

    #[test]
    fn index_creation_and_methods() {
        let mut c = Catalog::default();
        let t = create(&mut c, "CREATE TABLE t (a int, data jsonb)");
        let Statement::CreateIndex(ci) = parse("CREATE INDEX i1 ON t (a)").unwrap() else {
            panic!()
        };
        let i1 = c.create_index(&ci).unwrap().unwrap();
        assert_eq!(c.index(i1).unwrap().method, IndexMethod::BTree);
        let Statement::CreateIndex(ci) =
            parse("CREATE INDEX i2 ON t USING gin ((data->>'m'))").unwrap()
        else {
            panic!()
        };
        let i2 = c.create_index(&ci).unwrap().unwrap();
        assert_eq!(c.index(i2).unwrap().method, IndexMethod::Gin);
        assert_eq!(c.table(t).unwrap().indexes, vec![i1, i2]);
        let Statement::CreateIndex(ci) = parse("CREATE INDEX i1 ON t (a)").unwrap() else {
            panic!()
        };
        assert!(c.create_index(&ci).is_err());
    }

    #[test]
    fn width_estimate_feeds_page_math() {
        let mut c = Catalog::default();
        create(&mut c, "CREATE TABLE t (a bigint, b text)");
        let meta = c.table_by_name("t").unwrap();
        assert_eq!(meta.sim_row_width, 8 + 32 + 28);
        assert!(meta.pages(10_000) > 0);
    }
}
