//! The engine: catalog + stores + transaction machinery for one "server".
//!
//! One `Engine` models one PostgreSQL server (a node in the cluster fabric).
//! Sessions are its connections; the distributed layer installs an
//! [`crate::hooks::Extension`] and registers UDFs to take control, exactly
//! like the extension API the paper describes.

use crate::buffer::{BufferKey, BufferPool};
use crate::catalog::{Catalog, IndexId, IndexMeta, IndexMethod, Storage, TableId, TableMeta};
use crate::cost::{SimCost, CPU_OPERATOR_MS, CPU_TUPLE_MS, INDEX_DESCEND_MS};
use crate::error::{ErrorCode, PgError, PgResult};
use crate::expr::{bind, eval, BExpr, ColumnRef, EvalCtx, RowScope};
use crate::hooks::Hooks;
use crate::index::{BTreeIndex, GinIndex, IndexKey, IndexStore};
use crate::lock::LockManager;
use crate::plancache::{CachedPlan, ShapeCache, ShapeCacheStats};
use crate::session::Session;
use crate::storage::{ExpireOutcome, HeapStore, TableStore};
use crate::txn::{Snapshot, TxStatus, TxnManager, Xid, INVALID_XID};
use crate::types::{text_ops::trigrams, Datum, Row};
use crate::wal::{Fate, Lsn, Wal, WalRecord};
use parking_lot::RwLock;
use sqlparse::ast::{ColumnDef, CreateIndex, CreateTable, Statement, TableConstraint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A user-defined function callable as `SELECT fname(args)`. This is the
/// extension RPC mechanism: the distributed layer registers its metadata
/// functions (`create_distributed_table`, `assign_distributed_transaction_id`,
/// ...) here on every node.
pub type Udf = Arc<dyn Fn(&mut Session, &[Datum]) -> PgResult<Datum> + Send + Sync>;

/// Static engine configuration (one simulated server).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Node name for diagnostics ("coordinator", "worker-1", ...).
    pub name: String,
    /// Maximum concurrent sessions (PostgreSQL's process-per-connection cap).
    pub max_connections: u32,
    /// Use batched (vectorized) kernels for columnar scans when the plan
    /// allows it; `false` forces the tuple-at-a-time volcano path everywhere
    /// (the differential tests run both and compare).
    pub vectorized: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            name: "pg".to_string(),
            max_connections: 500,
            vectorized: true,
        }
    }
}

/// An index's bound key expressions and partial predicate.
pub type BoundIndex = (Vec<BExpr>, Option<BExpr>);

/// One simulated PostgreSQL server.
pub struct Engine {
    pub config: EngineConfig,
    pub catalog: RwLock<Catalog>,
    stores: RwLock<HashMap<TableId, Arc<TableStore>>>,
    index_stores: RwLock<HashMap<IndexId, Arc<IndexStore>>>,
    /// Cache of bound index expressions: (key exprs, partial predicate).
    bound_index_exprs: RwLock<HashMap<IndexId, Arc<BoundIndex>>>,
    /// Counts DDL: every entry point that changes what a plan was built from
    /// bumps it, which invalidates the plans cached under the old value.
    catalog_version: AtomicU64,
    /// Generic plans of the shard statements this engine has run, by shape.
    pub(crate) plan_cache: ShapeCache<CachedPlan>,
    pub txns: TxnManager,
    pub locks: LockManager,
    pub wal: Wal,
    pub buffer: BufferPool,
    pub hooks: Hooks,
    udfs: RwLock<HashMap<String, Udf>>,
    conn_count: AtomicU32,
    pub(crate) session_seq: AtomicU64,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Arc<Engine> {
        let capacity_pages = crate::cost::MEM_BYTES / crate::cost::PAGE_SIZE;
        Arc::new(Engine {
            catalog: RwLock::new(Catalog::default()),
            stores: RwLock::new(HashMap::new()),
            index_stores: RwLock::new(HashMap::new()),
            bound_index_exprs: RwLock::new(HashMap::new()),
            catalog_version: AtomicU64::new(0),
            plan_cache: ShapeCache::new(crate::plancache::MAX_ENTRIES),
            config,
            txns: TxnManager::default(),
            locks: LockManager::default(),
            wal: Wal::default(),
            buffer: BufferPool::new(capacity_pages),
            hooks: Hooks::default(),
            udfs: RwLock::new(HashMap::new()),
            conn_count: AtomicU32::new(0),
            session_seq: AtomicU64::new(1),
        })
    }

    /// Default-configured engine (16 cores, 64 GB, defaults everywhere).
    pub fn new_default() -> Arc<Engine> {
        Engine::new(EngineConfig::default())
    }

    /// Open a session (connection). Fails with `TooManyConnections` at the
    /// configured cap — the PostgreSQL connection-scalability limit §2.3
    /// complains about.
    pub fn session(self: &Arc<Self>) -> PgResult<Session> {
        let prev = self.conn_count.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_connections {
            self.conn_count.fetch_sub(1, Ordering::SeqCst);
            return Err(PgError::new(
                ErrorCode::TooManyConnections,
                format!(
                    "sorry, too many clients already ({} max)",
                    self.config.max_connections
                ),
            ));
        }
        Ok(Session::new(self.clone()))
    }

    pub(crate) fn connection_closed(&self) {
        self.conn_count.fetch_sub(1, Ordering::SeqCst);
    }

    // ---------------- catalog & stores ----------------

    pub fn store(&self, id: TableId) -> PgResult<Arc<TableStore>> {
        self.stores
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| PgError::internal(format!("no store for table {id:?}")))
    }

    pub fn index_store(&self, id: IndexId) -> PgResult<Arc<IndexStore>> {
        self.index_stores
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| PgError::internal(format!("no store for index {id:?}")))
    }

    pub fn table_meta(&self, name: &str) -> PgResult<Arc<TableMeta>> {
        self.catalog.read().table_by_name(name).cloned()
    }

    pub fn table_meta_by_id(&self, id: TableId) -> PgResult<Arc<TableMeta>> {
        self.catalog.read().table(id).cloned()
    }

    pub fn index_meta(&self, id: IndexId) -> PgResult<Arc<IndexMeta>> {
        self.catalog.read().index(id).cloned()
    }

    /// The version cached plans are stamped with (see `catalog_version`).
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version.load(Ordering::SeqCst)
    }

    /// Called by every DDL entry point once its change is in place.
    fn catalog_changed(&self) {
        self.catalog_version.fetch_add(1, Ordering::SeqCst);
    }

    /// Hit/miss/size/invalidation counters of the local plan cache.
    pub fn plan_cache_stats(&self) -> ShapeCacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached plan (tests compare warm against cold execution).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Override a table's simulated row width (benchmarks size datasets to
    /// the paper's scale this way).
    pub fn set_sim_row_width(&self, table: &str, width: u32) -> PgResult<()> {
        let mut cat = self.catalog.write();
        let id = cat.table_id(table)?;
        cat.table_mut(id)?.sim_row_width = width;
        self.catalog_changed();
        Ok(())
    }

    /// Switch a table to columnar storage (must be empty).
    pub fn set_columnar(&self, table: &str) -> PgResult<()> {
        let mut cat = self.catalog.write();
        let id = cat.table_id(table)?;
        if self.store(id)?.live_estimate() > 0 {
            return Err(PgError::unsupported(
                "converting a non-empty table to columnar storage",
            ));
        }
        cat.table_mut(id)?.storage = Storage::Columnar;
        self.stores
            .write()
            .insert(id, Arc::new(TableStore::Columnar(Default::default())));
        self.catalog_changed();
        Ok(())
    }

    /// Simulated heap pages of a table right now (live + dead versions).
    pub fn table_pages(&self, meta: &TableMeta) -> u64 {
        let Ok(store) = self.store(meta.id) else { return 0 };
        let rows = match &*store {
            TableStore::Heap(h) => h.slot_count(),
            TableStore::Columnar(c) => c.live_estimate(),
        };
        meta.pages(rows)
    }

    // ---------------- UDFs ----------------

    pub fn register_udf(
        &self,
        name: &str,
        f: impl Fn(&mut Session, &[Datum]) -> PgResult<Datum> + Send + Sync + 'static,
    ) {
        self.udfs.write().insert(name.to_string(), Arc::new(f));
    }

    pub fn udf(&self, name: &str) -> Option<Udf> {
        self.udfs.read().get(name).cloned()
    }

    // ---------------- DDL ----------------

    /// CREATE TABLE: catalog entry, store, primary-key/unique indexes,
    /// foreign keys. Logged to the WAL so standbys can replay schema.
    pub fn ddl_create_table(&self, stmt: &CreateTable) -> PgResult<()> {
        let mut cat = self.catalog.write();
        let Some(id) = cat.create_table(stmt)? else { return Ok(()) };
        let store = match cat.table(id)?.storage {
            Storage::Heap => TableStore::Heap(HeapStore::default()),
            Storage::Columnar => TableStore::Columnar(Default::default()),
        };
        self.stores.write().insert(id, Arc::new(store));
        // primary key index
        if let Some(pk) = cat.table(id)?.primary_key.clone() {
            let iid = cat.create_pkey_index(id, &pk);
            self.index_stores
                .write()
                .insert(iid, Arc::new(IndexStore::BTree(BTreeIndex::default())));
        }
        // unique columns and UNIQUE (..) constraints get their own unique
        // indexes (the catalog checked the constraints' column names)
        let meta = cat.table(id)?.clone();
        let mut uniques: Vec<Vec<usize>> = stmt
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique && !c.primary_key)
            .map(|(i, _)| vec![i])
            .collect();
        uniques.extend(stmt.constraints.iter().filter_map(|con| match con {
            TableConstraint::Unique(names) => {
                Some(names.iter().filter_map(|n| meta.column_index(n)).collect())
            }
            _ => None,
        }));
        for u in uniques {
            let iid = cat.create_pkey_index(id, &u);
            self.index_stores
                .write()
                .insert(iid, Arc::new(IndexStore::BTree(BTreeIndex::default())));
        }
        // foreign keys: inline REFERENCES and table constraints
        for c in &stmt.columns {
            if let Some((ref_table, ref_col)) = &c.references {
                let ref_cols =
                    if ref_col.is_empty() { vec![] } else { vec![ref_col.clone()] };
                cat.add_foreign_key(id, &[c.name.clone()], ref_table, &ref_cols)?;
            }
        }
        for con in &stmt.constraints {
            if let sqlparse::ast::TableConstraint::ForeignKey { columns, ref_table, ref_columns } =
                con
            {
                cat.add_foreign_key(id, columns, ref_table, ref_columns)?;
            }
        }
        drop(cat);
        self.catalog_changed();
        self.wal.append(WalRecord::Ddl {
            sql: sqlparse::deparse(&Statement::CreateTable(Box::new(stmt.clone()))),
        });
        Ok(())
    }

    /// CREATE INDEX: catalog entry, store, and backfill from visible rows.
    pub fn ddl_create_index(&self, stmt: &CreateIndex) -> PgResult<()> {
        let mut cat = self.catalog.write();
        if let Ok(tid) = cat.table_id(&stmt.table) {
            if matches!(cat.table(tid)?.storage, Storage::Columnar) {
                return Err(PgError::new(
                    ErrorCode::FeatureNotSupported,
                    "cannot create indexes on columnar tables",
                ));
            }
        }
        let Some(iid) = cat.create_index(stmt)? else { return Ok(()) };
        let imeta = cat.index(iid)?.clone();
        let tmeta = cat.table(imeta.table)?.clone();
        drop(cat);
        let store: Arc<IndexStore> = match imeta.method {
            IndexMethod::BTree => Arc::new(IndexStore::BTree(BTreeIndex::default())),
            IndexMethod::Gin => Arc::new(IndexStore::Gin(GinIndex::default())),
        };
        self.index_stores.write().insert(iid, store.clone());
        // backfill all visible rows
        let snap = self.txns.snapshot(INVALID_XID);
        let table_store = self.store(imeta.table)?;
        let heap = table_store.heap()?;
        let mut rows: Vec<(u64, Row)> = Vec::new();
        heap.scan_visible(&self.txns, &snap, |t| rows.push((t.row_id, t.data.clone())));
        for (row_id, row) in rows {
            let (key, admitted) = self.index_key(&tmeta, &imeta, &row, false)?;
            if admitted {
                store.insert(key, row_id);
            }
        }
        self.catalog_changed();
        self.wal.append(WalRecord::Ddl {
            sql: sqlparse::deparse(&Statement::CreateIndex(Box::new(stmt.clone()))),
        });
        Ok(())
    }

    pub fn ddl_drop_table(&self, name: &str, if_exists: bool) -> PgResult<()> {
        let mut cat = self.catalog.write();
        if cat.table_id(name).is_err() && if_exists {
            return Ok(());
        }
        let meta = cat.drop_table(name)?;
        drop(cat);
        self.stores.write().remove(&meta.id);
        self.buffer.forget(BufferKey::Table(meta.id.0));
        for i in 0..meta.columns.len() {
            self.buffer.forget(BufferKey::TableColumn(meta.id.0, i as u32));
        }
        let mut istores = self.index_stores.write();
        for iid in &meta.indexes {
            istores.remove(iid);
            self.buffer.forget(BufferKey::Index(iid.0));
            self.bound_index_exprs.write().remove(iid);
        }
        drop(istores);
        self.catalog_changed();
        self.wal.append(WalRecord::Ddl {
            sql: format!("DROP TABLE {}", sqlparse::quote_ident(name)),
        });
        Ok(())
    }

    /// TRUNCATE (non-MVCC, caller holds the exclusive table lock).
    pub fn truncate_table(&self, name: &str) -> PgResult<()> {
        let meta = self.table_meta(name)?;
        self.store(meta.id)?.truncate();
        for iid in &meta.indexes {
            let fresh: Arc<IndexStore> = match self.index_meta(*iid)?.method {
                IndexMethod::BTree => Arc::new(IndexStore::BTree(BTreeIndex::default())),
                IndexMethod::Gin => Arc::new(IndexStore::Gin(GinIndex::default())),
            };
            self.index_stores.write().insert(*iid, fresh);
        }
        self.buffer.forget(BufferKey::Table(meta.id.0));
        for i in 0..meta.columns.len() {
            self.buffer.forget(BufferKey::TableColumn(meta.id.0, i as u32));
        }
        self.catalog_changed();
        self.wal
            .append(WalRecord::Ddl { sql: format!("TRUNCATE {}", sqlparse::quote_ident(name)) });
        Ok(())
    }

    // ---------------- index maintenance ----------------

    /// Bound key expressions + predicate for an index, cached.
    pub fn bound_index(&self, imeta: &IndexMeta, tmeta: &TableMeta) -> PgResult<Arc<BoundIndex>> {
        if let Some(found) = self.bound_index_exprs.read().get(&imeta.id) {
            return Ok(found.clone());
        }
        let scope = RowScope {
            cols: tmeta.columns.iter().map(|c| ColumnRef::new(None, &c.name)).collect(),
        };
        let keys: Vec<BExpr> =
            imeta.exprs.iter().map(|e| bind(e, &scope)).collect::<PgResult<_>>()?;
        let pred = imeta.predicate.as_ref().map(|p| bind(p, &scope)).transpose()?;
        let entry = Arc::new((keys, pred));
        self.bound_index_exprs.write().insert(imeta.id, entry.clone());
        Ok(entry)
    }

    /// `row`'s key in index `imeta` of table `tmeta`, and whether the index
    /// holds an entry for it: the partial predicate admits the row and a GIN
    /// text is not NULL. The one evaluation of an index key: writes, their
    /// charge, unique checks, vacuum and backfill all ask it. The key of a
    /// row the predicate rejects is left empty and its expressions unrun (a
    /// predicate may guard them, as `((100 / k)) WHERE k <> 0` does), except
    /// a GIN key when `charging`: a write pays its trigrams either way.
    pub(crate) fn index_key(
        &self,
        tmeta: &TableMeta,
        imeta: &IndexMeta,
        row: &Row,
        charging: bool,
    ) -> PgResult<(IndexKey, bool)> {
        let bound = self.bound_index(imeta, tmeta)?;
        let (keys, pred) = &*bound;
        let ctx = EvalCtx::default();
        let admitted = match pred {
            Some(p) => matches!(eval(p, row, &ctx)?, Datum::Bool(true)),
            None => true,
        };
        Ok(match imeta.method {
            IndexMethod::BTree if !admitted => (IndexKey::BTree(Vec::new()), false),
            IndexMethod::BTree => {
                let key = keys.iter().map(|k| eval(k, row, &ctx)).collect::<PgResult<_>>()?;
                (IndexKey::BTree(key), true)
            }
            IndexMethod::Gin if !admitted && !charging => (IndexKey::Gin(Vec::new()), false),
            IndexMethod::Gin => match eval(&keys[0], row, &ctx)? {
                Datum::Null => (IndexKey::Gin(Vec::new()), false),
                text => (IndexKey::Gin(trigrams(&text.to_text())), admitted),
            },
        })
    }

    // ---------------- row writes ----------------

    /// The one way a change reaches a table's storage. `rec` is a data record
    /// (Insert, Update, Delete or ColumnarAppend) already under its
    /// transaction and table: its heap version or stripe is written, an
    /// Update or Delete first expiring the version `snap` sees (a new
    /// snapshot of the record's transaction when `None`), the indexes and the
    /// live count follow, and the record is logged. Forward DML passes its
    /// statement's `cost`; redo passes none. Returns false, having written
    /// nothing, when the version to expire is not there to take.
    pub(crate) fn write(
        &self,
        meta: &TableMeta,
        store: &TableStore,
        rec: WalRecord,
        snap: Option<&Snapshot>,
        cost: Option<&mut SimCost>,
    ) -> PgResult<bool> {
        let expire = |row_id: u64, xid: Xid| -> PgResult<bool> {
            let heap = store.heap()?;
            let outcome = match snap {
                Some(snap) => heap.expire(&self.txns, snap, row_id, xid)?,
                None => heap.expire(&self.txns, &self.txns.snapshot(xid), row_id, xid)?,
            };
            Ok(outcome == ExpireOutcome::Expired)
        };
        match &rec {
            WalRecord::Insert { xid, row_id, row, .. } => {
                let heap = store.heap()?;
                heap.insert_version(*row_id, *xid, row.clone());
                heap.adjust_live(1);
                self.index_and_charge(meta, *row_id, row, cost)?;
            }
            WalRecord::Update { xid, row_id, new_row, .. } => {
                if !expire(*row_id, *xid)? {
                    return Ok(false);
                }
                store.heap()?.insert_version(*row_id, *xid, new_row.clone());
                self.index_and_charge(meta, *row_id, new_row, cost)?;
            }
            WalRecord::Delete { xid, row_id, .. } => {
                if !expire(*row_id, *xid)? {
                    return Ok(false);
                }
                store.heap()?.adjust_live(-1);
                if let Some(cost) = cost {
                    cost.add_tuples(1);
                }
            }
            WalRecord::ColumnarAppend { xid, seq, stripe, .. } => {
                store.columnar()?.append_with_seq(*xid, *seq, stripe.clone(), meta.columns.len())?;
                // a stripe's rows have no index entries, only their charge
                if let Some(cost) = cost {
                    for _ in 0..stripe.rows() {
                        charge_row(cost);
                    }
                }
            }
            other => return Err(PgError::internal(format!("not a row write: {other:?}"))),
        }
        self.wal.append(rec);
        Ok(true)
    }

    /// Enter `row` in every index of `meta` under `row_id` and charge `cost`
    /// for the write: the tuple and its WAL record ([`charge_row`]), then
    /// each index in turn, a GIN index one posting per trigram of its text
    /// whether or not its predicate admits the row (trigram entries dominate
    /// ingest cost, the effect Figure 7(a) measures).
    fn index_and_charge(
        &self,
        meta: &TableMeta,
        row_id: u64,
        row: &Row,
        mut cost: Option<&mut SimCost>,
    ) -> PgResult<()> {
        if let Some(cost) = cost.as_deref_mut() {
            charge_row(cost);
        }
        for iid in &meta.indexes {
            let imeta = self.index_meta(*iid)?;
            let (key, admitted) = self.index_key(meta, &imeta, row, cost.is_some())?;
            if let Some(cost) = cost.as_deref_mut() {
                cost.add_cpu(match &key {
                    IndexKey::BTree(_) => INDEX_DESCEND_MS * 0.5,
                    IndexKey::Gin(grams) => CPU_OPERATOR_MS * 4.0 * grams.len() as f64,
                });
            }
            if admitted {
                self.index_store(*iid)?.insert(key, row_id);
            }
        }
        Ok(())
    }

    // ---------------- vacuum ----------------

    /// VACUUM one table: reclaim dead versions and their index entries.
    /// Returns the number of versions reclaimed.
    pub fn vacuum_table(&self, name: &str) -> PgResult<u64> {
        let meta = self.table_meta(name)?;
        let store = self.store(meta.id)?;
        let TableStore::Heap(heap) = &*store else { return Ok(0) };
        let horizon = self.txns.oldest_active_xid();
        let reclaimed = heap.vacuum(&self.txns, horizon);
        for (row_id, row) in &reclaimed {
            for iid in &meta.indexes {
                let imeta = self.index_meta(*iid)?;
                let (key, admitted) = self.index_key(&meta, &imeta, row, false)?;
                if admitted {
                    self.index_store(*iid)?.remove(&key, *row_id);
                }
            }
        }
        Ok(reclaimed.len() as u64)
    }

    pub fn vacuum_all(&self) -> PgResult<u64> {
        let names = self.catalog.read().table_names();
        let mut total = 0;
        for n in names {
            total += self.vacuum_table(&n)?;
        }
        Ok(total)
    }

    /// Force-abort a transaction from outside its owning session (the
    /// metadata-fence victim path): mark it aborted in the MVCC status map
    /// (its versions become invisible), WAL-log the abort, raise the owner's
    /// fence flag, and release every lock it holds so blocked distributed
    /// operations can proceed. The owning session discovers the abort at its
    /// next statement (or blocked lock wait) and surfaces a retryable
    /// serialization failure. Returns false for unknown/finished xids.
    pub fn force_abort_xid(&self, xid: Xid) -> bool {
        if self.txns.status(xid) != crate::txn::TxStatus::InProgress {
            return false;
        }
        // flag first: if the victim is blocked in the lock manager it must
        // wake with the fence error, and release_all drops its registration
        self.locks.fence_xid(xid);
        self.txns.abort(xid);
        self.wal.append(WalRecord::Abort { xid });
        self.locks.release_all(xid);
        true
    }

    // ---------------- schema copy ----------------

    /// The statements that rebuild table `name` as `as_name`: a CREATE TABLE
    /// with its columns, primary key and storage, and one CREATE INDEX per
    /// other index (method, expressions, predicate, unique flag), named by
    /// `index_name` from the index's own name. Foreign keys are the caller's:
    /// what they reference differs per copy.
    pub fn table_schema(
        &self,
        name: &str,
        as_name: &str,
        index_name: impl Fn(&str) -> String,
    ) -> PgResult<(CreateTable, Vec<CreateIndex>)> {
        let cat = self.catalog.read();
        let meta = cat.table_by_name(name)?;
        let create = CreateTable {
            name: as_name.to_string(),
            if_not_exists: false,
            columns: meta
                .columns
                .iter()
                .map(|c| ColumnDef {
                    name: c.name.clone(),
                    ty: c.ty,
                    not_null: c.not_null,
                    primary_key: false,
                    unique: false,
                    default: c.default.clone(),
                    references: None,
                })
                .collect(),
            constraints: meta
                .primary_key
                .iter()
                .map(|pk| {
                    TableConstraint::PrimaryKey(
                        pk.iter().map(|&i| meta.columns[i].name.clone()).collect(),
                    )
                })
                .collect(),
            using: (meta.storage == Storage::Columnar).then(|| "columnar".to_string()),
        };
        // `ddl_create_table` registers the primary key's index first; the
        // constraint above rebuilds it
        let skip = usize::from(meta.primary_key.is_some());
        let indexes = meta.indexes[skip..]
            .iter()
            .map(|iid| {
                let index = cat.index(*iid)?;
                Ok(CreateIndex {
                    name: index_name(&index.name),
                    table: as_name.to_string(),
                    method: Some(
                        match index.method {
                            IndexMethod::BTree => "btree",
                            IndexMethod::Gin => "gin",
                        }
                        .to_string(),
                    ),
                    columns: index.exprs.clone(),
                    unique: index.unique,
                    where_clause: index.predicate.clone(),
                    if_not_exists: false,
                })
            })
            .collect::<PgResult<_>>()?;
        Ok((create, indexes))
    }

    // ---------------- redo: replication / recovery / shard copy ----------------

    /// Apply one data record (Insert, Update, Delete, ColumnarAppend) to
    /// `table` under `xid` through [`Engine::write`], keeping the record's
    /// row id or stripe sequence number. Returns the rows applied.
    ///
    /// Redo is idempotent by content, so a copy and a log slice that
    /// overlap apply each change once: an Insert whose row id is present, an
    /// Update or Delete whose row is absent, and a ColumnarAppend whose
    /// stripe is present are skipped. An Update or Delete of a present row
    /// that cannot be expired is an internal error, not a silent skip.
    pub fn redo(&self, table: TableId, rec: &WalRecord, xid: Xid) -> PgResult<u64> {
        let meta = self.table_meta_by_id(table)?;
        let mut store = self.store(table)?;
        let (skip, rows) = match rec {
            WalRecord::Insert { row_id, .. } => (store.heap()?.contains(*row_id), 1),
            WalRecord::Update { row_id, .. } | WalRecord::Delete { row_id, .. } => {
                (!store.heap()?.contains(*row_id), 1)
            }
            WalRecord::ColumnarAppend { seq, stripe, .. } => {
                // a table switched to columnar after creation (set_columnar)
                // replays its CREATE TABLE as heap; its first stripe proves
                // the switch happened while it was empty
                if store.columnar().is_err() {
                    self.set_columnar(&meta.name)?;
                    store = self.store(table)?;
                }
                (store.columnar()?.has_seq(*seq), stripe.rows() as u64)
            }
            other => {
                return Err(PgError::internal(format!("redo of a non-data record: {other:?}")))
            }
        };
        if skip {
            return Ok(0);
        }
        let mut rec = rec.clone();
        if let WalRecord::Insert { xid: x, table: t, .. }
        | WalRecord::Update { xid: x, table: t, .. }
        | WalRecord::Delete { xid: x, table: t, .. }
        | WalRecord::ColumnarAppend { xid: x, table: t, .. } = &mut rec
        {
            (*x, *t) = (xid, table);
        }
        if !self.write(&meta, &store, rec, None, None)? {
            // the skips above took every absent row: a present one that
            // cannot be expired means this copy diverged from its source
            return Err(PgError::internal(format!(
                "redo: a row of table {} could not be expired",
                meta.name
            )));
        }
        Ok(rows)
    }

    /// Copy the rows of `src_table` on `src` visible now into this engine's
    /// empty `dst_table`, redone under one committed transaction: the
    /// snapshot half of a shard move. Heap rows keep their row ids and
    /// stripes their sequence numbers, so a later [`Engine::catch_up_from`]
    /// skips what the copy already holds. Returns the rows copied.
    pub fn copy_table_from(
        &self,
        src: &Engine,
        src_table: TableId,
        dst_table: TableId,
    ) -> PgResult<u64> {
        let snap = src.txns.snapshot(INVALID_XID);
        let mut records = Vec::new();
        match &*src.store(src_table)? {
            TableStore::Heap(heap) => heap.scan_visible(&src.txns, &snap, |t| {
                records.push(WalRecord::Insert {
                    xid: INVALID_XID,
                    table: src_table,
                    row_id: t.row_id,
                    row: t.data.clone(),
                })
            }),
            TableStore::Columnar(columnar) => {
                columnar.for_each_visible_stripe(&src.txns, &snap, |seq, stripe| {
                    records.push(WalRecord::ColumnarAppend {
                        xid: INVALID_XID,
                        table: src_table,
                        seq,
                        stripe: stripe.clone(),
                    })
                })
            }
        }
        self.redo_committed(records.iter().map(|rec| (dst_table, rec)))
    }

    /// Redo the changes `src` logged after `from_lsn` to the tables of
    /// `tables` (`(source table, copy here)` pairs) under one committed
    /// transaction: the catch-up half of a shard move, run while writers are
    /// locked out. A change applies when its transaction commits inside the
    /// slice or has committed by now. `from_lsn` must precede every change
    /// the copy missed. Returns the rows applied.
    pub fn catch_up_from(
        &self,
        src: &Engine,
        from_lsn: Lsn,
        tables: &[(TableId, TableId)],
    ) -> PgResult<u64> {
        let delta: Vec<(TableId, WalRecord)> = src.wal.read(from_lsn, src.wal.lsn(), |recs| {
            let fate = crate::wal::fates(recs);
            recs.iter()
                .filter_map(|rec| {
                    let copy = tables.iter().find(|(t, _)| Some(*t) == rec.table())?.1;
                    let xid = rec.xid()?;
                    let committed = fate.get(&xid) == Some(&Fate::Committed)
                        || src.txns.status(xid) == TxStatus::Committed;
                    committed.then(|| (copy, rec.clone()))
                })
                .collect()
        });
        self.redo_committed(delta.iter().map(|(table, rec)| (*table, rec)))
    }

    /// Redo `records` under one fresh transaction and commit it.
    fn redo_committed<'a>(
        &self,
        records: impl Iterator<Item = (TableId, &'a WalRecord)>,
    ) -> PgResult<u64> {
        let xid = self.txns.begin();
        let mut applied = 0;
        for (table, rec) in records {
            applied += self.redo(table, rec, xid)?;
        }
        self.txns.commit(xid);
        self.wal.append(WalRecord::Commit { xid });
        Ok(applied)
    }

    /// Rebuild an engine from a WAL stream, stopping after `upto` records
    /// (None = full log). Prepared-but-undecided transactions are recreated
    /// as prepared, so 2PC recovery can finish them — the property the
    /// paper's consistent-restore-point backups rely on (§3.9).
    pub fn restore_from_wal(records: &[WalRecord], upto: Option<u64>) -> PgResult<Arc<Engine>> {
        let engine = Engine::new_default();
        let upto = upto.map(|u| u as usize).unwrap_or(records.len()).min(records.len());
        let slice = &records[..upto];
        let fate = crate::wal::fates(slice);
        // Committed transactions' new xids are marked committed *up front*,
        // so replayed updates can expire the versions earlier records
        // inserted (visibility checks see them as committed).
        let mut xid_map: HashMap<Xid, Xid> = HashMap::new();
        for (orig, f) in &fate {
            if *f == Fate::Committed {
                let new_xid = engine.txns.begin();
                engine.txns.commit(new_xid);
                xid_map.insert(*orig, new_xid);
            }
        }
        // Redo re-logs replayed changes into the new engine's WAL under their
        // new xids. Without this the promoted standby starts with an empty
        // history and a *second* crash replays only post-promotion records,
        // silently losing everything earlier: restore must compose,
        // restore(wal(restore(wal))) == restore(wal). Aborted transactions
        // are dropped — the re-logged WAL is the compacted history.
        for rec in slice {
            match rec {
                WalRecord::Ddl { sql } => {
                    // the ddl_* methods re-log the record themselves
                    match sqlparse::parse(sql)? {
                        Statement::CreateTable(ct) => engine.ddl_create_table(&ct)?,
                        Statement::CreateIndex(ci) => engine.ddl_create_index(&ci)?,
                        Statement::DropTable { names, if_exists } => {
                            for n in names {
                                engine.ddl_drop_table(&n, if_exists)?;
                            }
                        }
                        Statement::Truncate { tables } => {
                            for t in tables {
                                engine.truncate_table(&t)?;
                            }
                        }
                        other => {
                            return Err(PgError::internal(format!(
                                "unexpected DDL in WAL: {other:?}"
                            )))
                        }
                    }
                }
                WalRecord::RestorePoint { name } => {
                    engine.wal.append(WalRecord::RestorePoint { name: name.clone() });
                }
                _ => {
                    let (Some(xid), Some(table)) = (rec.xid(), rec.table()) else { continue };
                    if matches!(fate.get(&xid), Some(Fate::Committed | Fate::Prepared(_))) {
                        let new_xid = *xid_map.entry(xid).or_insert_with(|| engine.txns.begin());
                        engine.redo(table, rec, new_xid)?;
                    }
                }
            }
        }
        // log every replayed transaction's outcome (sorted by new xid, so
        // the re-logged WAL is deterministic): committed ones were committed
        // up front, prepared ones are prepared again
        let mut settled: Vec<(Xid, Xid)> = xid_map.iter().map(|(o, n)| (*n, *o)).collect();
        settled.sort_unstable();
        for (new_xid, orig) in settled {
            if let Some(Fate::Prepared(gid)) = fate.get(&orig) {
                engine.txns.prepare(new_xid, gid)?;
                engine.wal.append(WalRecord::Prepare { xid: new_xid, gid: gid.to_string() });
            } else {
                engine.wal.append(WalRecord::Commit { xid: new_xid });
            }
        }
        Ok(engine)
    }
}

/// The write of one row, heap or stripe: its tuple, then its WAL record.
fn charge_row(cost: &mut SimCost) {
    cost.add_tuples(1);
    cost.add_cpu(CPU_TUPLE_MS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::parse;

    fn create(engine: &Engine, sql: &str) {
        match parse(sql).unwrap() {
            Statement::CreateTable(ct) => engine.ddl_create_table(&ct).unwrap(),
            Statement::CreateIndex(ci) => engine.ddl_create_index(&ci).unwrap(),
            _ => panic!("not DDL"),
        }
    }

    #[test]
    fn ddl_creates_store_and_pk_index() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY, v text)");
        let meta = e.table_meta("t").unwrap();
        assert!(e.store(meta.id).is_ok());
        assert_eq!(meta.indexes.len(), 1);
        assert!(e.index_store(meta.indexes[0]).is_ok());
    }

    #[test]
    fn connection_cap() {
        let mut cfg = EngineConfig::default();
        cfg.max_connections = 2;
        let e = Engine::new(cfg);
        let s1 = e.session().unwrap();
        let _s2 = e.session().unwrap();
        assert_eq!(e.session().map(|_| ()).unwrap_err().code, ErrorCode::TooManyConnections);
        drop(s1);
        assert!(e.session().is_ok());
    }

    #[test]
    fn index_backfill_on_create() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY, v text)");
        let meta = e.table_meta("t").unwrap();
        // insert rows directly through the heap
        let xid = e.txns.begin();
        let store = e.store(meta.id).unwrap();
        let rid = store.heap().unwrap().insert(
            xid,
            vec![Datum::Int(1), Datum::from_text("fix postgres bug")],
        );
        e.txns.commit(xid);
        create(&e, "CREATE INDEX gi ON t USING gin (v)");
        let meta = e.table_meta("t").unwrap();
        let gin = e.index_store(*meta.indexes.last().unwrap()).unwrap();
        let IndexStore::Gin(g) = &*gin else { panic!() };
        assert_eq!(g.candidates_for_like("%postgres%").unwrap(), vec![rid]);
    }

    #[test]
    fn drop_table_cleans_up() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY)");
        let meta = e.table_meta("t").unwrap();
        e.ddl_drop_table("t", false).unwrap();
        assert!(e.table_meta("t").is_err());
        assert!(e.store(meta.id).is_err());
        // idempotent with IF EXISTS
        e.ddl_drop_table("t", true).unwrap();
        assert!(e.ddl_drop_table("t", false).is_err());
    }

    #[test]
    fn restore_from_wal_replays_schema_and_data() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY, v text)");
        let meta = e.table_meta("t").unwrap();
        let xid = e.txns.begin();
        e.wal.append(WalRecord::Begin { xid });
        let store = e.store(meta.id).unwrap();
        let rid = store.heap().unwrap().insert(xid, vec![Datum::Int(1), Datum::from_text("a")]);
        e.wal.append(WalRecord::Insert {
            xid,
            table: meta.id,
            row_id: rid,
            row: vec![Datum::Int(1), Datum::from_text("a")],
        });
        e.txns.commit(xid);
        e.wal.append(WalRecord::Commit { xid });
        // an aborted txn's insert must not replay
        let xid2 = e.txns.begin();
        e.wal.append(WalRecord::Begin { xid: xid2 });
        e.wal.append(WalRecord::Insert {
            xid: xid2,
            table: meta.id,
            row_id: 999,
            row: vec![Datum::Int(2), Datum::from_text("b")],
        });
        e.txns.abort(xid2);
        e.wal.append(WalRecord::Abort { xid: xid2 });

        let standby = Engine::restore_from_wal(&e.wal.all(), None).unwrap();
        let meta2 = standby.table_meta("t").unwrap();
        let snap = standby.txns.snapshot(INVALID_XID);
        let mut rows = Vec::new();
        standby
            .store(meta2.id)
            .unwrap()
            .heap()
            .unwrap()
            .scan_visible(&standby.txns, &snap, |t| rows.push(t.data.clone()));
        assert_eq!(rows, vec![vec![Datum::Int(1), Datum::from_text("a")]]);
    }

    #[test]
    fn restore_recreates_prepared_transactions() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY)");
        let meta = e.table_meta("t").unwrap();
        let xid = e.txns.begin();
        e.wal.append(WalRecord::Begin { xid });
        let rid = e.store(meta.id).unwrap().heap().unwrap().insert(xid, vec![Datum::Int(7)]);
        e.wal.append(WalRecord::Insert { xid, table: meta.id, row_id: rid, row: vec![Datum::Int(7)] });
        e.txns.prepare(xid, "gid_7").unwrap();
        e.wal.append(WalRecord::Prepare { xid, gid: "gid_7".into() });

        let standby = Engine::restore_from_wal(&e.wal.all(), None).unwrap();
        assert_eq!(standby.txns.prepared_gids(), vec!["gid_7".to_string()]);
        // invisible until commit prepared
        let snap = standby.txns.snapshot(INVALID_XID);
        let meta2 = standby.table_meta("t").unwrap();
        let mut n = 0;
        standby
            .store(meta2.id)
            .unwrap()
            .heap()
            .unwrap()
            .scan_visible(&standby.txns, &snap, |_| n += 1);
        assert_eq!(n, 0);
        let xid2 = standby.txns.finish_prepared("gid_7", true).unwrap();
        standby.locks.release_all(xid2);
        let snap = standby.txns.snapshot(INVALID_XID);
        let mut n = 0;
        standby
            .store(meta2.id)
            .unwrap()
            .heap()
            .unwrap()
            .scan_visible(&standby.txns, &snap, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn restore_composes_across_repeated_failovers() {
        // restore(wal(restore(wal))) == restore(wal): the promoted standby's
        // WAL must carry the replayed history forward, or a second crash
        // silently loses everything committed before the first one
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY, v text)");
        let meta = e.table_meta("t").unwrap();
        for v in 1..=3i64 {
            let xid = e.txns.begin();
            e.wal.append(WalRecord::Begin { xid });
            let row = vec![Datum::Int(v), Datum::from_text("x")];
            let rid = e.store(meta.id).unwrap().heap().unwrap().insert(xid, row.clone());
            e.wal.append(WalRecord::Insert { xid, table: meta.id, row_id: rid, row });
            e.txns.commit(xid);
            e.wal.append(WalRecord::Commit { xid });
        }
        let visible = |eng: &Engine| {
            let meta = eng.table_meta("t").unwrap();
            let snap = eng.txns.snapshot(INVALID_XID);
            let mut rows: Vec<Row> = Vec::new();
            eng.store(meta.id)
                .unwrap()
                .heap()
                .unwrap()
                .scan_visible(&eng.txns, &snap, |t| rows.push(t.data.clone()));
            rows.sort_by_key(|r| r[0].as_i64().unwrap());
            rows
        };
        let first = Engine::restore_from_wal(&e.wal.all(), None).unwrap();
        assert_eq!(visible(&first).len(), 3);
        let second = Engine::restore_from_wal(&first.wal.all(), None).unwrap();
        assert_eq!(visible(&second), visible(&first), "second failover lost committed rows");
        // and new commits on the standby extend its WAL without clashing
        // with the replayed xids
        let meta1 = first.table_meta("t").unwrap();
        let xid = first.txns.begin();
        first.wal.append(WalRecord::Begin { xid });
        let row = vec![Datum::Int(4), Datum::from_text("y")];
        let rid = first.store(meta1.id).unwrap().heap().unwrap().insert(xid, row.clone());
        first.wal.append(WalRecord::Insert { xid, table: meta1.id, row_id: rid, row });
        first.txns.commit(xid);
        first.wal.append(WalRecord::Commit { xid });
        let third = Engine::restore_from_wal(&first.wal.all(), None).unwrap();
        assert_eq!(visible(&third).len(), 4);
    }

    #[test]
    fn restore_point_cuts_the_stream() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint PRIMARY KEY)");
        let meta = e.table_meta("t").unwrap();
        let mk = |v: i64| {
            let xid = e.txns.begin();
            let rid = e.store(meta.id).unwrap().heap().unwrap().insert(xid, vec![Datum::Int(v)]);
            e.wal.append(WalRecord::Insert { xid, table: meta.id, row_id: rid, row: vec![Datum::Int(v)] });
            e.txns.commit(xid);
            e.wal.append(WalRecord::Commit { xid });
        };
        mk(1);
        e.wal.append(WalRecord::RestorePoint { name: "rp".into() });
        mk(2);
        let upto = e.wal.restore_point("rp").unwrap();
        let standby = Engine::restore_from_wal(&e.wal.all(), Some(upto)).unwrap();
        let meta2 = standby.table_meta("t").unwrap();
        let snap = standby.txns.snapshot(INVALID_XID);
        let mut n = 0;
        standby
            .store(meta2.id)
            .unwrap()
            .heap()
            .unwrap()
            .scan_visible(&standby.txns, &snap, |_| n += 1);
        assert_eq!(n, 1, "row written after the restore point must not appear");
    }

    #[test]
    fn columnar_conversion() {
        let e = Engine::new_default();
        create(&e, "CREATE TABLE t (id bigint, v float)");
        e.set_columnar("t").unwrap();
        let meta = e.table_meta("t").unwrap();
        assert_eq!(meta.storage, Storage::Columnar);
        assert!(e.store(meta.id).unwrap().heap().is_err());
    }
}
