//! Table lifecycle: `create_distributed_table` / `create_reference_table`
//! (§3.3) — converting regular tables into citrus tables by creating shards
//! on the workers and registering distribution metadata.
//!
//! Mirrors Citus semantics: the original table stays behind as an empty
//! shell (the planner hook intercepts it from now on); existing rows move to
//! the shards; co-location is explicit via `colocate_with` or automatic by
//! distribution-column type; foreign keys propagate shard-pair-wise between
//! co-located tables and shard-to-replica for reference tables.

use crate::cluster::{Cluster, WorkerConn};
use crate::metadata::{NodeId, PartitionMethod, ShardId};
use netsim::pipeline::WireRound;
use pgmini::catalog::TableMeta;
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::Session;
use pgmini::txn::INVALID_XID;
use pgmini::types::Row;
use sqlparse::ast::{CreateIndex, CreateTable, Expr, Statement, TableConstraint};
use std::sync::Arc;

/// Validate + auto-colocation: pick the colocation group for a new table.
fn resolve_colocation(
    cluster: &Arc<Cluster>,
    dist_col_type: sqlparse::ast::TypeName,
    shard_count: u32,
    colocate_with: Option<&str>,
) -> PgResult<(u32, Option<String>)> {
    let meta = cluster.metadata.read_recursive();
    match colocate_with {
        // 'none' forces a fresh colocation group (no auto co-location)
        Some("none") => Ok((0, None)),
        Some(other) => {
            let dt = meta.require_table(other)?;
            if dt.is_reference() {
                return Err(PgError::new(
                    ErrorCode::InvalidParameter,
                    "cannot co-locate with a reference table",
                ));
            }
            Ok((dt.colocation_id, Some(other.to_string())))
        }
        None => {
            // automatic co-location by distribution column type (§3.3.2)
            let coordinator = cluster.node(NodeId(0))?.engine();
            for dt in meta.tables() {
                if dt.is_reference() || dt.shards.len() != shard_count as usize {
                    continue;
                }
                let Some((col, _)) = &dt.dist_column else { continue };
                if let Ok(shell) = coordinator.table_meta(&dt.name) {
                    if let Some(i) = shell.column_index(col) {
                        if shell.columns[i].ty == dist_col_type {
                            return Ok((dt.colocation_id, Some(dt.name.clone())));
                        }
                    }
                }
            }
            Ok((0, None)) // caller allocates a fresh id
        }
    }
}

/// Convert a regular table into a hash-distributed table.
pub fn create_distributed_table(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    table: &str,
    dist_column: &str,
    colocate_with: Option<&str>,
) -> PgResult<()> {
    let engine = session.engine().clone();
    let shell = engine.table_meta(table)?;
    let dist_idx = shell
        .column_index(dist_column)
        .ok_or_else(|| PgError::undefined_column(dist_column))?;
    {
        let meta = cluster.metadata.read_recursive();
        if meta.is_citrus_table(table) {
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("table \"{table}\" is already distributed"),
            ));
        }
    }
    // the rows move inside the session's transaction, but the metadata
    // change and the emptied shell cannot roll back with it
    if session.in_transaction_block() && engine.store(shell.id)?.live_estimate() > 0 {
        return Err(PgError::new(
            ErrorCode::ActiveSqlTransaction,
            format!("cannot distribute \"{table}\", which has rows, inside a transaction block"),
        ));
    }
    for iid in &shell.indexes {
        let index = engine.index_meta(*iid)?;
        if index.unique {
            check_unique_key(table, &index.exprs, dist_column)?;
        }
    }
    let shard_count = cluster.config.shard_count;
    let (mut colocation_id, align_with) = resolve_colocation(
        cluster,
        shell.columns[dist_idx].ty,
        shard_count,
        colocate_with,
    )?;

    // validate foreign keys before touching metadata
    let fk_infos = validate_foreign_keys(cluster, &engine, &shell, dist_idx, colocation_id, &align_with)?;

    let nodes = cluster.worker_ids();
    let shard_ids = {
        let mut meta = cluster.metadata.write();
        if colocation_id == 0 {
            colocation_id = meta.allocate_colocation_id();
        }
        let ids = meta.add_hash_table(
            table,
            dist_column,
            dist_idx,
            shard_count,
            &nodes,
            colocation_id,
            align_with.as_deref(),
        )?;
        if matches!(shell.storage, pgmini::catalog::Storage::Columnar) {
            meta.mark_columnar(table)?;
        }
        ids
    };

    // create the physical shards (plus their indexes and FKs)
    let result = create_shards(cluster, &engine, table, &shard_ids, &fk_infos);
    if let Err(e) = result {
        // roll the metadata back so the failure is clean
        let _ = cluster.metadata.write().drop_table(table);
        return Err(e);
    }

    // move any existing rows into the shards, then empty the shell
    move_existing_rows(cluster, session, table, &shell)?;
    Ok(())
}

/// Refuse a unique key of a distributed table that does not include its
/// distribution column as a plain column: each shard could only enforce it
/// over its own rows. Citus refuses the same keys with the same SQLSTATE.
pub(crate) fn check_unique_key(table: &str, key: &[Expr], dist_column: &str) -> PgResult<()> {
    if key.iter().any(|e| matches!(e, Expr::Column { name, .. } if name == dist_column)) {
        return Ok(());
    }
    Err(PgError::unsupported(format!(
        "cannot create constraint on \"{table}\": distributed relations cannot have UNIQUE \
         or PRIMARY KEY constraints that do not include the distribution column \"{dist_column}\""
    )))
}

/// Per-FK info resolved at validation time.
struct FkInfo {
    columns: Vec<String>,
    ref_table: String,
    ref_columns: Vec<String>,
    /// Reference tables map to one replica name; distributed map per bucket.
    ref_is_reference: bool,
}

fn validate_foreign_keys(
    cluster: &Arc<Cluster>,
    engine: &Arc<pgmini::engine::Engine>,
    shell: &TableMeta,
    dist_idx: usize,
    colocation_id: u32,
    align_with: &Option<String>,
) -> PgResult<Vec<FkInfo>> {
    let meta = cluster.metadata.read_recursive();
    let mut out = Vec::new();
    for fk in &shell.foreign_keys {
        let ref_meta = engine.table_meta_by_id(fk.ref_table)?;
        let Some(ref_dt) = meta.table(&ref_meta.name) else {
            return Err(PgError::unsupported(format!(
                "foreign key to local table \"{}\" on a distributed table (distribute or \
                 make it a reference table first)",
                ref_meta.name
            )));
        };
        if ref_dt.is_reference() {
            out.push(FkInfo {
                columns: fk.columns.iter().map(|&i| shell.columns[i].name.clone()).collect(),
                ref_table: ref_meta.name.clone(),
                ref_columns: fk
                    .ref_columns
                    .iter()
                    .map(|&i| ref_meta.columns[i].name.clone())
                    .collect(),
                ref_is_reference: true,
            });
            continue;
        }
        // distributed → distributed FKs require co-location and must span
        // the distribution column
        let same_group = ref_dt.colocation_id == colocation_id
            || align_with.as_deref() == Some(ref_meta.name.as_str());
        if !same_group {
            return Err(PgError::unsupported(format!(
                "foreign key to distributed table \"{}\" requires co-location",
                ref_meta.name
            )));
        }
        if !fk.columns.contains(&dist_idx) {
            return Err(PgError::unsupported(
                "foreign keys between distributed tables must include the distribution column",
            ));
        }
        out.push(FkInfo {
            columns: fk.columns.iter().map(|&i| shell.columns[i].name.clone()).collect(),
            ref_table: ref_meta.name.clone(),
            ref_columns: fk
                .ref_columns
                .iter()
                .map(|&i| ref_meta.columns[i].name.clone())
                .collect(),
            ref_is_reference: false,
        });
    }
    Ok(out)
}

fn create_shards(
    cluster: &Arc<Cluster>,
    engine: &Arc<pgmini::engine::Engine>,
    table: &str,
    shard_ids: &[ShardId],
    fks: &[FkInfo],
) -> PgResult<()> {
    let meta = cluster.metadata.read_recursive();
    for (bucket, sid) in shard_ids.iter().enumerate() {
        let shard = meta.shard(*sid)?;
        let physical = shard.physical_name();
        let (mut create, indexes) =
            engine.table_schema(table, &physical, |index| format!("{index}_{}", sid.0))?;
        // foreign keys: per-bucket shard pairs / reference replicas
        for fk in fks {
            let ref_dt = meta.require_table(&fk.ref_table)?;
            let ref_bucket = if fk.ref_is_reference { 0 } else { bucket };
            create.constraints.push(TableConstraint::ForeignKey {
                columns: fk.columns.clone(),
                ref_table: meta.shard(ref_dt.shards[ref_bucket])?.physical_name(),
                ref_columns: fk.ref_columns.clone(),
            });
        }
        for &node in &shard.placements {
            create_over(&mut cluster.connect(node)?, &create, &indexes, Vec::new())?;
        }
    }
    Ok(())
}

/// Run a table's CREATE TABLE and CREATE INDEX statements over `conn`, then
/// load `rows` into it.
fn create_over(
    conn: &mut WorkerConn,
    create: &CreateTable,
    indexes: &[CreateIndex],
    rows: Vec<Row>,
) -> PgResult<()> {
    conn.execute_stmt(&Statement::CreateTable(Box::new(create.clone())))?;
    for index in indexes {
        conn.execute_stmt(&Statement::CreateIndex(Box::new(index.clone())))?;
    }
    if !rows.is_empty() {
        conn.copy_rows(&mut WireRound::new(), &create.name, &[], rows)?;
    }
    Ok(())
}

/// Move rows that existed before distribution into the shards.
fn move_existing_rows(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    table: &str,
    shell: &TableMeta,
) -> PgResult<()> {
    let engine = session.engine().clone();
    let store = engine.store(shell.id)?;
    if store.live_estimate() == 0 {
        return Ok(());
    }
    let snap = engine.txns.snapshot(INVALID_XID);
    let rows = store.scan_visible_rows(&engine.txns, &snap);
    let node = cluster.node_of_engine(&engine).unwrap_or(NodeId(0));
    cluster.extension(node)?.copy(session, table, &[], rows)?;
    // empty the shell; the planner hook owns the name from now on
    engine.truncate_table(table)?;
    Ok(())
}

/// Convert a regular table into a reference table replicated everywhere.
pub fn create_reference_table(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    table: &str,
) -> PgResult<()> {
    let engine = session.engine().clone();
    let shell = engine.table_meta(table)?;
    {
        let meta = cluster.metadata.read_recursive();
        if meta.is_citrus_table(table) {
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("table \"{table}\" is already distributed"),
            ));
        }
    }
    // reference tables live on every node, including the coordinator
    let nodes = cluster.node_ids();
    let sid = cluster.metadata.write().add_reference_table(table, &nodes)?;
    let physical = {
        let meta = cluster.metadata.read_recursive();
        meta.shard(sid)?.physical_name()
    };
    // every replica gets the shell's pre-existing rows
    let snap = engine.txns.snapshot(INVALID_XID);
    let rows = engine.store(shell.id)?.scan_visible_rows(&engine.txns, &snap);
    for node in &nodes {
        let (create, indexes) = engine
            .table_schema(table, &physical, |index| format!("{index}_{}_{}", sid.0, node.0))?;
        create_over(&mut cluster.connect(*node)?, &create, &indexes, rows.clone())?;
    }
    if !rows.is_empty() {
        engine.truncate_table(table)?;
    }
    Ok(())
}

/// Replicate every reference table to a freshly added node (called by
/// `add_worker`).
pub fn replicate_reference_tables_to(cluster: &Arc<Cluster>, node: NodeId) -> PgResult<()> {
    let ref_tables: Vec<(String, ShardId)> = {
        let meta = cluster.metadata.read_recursive();
        meta.tables()
            .filter(|t| t.method == PartitionMethod::Reference)
            .map(|t| (t.name.clone(), t.shards[0]))
            .collect()
    };
    for (name, sid) in ref_tables {
        let physical = {
            let meta = cluster.metadata.read_recursive();
            meta.shard(sid)?.physical_name()
        };
        // shell schema lives on the coordinator
        let coordinator = cluster.node(NodeId(0))?.engine();
        let (create, indexes) = coordinator
            .table_schema(&name, &physical, |index| format!("{index}_{}_{}", sid.0, node.0))?;
        // current contents come from the coordinator replica
        let store = coordinator.store(coordinator.table_meta(&physical)?.id)?;
        let snap = coordinator.txns.snapshot(INVALID_XID);
        let rows = store.scan_visible_rows(&coordinator.txns, &snap);
        create_over(&mut cluster.connect(node)?, &create, &indexes, rows)?;
        cluster.metadata.write().add_reference_placement(&name, node)?;
    }
    Ok(())
}
