//! Distribution metadata — the `pg_dist_partition` / `pg_dist_shard` /
//! `pg_dist_placement` / `pg_dist_colocation` catalogs of the paper (§3.3).
//!
//! Distributed tables are hash-partitioned on a 32-bit hash space into
//! shards that each own a contiguous hash range; co-located tables share a
//! colocation group, which guarantees equal ranges land on equal nodes.

use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::types::Datum;
use std::collections::HashMap;

/// A node in the cluster. Node 0 is the original coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A logical shard id. Starts at 102008 like real Citus clusters do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u64);

pub const FIRST_SHARD_ID: u64 = 102_008;

/// How a citrus table is partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Hash-partitioned on a distribution column.
    Hash,
    /// Replicated to every node.
    Reference,
}

/// One shard of a distributed table.
#[derive(Debug, Clone)]
pub struct Shard {
    pub id: ShardId,
    pub table: String,
    /// Inclusive hash range `[min_hash, max_hash]` on the 32-bit hash space.
    /// Reference tables use the full range.
    pub min_hash: u32,
    pub max_hash: u32,
    /// Nodes holding this shard. One for distributed tables; all nodes for
    /// reference tables.
    pub placements: Vec<NodeId>,
}

impl Shard {
    /// Physical table name of this shard on its placement node(s).
    pub fn physical_name(&self) -> String {
        format!("{}_{}", self.table, self.id.0)
    }
}

/// Metadata of one citrus table.
#[derive(Debug, Clone)]
pub struct DistTable {
    pub name: String,
    pub method: PartitionMethod,
    /// Distribution column name and position (None for reference tables).
    pub dist_column: Option<(String, usize)>,
    pub colocation_id: u32,
    /// Shard ids in hash-range order.
    pub shards: Vec<ShardId>,
    /// Shard placements use columnar storage (`USING columnar` shells). The
    /// pushdown planner prefers aggregate-split worker queries for these, so
    /// a worker's aggregate folds its columnar scan's batches whole.
    pub columnar: bool,
}

impl DistTable {
    pub fn is_reference(&self) -> bool {
        self.method == PartitionMethod::Reference
    }
}

/// Cluster-wide distribution metadata (the coordinator's catalogs; with MX
/// metadata syncing every node shares this view).
#[derive(Debug, Default, Clone)]
pub struct Metadata {
    tables: HashMap<String, DistTable>,
    shards: HashMap<ShardId, Shard>,
    next_shard: u64,
    next_colocation: u32,
    /// Bumped on every placement-visible change (DDL, distribution, shard
    /// moves). Cached distributed plans carry the generation they were built
    /// under and are discarded when it no longer matches.
    generation: u64,
    /// Generation observer: table name → the generation at which that
    /// table's placements or schema last changed. MX sessions stamp the
    /// generation they planned against and use this to tell a *conflicting*
    /// bump (a table their transaction touched changed — abort with a
    /// retryable serialization failure) from a non-conflicting one (escalate
    /// to the coordinator path and keep going).
    changed: HashMap<String, u64>,
}

impl Metadata {
    pub fn new() -> Self {
        Metadata {
            tables: HashMap::new(),
            shards: HashMap::new(),
            next_shard: FIRST_SHARD_ID,
            next_colocation: 1,
            generation: 0,
            changed: HashMap::new(),
        }
    }

    /// Current metadata generation (plan-cache invalidation token).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record a placement/schema change of `table`: bump the generation and
    /// remember which table moved it (the generation observer).
    fn note_change(&mut self, table: &str) {
        self.generation += 1;
        self.changed.insert(table.to_string(), self.generation);
    }

    /// Observer entry point for propagated DDL (CREATE INDEX, TRUNCATE):
    /// worker plan caches key on the generation, so a remote bump recorded
    /// here invalidates them cluster-wide.
    pub fn note_ddl(&mut self, table: &str) {
        self.note_change(table);
    }

    /// Has `table` changed since the observer generation `since`? Drives the
    /// conflicting/non-conflicting split of the MX fence.
    pub fn changed_since(&self, table: &str, since: u64) -> bool {
        self.changed.get(table).is_some_and(|&g| g > since)
    }

    pub fn is_citrus_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table(&self, name: &str) -> Option<&DistTable> {
        self.tables.get(name)
    }

    pub fn require_table(&self, name: &str) -> PgResult<&DistTable> {
        self.tables.get(name).ok_or_else(|| {
            PgError::new(ErrorCode::UndefinedTable, format!("\"{name}\" is not a citrus table"))
        })
    }

    /// The physical name of reference table `name`'s one shard: what a
    /// statement that reads it on a placement names instead.
    pub fn reference_shard_name(&self, name: &str) -> Option<String> {
        let t = self.table(name).filter(|t| t.is_reference())?;
        self.shards.get(t.shards.first()?).map(Shard::physical_name)
    }

    pub fn shard(&self, id: ShardId) -> PgResult<&Shard> {
        self.shards
            .get(&id)
            .ok_or_else(|| PgError::internal(format!("unknown shard {}", id.0)))
    }

    pub fn shard_mut(&mut self, id: ShardId) -> PgResult<&mut Shard> {
        // mutable shard access can move placements — invalidate cached plans
        // and record which table's placements moved for the MX fence
        match self.shards.get(&id).map(|s| s.table.clone()) {
            Some(table) => self.note_change(&table),
            None => self.generation += 1,
        }
        self.shards
            .get_mut(&id)
            .ok_or_else(|| PgError::internal(format!("unknown shard {}", id.0)))
    }

    pub fn tables(&self) -> impl Iterator<Item = &DistTable> {
        self.tables.values()
    }

    pub fn allocate_colocation_id(&mut self) -> u32 {
        let id = self.next_colocation;
        self.next_colocation += 1;
        id
    }

    /// Tables sharing a colocation group, sorted by name.
    pub fn colocated_tables(&self, colocation_id: u32) -> Vec<&DistTable> {
        let mut v: Vec<&DistTable> =
            self.tables.values().filter(|t| t.colocation_id == colocation_id).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Register a hash-distributed table with `shard_count` shards placed
    /// round-robin over `nodes` (or aligned with `align_with`'s placements
    /// for co-location).
    #[allow(clippy::too_many_arguments)]
    pub fn add_hash_table(
        &mut self,
        name: &str,
        dist_column: &str,
        dist_col_index: usize,
        shard_count: u32,
        nodes: &[NodeId],
        colocation_id: u32,
        align_with: Option<&str>,
    ) -> PgResult<Vec<ShardId>> {
        if self.tables.contains_key(name) {
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("table \"{name}\" is already distributed"),
            ));
        }
        if nodes.is_empty() {
            return Err(PgError::internal("no nodes to place shards on"));
        }
        let placements: Vec<Vec<NodeId>> = match align_with {
            Some(other) => {
                let other_meta = self.require_table(other)?;
                let other_shards = other_meta.shards.clone();
                if other_shards.len() != shard_count as usize {
                    return Err(PgError::new(
                        ErrorCode::InvalidParameter,
                        "colocate_with target has a different shard count",
                    ));
                }
                other_shards
                    .iter()
                    .map(|sid| Ok(self.shard(*sid)?.placements.clone()))
                    .collect::<PgResult<_>>()?
            }
            None => (0..shard_count)
                .map(|i| vec![nodes[i as usize % nodes.len()]])
                .collect(),
        };
        let ranges = hash_ranges(shard_count);
        self.note_change(name);
        let mut ids = Vec::with_capacity(shard_count as usize);
        for (i, (min_hash, max_hash)) in ranges.into_iter().enumerate() {
            let id = ShardId(self.next_shard);
            self.next_shard += 1;
            self.shards.insert(
                id,
                Shard {
                    id,
                    table: name.to_string(),
                    min_hash,
                    max_hash,
                    placements: placements[i].clone(),
                },
            );
            ids.push(id);
        }
        self.tables.insert(
            name.to_string(),
            DistTable {
                name: name.to_string(),
                method: PartitionMethod::Hash,
                dist_column: Some((dist_column.to_string(), dist_col_index)),
                colocation_id,
                shards: ids.clone(),
                columnar: false,
            },
        );
        Ok(ids)
    }

    /// Mark a distributed table's placements as columnar (recorded after
    /// registration, from the shell table's access method).
    pub fn mark_columnar(&mut self, name: &str) -> PgResult<()> {
        self.note_change(name);
        match self.tables.get_mut(name) {
            Some(t) => {
                t.columnar = true;
                Ok(())
            }
            None => Err(PgError::internal(format!("mark_columnar: unknown table {name}"))),
        }
    }

    /// Register a reference table replicated to `nodes`.
    pub fn add_reference_table(&mut self, name: &str, nodes: &[NodeId]) -> PgResult<ShardId> {
        if self.tables.contains_key(name) {
            return Err(PgError::new(
                ErrorCode::DuplicateObject,
                format!("table \"{name}\" is already distributed"),
            ));
        }
        let id = ShardId(self.next_shard);
        self.next_shard += 1;
        self.note_change(name);
        self.shards.insert(
            id,
            Shard {
                id,
                table: name.to_string(),
                min_hash: 0,
                max_hash: u32::MAX,
                placements: nodes.to_vec(),
            },
        );
        self.tables.insert(
            name.to_string(),
            DistTable {
                name: name.to_string(),
                method: PartitionMethod::Reference,
                dist_column: None,
                colocation_id: 0,
                shards: vec![id],
                columnar: false,
            },
        );
        Ok(id)
    }

    pub fn drop_table(&mut self, name: &str) -> PgResult<Vec<Shard>> {
        let meta = self.tables.remove(name).ok_or_else(|| {
            PgError::new(ErrorCode::UndefinedTable, format!("\"{name}\" is not a citrus table"))
        })?;
        self.note_change(name);
        Ok(meta
            .shards
            .iter()
            .filter_map(|sid| self.shards.remove(sid))
            .collect())
    }

    /// Add a new reference-table placement (reference tables replicate to
    /// new nodes when the cluster grows).
    pub fn add_reference_placement(&mut self, table: &str, node: NodeId) -> PgResult<()> {
        let sid = self.require_table(table)?.shards[0];
        let shard = self.shard_mut(sid)?;
        if !shard.placements.contains(&node) {
            shard.placements.push(node);
        }
        Ok(())
    }

    /// Shard index (bucket) of a distribution value in this table's group.
    pub fn shard_index_for_value(&self, table: &str, value: &Datum) -> PgResult<usize> {
        let meta = self.require_table(table)?;
        Ok(bucket_of(dist_hash(value), meta.shards.len()))
    }

    /// The node holding the live placement for distribution value `value`
    /// of hash-distributed `table` (MX session routing).
    pub fn node_for_key(&self, table: &str, value: &Datum) -> PgResult<NodeId> {
        let idx = self.shard_index_for_value(table, value)?;
        let meta = self.require_table(table)?;
        let sid = meta.shards.get(idx).copied().ok_or_else(|| {
            PgError::internal(format!("bucket {idx} out of range for {table}"))
        })?;
        self.shard(sid)?
            .placements
            .first()
            .copied()
            .ok_or_else(|| PgError::internal("shard has no placements"))
    }

    /// Per-node shard counts for a colocation group (rebalancer input).
    pub fn placement_counts(&self, nodes: &[NodeId]) -> HashMap<NodeId, usize> {
        let mut counts: HashMap<NodeId, usize> =
            nodes.iter().map(|n| (*n, 0)).collect();
        for s in self.shards.values() {
            if let Some(meta) = self.tables.get(&s.table) {
                if meta.is_reference() {
                    continue;
                }
            }
            for p in &s.placements {
                *counts.entry(*p).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// The 32-bit distribution hash of a datum (lower half of the engine hash —
/// shared with hash joins, so co-location agrees with equality).
pub fn dist_hash(value: &Datum) -> u32 {
    (value.hash64() & 0xFFFF_FFFF) as u32
}

/// Width of each of `n` equal hash ranges over the 32-bit space.
fn bucket_width(n: u64) -> u64 {
    (u32::MAX as u64 + 1) / n
}

/// The bucket of hash `h` among `n` equal ranges (`n` of 0 counts as 1):
/// the index of the [`hash_ranges`] entry holding `h`.
pub fn bucket_of(h: u32, n: usize) -> usize {
    let n = n.max(1) as u64;
    ((h as u64) / bucket_width(n)).min(n - 1) as usize
}

/// Contiguous, equal, inclusive hash ranges covering the 32-bit space.
pub fn hash_ranges(shard_count: u32) -> Vec<(u32, u32)> {
    let n = shard_count.max(1) as u64;
    let width = bucket_width(n);
    (0..n)
        .map(|i| {
            let lo = i * width;
            let hi = if i == n - 1 { u32::MAX as u64 } else { (i + 1) * width - 1 };
            (lo as u32, hi as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn hash_ranges_cover_space() {
        for count in [1u32, 2, 3, 7, 32] {
            let ranges = hash_ranges(count);
            assert_eq!(ranges.len(), count as usize);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, u32::MAX);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1 as u64 + 1, w[1].0 as u64, "contiguous");
            }
        }
    }

    #[test]
    fn add_hash_table_round_robin() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        let ids = m.add_hash_table("orders", "o_id", 0, 8, &nodes(4), cid, None).unwrap();
        assert_eq!(ids.len(), 8);
        assert_eq!(ids[0].0, FIRST_SHARD_ID);
        // round robin placement
        let counts = m.placement_counts(&nodes(4));
        for n in nodes(4) {
            assert_eq!(counts[&n], 2);
        }
        assert_eq!(m.shard(ids[3]).unwrap().physical_name(), format!("orders_{}", ids[3].0));
    }

    #[test]
    fn colocation_aligns_placements() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("a", "k", 0, 8, &nodes(3), cid, None).unwrap();
        m.add_hash_table("b", "k", 1, 8, &nodes(3), cid, Some("a")).unwrap();
        let a = m.table("a").unwrap().shards.clone();
        let b = m.table("b").unwrap().shards.clone();
        for (sa, sb) in a.iter().zip(&b) {
            let pa = &m.shard(*sa).unwrap().placements;
            let pb = &m.shard(*sb).unwrap().placements;
            assert_eq!(pa, pb, "co-located shards share nodes");
            assert_eq!(m.shard(*sa).unwrap().min_hash, m.shard(*sb).unwrap().min_hash);
        }
        assert_eq!(m.colocated_tables(cid).len(), 2);
        // shard-count mismatch is rejected
        assert!(m.add_hash_table("c", "k", 0, 4, &nodes(3), cid, Some("a")).is_err());
    }

    #[test]
    fn shard_for_hash_matches_ranges() {
        for n in [1, 3, 32] {
            for (i, (lo, hi)) in hash_ranges(n).into_iter().enumerate() {
                assert_eq!((bucket_of(lo, n as usize), bucket_of(hi, n as usize)), (i, i));
            }
        }
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("t", "k", 0, 32, &nodes(4), cid, None).unwrap();
        for v in [0i64, 1, -5, 42, 1_000_000, i64::MAX] {
            let d = Datum::Int(v);
            let h = dist_hash(&d);
            let idx = m.shard_index_for_value("t", &d).unwrap();
            let s = m.shard(m.table("t").unwrap().shards[idx]).unwrap();
            assert!(s.min_hash <= h && h <= s.max_hash);
        }
    }

    #[test]
    fn same_value_same_shard_index_across_colocated_tables() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("a", "k", 0, 16, &nodes(4), cid, None).unwrap();
        m.add_hash_table("b", "k", 0, 16, &nodes(4), cid, Some("a")).unwrap();
        for v in 0..200 {
            let d = Datum::Int(v);
            assert_eq!(
                m.shard_index_for_value("a", &d).unwrap(),
                m.shard_index_for_value("b", &d).unwrap()
            );
        }
    }

    #[test]
    fn reference_tables_replicate_everywhere() {
        let mut m = Metadata::new();
        let sid = m.add_reference_table("dims", &nodes(4)).unwrap();
        let s = m.shard(sid).unwrap();
        assert_eq!(s.placements.len(), 4);
        assert!(m.table("dims").unwrap().is_reference());
        // adding a node extends placements
        m.add_reference_placement("dims", NodeId(9)).unwrap();
        assert_eq!(m.shard(sid).unwrap().placements.len(), 5);
        // reference shards are excluded from balance counts
        assert!(m.placement_counts(&nodes(4)).values().all(|&c| c == 0));
    }

    #[test]
    fn duplicate_distribution_rejected() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("t", "k", 0, 4, &nodes(2), cid, None).unwrap();
        assert!(m.add_hash_table("t", "k", 0, 4, &nodes(2), cid, None).is_err());
        assert!(m.add_reference_table("t", &nodes(2)).is_err());
    }

    #[test]
    fn drop_removes_shards() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        let ids = m.add_hash_table("t", "k", 0, 4, &nodes(2), cid, None).unwrap();
        let dropped = m.drop_table("t").unwrap();
        assert_eq!(dropped.len(), 4);
        assert!(!m.is_citrus_table("t"));
        assert!(m.shard(ids[0]).is_err());
    }

    #[test]
    fn dist_hash_is_type_class_compatible() {
        // Int and equal-valued Float hash identically (auto-colocation by
        // distribution-column type works across int/float literals)
        assert_eq!(dist_hash(&Datum::Int(7)), dist_hash(&Datum::Float(7.0)));
        assert_ne!(dist_hash(&Datum::Int(7)), dist_hash(&Datum::Int(8)));
    }
}
