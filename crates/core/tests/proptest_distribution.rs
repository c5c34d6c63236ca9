//! Property tests on the distribution layer's invariants.

use citrus::metadata::{dist_hash, hash_ranges, Metadata, NodeId};
use citrus::planner::rewrite;
use pgmini::types::Datum;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hash ranges partition the 32-bit space: every hash belongs to exactly
    /// one range, for any shard count.
    #[test]
    fn hash_ranges_partition(count in 1..200u32, h in any::<u32>()) {
        let ranges = hash_ranges(count);
        let owners = ranges
            .iter()
            .filter(|(lo, hi)| *lo <= h && h <= *hi)
            .count();
        prop_assert_eq!(owners, 1);
    }

    /// The bucket-index shortcut agrees with the ranges for any value.
    #[test]
    fn bucket_index_matches_ranges(count in 1..64u32, v in any::<i64>()) {
        let mut meta = Metadata::new();
        let cid = meta.allocate_colocation_id();
        meta.add_hash_table("t", "k", 0, count, &[NodeId(1)], cid, None).unwrap();
        let d = Datum::Int(v);
        let idx = meta.shard_index_for_value("t", &d).unwrap();
        let shard = meta.shard(meta.table("t").unwrap().shards[idx]).unwrap();
        let h = dist_hash(&d);
        prop_assert!(shard.min_hash <= h && h <= shard.max_hash);
    }

    /// Co-located tables agree on the bucket for every value — the invariant
    /// the router planner and co-located joins are built on.
    #[test]
    fn colocation_agreement(count in 1..32u32, values in prop::collection::vec(any::<i64>(), 1..20)) {
        let mut meta = Metadata::new();
        let cid = meta.allocate_colocation_id();
        meta.add_hash_table("a", "k", 0, count, &[NodeId(1), NodeId(2)], cid, None).unwrap();
        meta.add_hash_table("b", "k", 0, count, &[NodeId(1), NodeId(2)], cid, Some("a")).unwrap();
        for v in values {
            let d = Datum::Int(v);
            let ia = meta.shard_index_for_value("a", &d).unwrap();
            let ib = meta.shard_index_for_value("b", &d).unwrap();
            prop_assert_eq!(ia, ib);
            // and the placements align
            let sa = meta.shard(meta.table("a").unwrap().shards[ia]).unwrap();
            let sb = meta.shard(meta.table("b").unwrap().shards[ib]).unwrap();
            prop_assert_eq!(&sa.placements, &sb.placements);
        }
    }

    /// Statement rewriting preserves parseability: rewrite → deparse → parse
    /// never fails, and rewriting with the identity map is the identity.
    /// A subquery over a second table sits in one clause of the statement:
    /// both tables are collected, and both are renamed wherever they sit.
    #[test]
    fn rewrite_preserves_parseability(
        table in "[a-z]{1,8}",
        other in "[a-z]{1,8}",
        col in "[a-z]{1,8}",
        key in any::<i32>(),
        clause in 0..12usize,
    ) {
        // suffixed, so that no name is a keyword and the two tables differ
        let (table, other, col) = (format!("{table}_a"), format!("{other}_b"), format!("{col}_c"));
        let sub = format!("(SELECT max({col}) FROM {other})");
        let point = format!("SELECT {col} FROM {table} WHERE {col} = {key}");
        let sql = match clause {
            0 => format!("SELECT {col}, {sub} FROM {table} WHERE {col} = {key}"),
            1 => format!("{point} AND {col} IN (SELECT {col} FROM {other})"),
            2 => format!("{point} GROUP BY {col}, {sub}"),
            3 => format!("{point} GROUP BY {col} HAVING count(*) > {sub}"),
            4 => format!("{point} ORDER BY {sub}"),
            5 => format!("{point} LIMIT {sub}"),
            6 => format!("{point} OFFSET {sub}"),
            7 => format!("SELECT {col} FROM {table} JOIN (SELECT {col} AS x FROM {other}) AS s \
                          ON {col} = s.x"),
            8 => format!("SELECT l.{col} FROM {table} AS l JOIN {table} AS r ON l.{col} = {sub}"),
            9 => format!("UPDATE {table} SET {col} = {sub} WHERE {col} = {key}"),
            10 => format!("INSERT INTO {table} VALUES ({key}, {sub})"),
            _ => format!("INSERT INTO {table} VALUES ({key}) ON CONFLICT ({col}) \
                          DO UPDATE SET {col} = {sub}"),
        };
        let stmt = sqlparse::parse(&sql).unwrap();
        let tables = rewrite::collect_tables(&stmt);
        prop_assert!(tables.contains(&table) && tables.contains(&other), "{sql}: {tables:?}");
        let same = rewrite::rewrite_statement(&stmt, &|_| None);
        prop_assert_eq!(&same, &stmt);
        let renamed = rewrite::rewrite_statement(&stmt, &|n| Some(format!("{n}_102008")));
        let text = sqlparse::deparse(&renamed);
        for name in [&table, &other] {
            for place in ["FROM", "JOIN", "INTO", "UPDATE"] {
                let named = text.matches(&format!("{place} {name}")).count();
                let renamed = text.matches(&format!("{place} {name}_102008")).count();
                prop_assert_eq!(named, renamed, "{} {} not renamed in {}", place, name, text);
            }
        }
        sqlparse::parse(&text).unwrap();
    }

    /// The slow-start scheduler never loses work: its makespan is at least
    /// the critical-path bound and at most the serial bound.
    #[test]
    fn slow_start_bounds(
        durations in prop::collection::vec(0.1f64..50.0, 1..40),
        existing in 1usize..8,
    ) {
        let (t, lanes) =
            citrus::executor::slow_start_schedule(&durations, 10.0, 15.0, 64, 16, existing);
        let serial: f64 = durations.iter().sum();
        let longest = durations.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(t <= serial + 1e-6, "never slower than serial: {t} vs {serial}");
        prop_assert!(t >= longest - 1e-6, "never faster than the longest task");
        prop_assert!(t >= serial / 16.0 - 1e-6, "never faster than the core bound");
        prop_assert!(lanes >= existing.min(64));
    }

    /// MVA throughput is monotone in clients and bounded by the bottleneck
    /// service rate, for arbitrary demand profiles.
    #[test]
    fn mva_bounds(
        cpu in 0.01f64..20.0,
        io in 0.0f64..20.0,
        clients in 1..300u32,
    ) {
        let stations = vec![
            netsim::Station::queueing("cpu", cpu, 16),
            netsim::Station::queueing("disk", io.max(0.001), 1),
        ];
        let r1 = netsim::solve(&stations, clients, 0.0);
        let r2 = netsim::solve(&stations, clients + 10, 0.0);
        prop_assert!(r2.throughput_per_sec >= r1.throughput_per_sec - 1e-6);
        let cap = 1000.0 / (cpu / 16.0).max(io.max(0.001));
        prop_assert!(r2.throughput_per_sec <= cap + 1e-6);
    }
}
