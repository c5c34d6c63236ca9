//! Property tests on the engine's core data structures and invariants.

use pgmini::types::{datum::hash_row, text_ops, Datum, Json, SortKey};
use proptest::prelude::*;

fn arb_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Int),
        (-1e12..1e12f64).prop_map(Datum::Float),
        "[a-zA-Z0-9 _-]{0,16}".prop_map(Datum::text::<String>),
        (-4_000_000_000_000i64..4_000_000_000_000i64).prop_map(Datum::Timestamp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `total_cmp` is a total order: antisymmetric and transitive (checked
    /// through sort stability), with NULLs last.
    #[test]
    fn datum_total_order(mut v in prop::collection::vec(arb_datum(), 0..20)) {
        v.sort_by(|a, b| a.total_cmp(b));
        for w in v.windows(2) {
            prop_assert_ne!(w[0].total_cmp(&w[1]), std::cmp::Ordering::Greater);
        }
        // nulls sort last
        if let Some(first_null) = v.iter().position(Datum::is_null) {
            prop_assert!(v[first_null..].iter().all(Datum::is_null));
        }
    }

    /// Equal datums hash equally (incl. Int/Float cross-type equality).
    #[test]
    fn hash_respects_equality(a in any::<i32>()) {
        let i = Datum::Int(a as i64);
        let f = Datum::Float(a as f64);
        prop_assert_eq!(i.sql_cmp(&f), Some(std::cmp::Ordering::Equal));
        prop_assert_eq!(i.hash64(), f.hash64());
    }

    /// Row hashing is deterministic and order-sensitive.
    #[test]
    fn row_hash_deterministic(v in prop::collection::vec(arb_datum(), 1..6)) {
        prop_assert_eq!(hash_row(&v), hash_row(&v));
    }

    /// SortKey ordering agrees with element-wise total_cmp.
    #[test]
    fn sortkey_agrees_with_elementwise(a in arb_datum(), b in arb_datum()) {
        let ka = SortKey(vec![a.clone()]);
        let kb = SortKey(vec![b.clone()]);
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b));
    }

    /// LIKE: every string matches '%', and a string always matches itself
    /// (when it contains no metacharacters).
    #[test]
    fn like_identities(s in "[a-z0-9 ]{0,20}") {
        prop_assert!(text_ops::like_match(&s, "%", false));
        prop_assert!(text_ops::like_match(&s, &s, false));
        prop_assert!(text_ops::like_match(&s.to_uppercase(), &s, true));
        // '%s%' matches any superstring
        let pattern = format!("%{s}%");
        let superstring = format!("xx{s}yy");
        prop_assert!(text_ops::like_match(&superstring, &pattern, false));
    }

    /// The GIN pruning invariant: every trigram required by a LIKE pattern
    /// occurs in any matching document's trigram set (no false negatives).
    #[test]
    fn gin_pruning_no_false_negatives(
        needle in "[a-z]{3,8}",
        prefix in "[a-z ]{0,8}",
        suffix in "[a-z ]{0,8}",
    ) {
        let doc = format!("{prefix}{needle}{suffix}");
        let pattern = format!("%{needle}%");
        prop_assert!(text_ops::like_match(&doc, &pattern, false));
        if let Some(required) = text_ops::required_trigrams_for_like(&pattern) {
            let doc_grams = text_ops::trigrams(&doc);
            for g in required {
                prop_assert!(doc_grams.contains(&g), "missing {g:?} for doc {doc:?}");
            }
        }
    }

    /// JSON display → parse is the identity.
    #[test]
    fn json_roundtrip(pairs in prop::collection::vec(("[a-z]{1,6}", -1000..1000i64), 0..6)) {
        let j = Json::Object(
            pairs.into_iter().map(|(k, v)| (k, Json::Number(v as f64))).collect(),
        );
        let text = j.to_string();
        prop_assert_eq!(Json::parse(&text).unwrap(), j);
    }

    /// Timestamp parse/format roundtrip over a wide date range.
    #[test]
    fn timestamp_roundtrip(days in -100_000..100_000i64, secs in 0..86_400i64) {
        use pgmini::types::time;
        let micros = days * time::MICROS_PER_DAY + secs * time::MICROS_PER_SEC;
        let text = time::format_timestamp(micros);
        prop_assert_eq!(time::parse_timestamp(&text), Some(micros));
    }

    /// WAL encode/decode is the identity on insert records.
    #[test]
    fn wal_record_roundtrip(row in prop::collection::vec(arb_datum(), 0..5), xid in 1..10_000u64) {
        use pgmini::wal::{decode_record, encode_record, WalRecord};
        let rec = WalRecord::Insert {
            xid,
            table: pgmini::catalog::TableId(7),
            row_id: xid * 3,
            row,
        };
        prop_assert_eq!(decode_record(encode_record(&rec)).unwrap(), rec);
    }

    /// Buffer pool never exceeds capacity and never reports more misses
    /// than pages requested.
    #[test]
    fn buffer_pool_invariants(
        cap in 1..500u64,
        scans in prop::collection::vec((0..20u32, 1..200u64), 1..30),
    ) {
        use pgmini::buffer::{BufferKey, BufferPool};
        let pool = BufferPool::new(cap);
        for (t, pages) in scans {
            let misses = pool.scan(BufferKey::Table(t), pages);
            prop_assert!(misses <= pages);
            prop_assert!(pool.total_resident() <= cap);
        }
    }
}
