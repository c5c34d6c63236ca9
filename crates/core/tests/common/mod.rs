//! Result normalisation shared by the differential test suites.

use pgmini::session::QueryResult;
use pgmini::types::Datum;

/// Normalize a datum so `Int(5)` and `Float(5.0)` (e.g. a sum computed
/// shard-local vs merged on the coordinator) compare equal.
pub fn datum_key(d: &Datum) -> String {
    if let Ok(i) = d.as_i64() {
        return i.to_string();
    }
    if let Ok(f) = d.as_f64() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            return (f as i64).to_string();
        }
        return format!("{f}");
    }
    format!("{d:?}")
}

/// Rows as comparable strings; sorted unless the query fixed an order.
pub fn row_keys(r: &QueryResult, ordered: bool) -> Vec<String> {
    let mut keys: Vec<String> = r
        .rows()
        .iter()
        .map(|row| row.iter().map(datum_key).collect::<Vec<_>>().join(","))
        .collect();
    if !ordered {
        keys.sort();
    }
    keys
}
