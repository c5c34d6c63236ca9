//! Value types: datums, JSON, text operators, civil time math, and the
//! hashed key table of the executor's keyed operators.

pub mod datum;
pub mod json;
pub mod key_table;
pub mod text_ops;
pub mod time;

pub use datum::{hash_bytes, hash_row, splitmix64, Datum, DatumRef, Row, SortKey};
pub use json::Json;
pub use key_table::KeyTable;
