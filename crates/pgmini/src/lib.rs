//! pgmini: a single-node MVCC SQL engine — the PostgreSQL stand-in substrate
//! for the citrus reproduction of the Citus paper (SIGMOD 2021).
//!
//! Feature inventory (each maps to a PostgreSQL capability the paper's
//! distributed layer depends on):
//!
//! * MVCC heap storage with snapshots, row versioning, and vacuum;
//! * B-tree and trigram-GIN indexes (incl. expression and partial indexes);
//! * columnar storage for analytical tables;
//! * write-ahead log with restore points, byte encoding, and replay;
//! * blocking lock manager with a queryable wait-for graph;
//! * transactions with `PREPARE TRANSACTION` / `COMMIT PREPARED` (2PC halves);
//! * a volcano-style executor over the shared `sqlparse` ASTs;
//! * extension hooks (planner, utility, transaction callbacks, UDFs,
//!   background workers) — the exact surface the Citus paper describes in
//!   §3.1, through which the `citrus` crate changes engine behaviour without
//!   the engine knowing about it;
//! * a simulated buffer pool + cost model producing virtual-time measurements.

pub mod batch;
pub mod bgworker;
pub mod buffer;
pub mod catalog;
pub mod cost;
pub mod dml;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod hooks;
pub mod lock;
pub mod plan;
pub mod plancache;
pub mod session;
pub mod storage;
pub mod txn;
pub mod types;
pub mod wal;

pub use engine::{Engine, EngineConfig};
pub use error::{ErrorCode, PgError, PgResult};
pub use session::{QueryResult, Session};
pub use types::{Datum, Json, Row};
