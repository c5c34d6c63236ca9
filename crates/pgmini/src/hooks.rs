//! Extension hooks — the §3.1 surface of the paper.
//!
//! A PostgreSQL extension changes engine behaviour through a fixed set of
//! hook points; pgmini exposes the same ones the paper lists Citus using:
//!
//! * **planner hook** — intercept SELECT/DML before local planning;
//! * **utility hook** — intercept DDL, COPY, and other non-planned commands;
//! * **transaction callbacks** — pre-commit / post-commit / abort, used for
//!   two-phase commit orchestration;
//! * **UDFs** — registered on the engine (see `Engine::register_udf`), used
//!   for metadata manipulation and remote procedure calls;
//! * **background workers** — see [`crate::bgworker`].
//!
//! pgmini itself has zero knowledge of the distributed layer: the `citrus`
//! crate installs an implementation of [`Extension`] and takes over from
//! there, exactly as the real extension does.

use crate::error::PgResult;
use crate::session::{QueryResult, Session};
use sqlparse::ast::Statement;

/// An installed extension. All methods default to "not handled".
pub trait Extension: Send + Sync {
    /// Offered every SELECT/INSERT/UPDATE/DELETE before local planning.
    /// Return `Some(result)` to fully handle the statement.
    fn planner_hook(
        &self,
        _session: &mut Session,
        _stmt: &Statement,
    ) -> Option<PgResult<QueryResult>> {
        None
    }

    /// Offered every utility statement (DDL, COPY, TRUNCATE, VACUUM, SET)
    /// before built-in processing.
    fn utility_hook(
        &self,
        _session: &mut Session,
        _stmt: &Statement,
    ) -> Option<PgResult<QueryResult>> {
        None
    }

    /// Called inside COMMIT, before the local transaction commits. Returning
    /// an error aborts the local transaction (this is where 2PC prepares
    /// remote transactions and writes commit records).
    fn pre_commit(&self, _session: &mut Session) -> PgResult<()> {
        Ok(())
    }

    /// Called after the local transaction committed durably.
    fn post_commit(&self, _session: &mut Session) {}

    /// Called after the local transaction aborted.
    fn post_abort(&self, _session: &mut Session) {}

    /// Called when session `_sid` is dropped, after its open transaction (if
    /// any) rolled back: whatever the extension keeps per session goes now.
    fn session_closed(&self, _sid: u64) {}
}

/// Hook registry on an engine. A single extension slot is sufficient here
/// (the paper notes Citus and TimescaleDB conflict over hooks — a real
/// chain exists in PostgreSQL but one extension is all we install).
#[derive(Default)]
pub struct Hooks {
    extension: parking_lot::RwLock<Option<std::sync::Arc<dyn Extension>>>,
}

impl Hooks {
    pub fn install(&self, ext: std::sync::Arc<dyn Extension>) {
        *self.extension.write() = Some(ext);
    }

    pub fn installed(&self) -> Option<std::sync::Arc<dyn Extension>> {
        self.extension.read().clone()
    }
}
