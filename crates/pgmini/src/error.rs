//! Engine error type, modelled on PostgreSQL SQLSTATE classes.

use std::fmt;

/// Error classes the engine can raise. Each maps onto the PostgreSQL
/// SQLSTATE the corresponding condition would carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// 42601 — syntax error (from the shared parser).
    Syntax,
    /// 42P01 — relation does not exist.
    UndefinedTable,
    /// 42703 — column does not exist.
    UndefinedColumn,
    /// 42702 — a column reference matches more than one column.
    AmbiguousColumn,
    /// 42P07 — relation already exists.
    DuplicateObject,
    /// 23505 — unique constraint violation.
    UniqueViolation,
    /// 23503 — foreign key violation.
    ForeignKeyViolation,
    /// 23502 — NOT NULL violation.
    NotNullViolation,
    /// 40P01 — deadlock detected.
    DeadlockDetected,
    /// 40001 — serialization failure (e.g. a transaction fenced off by a
    /// concurrent metadata change; retrying the transaction can succeed).
    SerializationFailure,
    /// 57014 — query cancelled (e.g. by the distributed deadlock detector).
    QueryCanceled,
    /// 25xxx — invalid transaction state (e.g. COMMIT PREPARED of unknown gid).
    InvalidTransactionState,
    /// 25001 — the command cannot run inside a transaction block.
    ActiveSqlTransaction,
    /// 0A000 — feature not supported (e.g. correlated subqueries on shards).
    FeatureNotSupported,
    /// 22012 — division by zero.
    DivisionByZero,
    /// 22003 — numeric value out of range (a bigint result that does not fit).
    NumericValueOutOfRange,
    /// 22P02 — invalid text representation (bad cast input).
    InvalidText,
    /// 53300 — too many connections.
    TooManyConnections,
    /// 08006 — connection failure (node down in the simulated fabric).
    ConnectionFailure,
    /// 22023 — invalid parameter value.
    InvalidParameter,
    /// XX000 — internal error; indicates an engine bug.
    Internal,
}

impl ErrorCode {
    /// The PostgreSQL SQLSTATE for this condition.
    pub fn sqlstate(self) -> &'static str {
        match self {
            ErrorCode::Syntax => "42601",
            ErrorCode::UndefinedTable => "42P01",
            ErrorCode::UndefinedColumn => "42703",
            ErrorCode::AmbiguousColumn => "42702",
            ErrorCode::DuplicateObject => "42P07",
            ErrorCode::UniqueViolation => "23505",
            ErrorCode::ForeignKeyViolation => "23503",
            ErrorCode::NotNullViolation => "23502",
            ErrorCode::DeadlockDetected => "40P01",
            ErrorCode::SerializationFailure => "40001",
            ErrorCode::QueryCanceled => "57014",
            ErrorCode::InvalidTransactionState => "25000",
            ErrorCode::ActiveSqlTransaction => "25001",
            ErrorCode::FeatureNotSupported => "0A000",
            ErrorCode::DivisionByZero => "22012",
            ErrorCode::NumericValueOutOfRange => "22003",
            ErrorCode::InvalidText => "22P02",
            ErrorCode::TooManyConnections => "53300",
            ErrorCode::ConnectionFailure => "08006",
            ErrorCode::InvalidParameter => "22023",
            ErrorCode::Internal => "XX000",
        }
    }
}

/// An error raised by the engine, carrying its class and a human message.
#[derive(Debug, Clone, PartialEq)]
pub struct PgError {
    pub code: ErrorCode,
    pub message: String,
}

impl PgError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        PgError { code, message: message.into() }
    }

    pub fn undefined_table(name: &str) -> Self {
        Self::new(ErrorCode::UndefinedTable, format!("relation \"{name}\" does not exist"))
    }

    pub fn undefined_column(name: &str) -> Self {
        Self::new(ErrorCode::UndefinedColumn, format!("column \"{name}\" does not exist"))
    }

    pub fn unsupported(what: impl Into<String>) -> Self {
        Self::new(ErrorCode::FeatureNotSupported, what)
    }

    pub fn internal(what: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, what)
    }

    /// True when retrying the whole transaction could succeed (deadlock or
    /// cancellation), which is how benchmark drivers treat these conditions.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.code,
            ErrorCode::DeadlockDetected
                | ErrorCode::QueryCanceled
                | ErrorCode::SerializationFailure
        )
    }
}

impl fmt::Display for PgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code.sqlstate(), self.message)
    }
}

impl std::error::Error for PgError {}

impl From<sqlparse::ParseError> for PgError {
    fn from(e: sqlparse::ParseError) -> Self {
        PgError::new(ErrorCode::Syntax, e.to_string())
    }
}

/// Engine result alias.
pub type PgResult<T> = Result<T, PgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqlstates_match_postgres() {
        assert_eq!(ErrorCode::UniqueViolation.sqlstate(), "23505");
        assert_eq!(ErrorCode::DeadlockDetected.sqlstate(), "40P01");
        assert_eq!(ErrorCode::FeatureNotSupported.sqlstate(), "0A000");
    }

    #[test]
    fn retryable_classification() {
        assert!(PgError::new(ErrorCode::DeadlockDetected, "x").is_retryable());
        assert!(PgError::new(ErrorCode::QueryCanceled, "x").is_retryable());
        assert!(PgError::new(ErrorCode::SerializationFailure, "x").is_retryable());
        assert!(!PgError::new(ErrorCode::UniqueViolation, "x").is_retryable());
    }

    #[test]
    fn display_includes_sqlstate() {
        let e = PgError::undefined_table("nope");
        assert!(e.to_string().contains("42P01"));
        assert!(e.to_string().contains("nope"));
    }
}
