//! Engine error type.

use aiql_core::AiqlError;
use aiql_rdb::RdbError;
use aiql_storage::PersistError;
use std::fmt;

/// Errors from compiling or executing an AIQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query failed to parse or analyze.
    Compile(AiqlError),
    /// The storage layer failed.
    Storage(RdbError),
    /// Opening a persisted store failed (missing directory, corrupt
    /// snapshot, unreadable log). Carries the rendered cause —
    /// [`PersistError`] holds `io::Error`, which is neither `Clone` nor
    /// `PartialEq`.
    Recovery(String),
    /// The execution deadline elapsed.
    Timeout,
    /// A tuple set or intermediate result exceeded the memory budget —
    /// reported like a did-not-finish baseline run.
    Resource,
    /// The query uses a feature the engine cannot execute.
    Unsupported(String),
    /// A scatter worker panicked. The panic is caught on the worker (the
    /// pool thread survives; sibling tasks of the same scatter finish or
    /// drain first) and re-surfaced here with the panic payload, instead
    /// of aborting the whole process as the old `join().expect(..)` did.
    Worker(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "compile error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Recovery(m) => write!(f, "recovery error: {m}"),
            EngineError::Timeout => write!(f, "query exceeded its execution deadline"),
            EngineError::Resource => write!(f, "query exceeded its intermediate-result budget"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Worker(m) => write!(f, "scatter worker panicked: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<AiqlError> for EngineError {
    fn from(e: AiqlError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        EngineError::Recovery(e.to_string())
    }
}

impl From<RdbError> for EngineError {
    fn from(e: RdbError) -> Self {
        EngineError::Storage(e)
    }
}
