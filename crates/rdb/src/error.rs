//! Error type for the mini relational database.

use std::fmt;

/// Errors surfaced by table management and row validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdbError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    NoSuchTable(String),
    /// No column with this name (message includes the table context).
    NoSuchColumn(String),
    /// A row's arity or a value's type does not match the table schema.
    SchemaMismatch(String),
}

impl fmt::Display for RdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdbError::TableExists(t) => write!(f, "table already exists: {t}"),
            RdbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            RdbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            RdbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for RdbError {}
