//! Translators from AIQL query contexts to SQL, Neo4j Cypher, and Splunk
//! SPL, plus the conciseness metrics of the paper's Sec. 6.4.
//!
//! The SQL translation is *executable* by `aiql-baselines`' SQL engine —
//! it is the paper's baseline "one big join": every event pattern
//! contributes an `events` alias joined to its subject/object entity
//! tables, and all constraints and relationships pile into a single
//! `WHERE`. The Cypher and SPL translations are textual equivalents used
//! for the conciseness comparison (paper Fig. 8 / Table 5), mirroring how
//! the paper constructs semantically equivalent queries in each language.
//!
//! # Examples
//!
//! ```
//! let ctx = aiql_core::compile(
//!     r#"proc p["%cmd.exe"] start proc q as e1 return p, q"#,
//! ).unwrap();
//! let sql = aiql_translate::sql::to_sql(&ctx).unwrap();
//! assert!(sql.contains("JOIN processes"));
//! assert!(sql.to_lowercase().contains("like"));
//! ```

pub mod cypher;
pub mod metrics;
pub mod names;
pub mod spl;
pub mod sql;

pub use metrics::{conciseness, Conciseness};

/// Errors from translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The construct has no equivalent in the target language (e.g. sliding
    /// windows and history states in SQL — the gap the paper highlights).
    Unsupported(String),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Unsupported(m) => write!(f, "untranslatable: {m}"),
        }
    }
}

impl std::error::Error for TranslateError {}
