//! The comparison systems of the paper's evaluation (Sec. 6), with the
//! machinery they run on:
//!
//! - [`postgres`] — executes the big-join SQL translation on a single
//!   node, the "PostgreSQL" baseline: over its own unpartitioned, indexed
//!   database in the end-to-end study ([`postgres::load`]), and over AIQL's
//!   partitioned store in the scheduling study (Fig. 6);
//! - [`neo4j`] — loads entities as nodes and events as relationships into
//!   the property-graph substrate and evaluates the pattern by traversal,
//!   the "Neo4j" baseline;
//! - [`greenplum`] — executes the big-join SQL with scatter/gather over
//!   round-robin MPP segments, the "Greenplum" baseline of Fig. 7.
//!
//! The SQL engine the relational comparators share is a SQL-subset front
//! end ([`sql`]) — `SELECT` with joins, `WHERE`, `GROUP BY`, `HAVING`,
//! `ORDER BY`, `LIMIT` — a deliberately *semantics-agnostic* planner
//! ([`plan`]): single-table predicate pushdown with index selection,
//! left-deep joins in `FROM` order, hash joins for equi-predicates and
//! nested loops otherwise — the plan class a generic RDBMS runs when handed
//! the paper's big-join translation of a multievent query — and a
//! materialized executor ([`exec`]) that observes a deadline through
//! [`ExecCtx`], so the harness can impose the paper's one-hour-style
//! budget. It runs over `aiql-rdb` [`Database`]s.
//!
//! All baselines return plain row sets so differential tests can check them
//! against the AIQL engine's results.
//!
//! # Examples
//!
//! ```
//! use aiql_baselines::query;
//! use aiql_rdb::{ColumnType, Database, Layout, Schema, Value};
//!
//! let mut db = Database::new();
//! let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
//! db.create_table("users", schema, &Layout::indexed(&["name"]))
//!     .unwrap();
//! db.insert("users", vec![Value::Int(1), Value::str("alice")]).unwrap();
//! db.insert("users", vec![Value::Int(2), Value::str("bob")]).unwrap();
//!
//! let rs = query(&db, "SELECT u.id FROM users u WHERE u.name = 'bob'").unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
//! ```

pub mod exec;
pub mod greenplum;
pub mod neo4j;
pub mod plan;
pub mod postgres;
pub mod sql;

pub use exec::{ExecCtx, ExecStats, ResultSet};

use aiql_rdb::{Database, RdbError, SharedDict, Value};
use aiql_storage::{schema, StoreConfig};

/// A baseline result: rows only (columns follow the query's return clause).
pub type Rows = Vec<Vec<Value>>;

/// Normalizes rows for order-insensitive comparison in differential tests.
pub fn normalize(mut rows: Rows) -> Rows {
    rows.sort();
    rows.dedup();
    rows
}

/// Errors from baseline execution.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The query cannot be expressed in this baseline.
    Untranslatable(String),
    /// Storage-layer failure.
    Storage(RdbError),
    /// The SQL text failed to lex or parse.
    Parse(String),
    /// The query references an unknown alias or is otherwise unplannable.
    Plan(String),
    /// The execution deadline elapsed (the paper's ">1 hour" cases).
    Timeout,
    /// An operator exceeded the configured row budget (the materialized
    /// analogue of running out of work_mem/disk — treated as did-not-finish).
    ResourceLimit,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Untranslatable(m) => write!(f, "untranslatable: {m}"),
            BaselineError::Storage(e) => write!(f, "storage: {e}"),
            BaselineError::Parse(m) => write!(f, "SQL parse error: {m}"),
            BaselineError::Plan(m) => write!(f, "planning error: {m}"),
            BaselineError::Timeout => write!(f, "baseline exceeded its deadline"),
            BaselineError::ResourceLimit => {
                write!(f, "query exceeded its intermediate-result budget")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<RdbError> for BaselineError {
    fn from(e: RdbError) -> Self {
        BaselineError::Storage(e)
    }
}

impl From<aiql_translate::TranslateError> for BaselineError {
    fn from(e: aiql_translate::TranslateError) -> Self {
        BaselineError::Untranslatable(e.to_string())
    }
}

/// Parses, plans, and executes a SQL query against `db` with no deadline.
pub fn query(db: &Database, sql: &str) -> Result<ResultSet, BaselineError> {
    query_ctx(db, sql, &mut ExecCtx::unbounded())
}

/// Parses, plans, and executes a SQL query against `db` under an execution
/// context (deadline + statistics).
pub fn query_ctx(db: &Database, sql: &str, ctx: &mut ExecCtx) -> Result<ResultSet, BaselineError> {
    let stmt = sql::parse_select(sql)?;
    let plan = plan::plan_select(db, &stmt)?;
    exec::execute(db, &plan, ctx)
}

/// Creates the event store's four tables on `db` as a row-store
/// [`schema::tables`] declares them, with the secondary indexes of
/// [`schema::index_plan`] — `events` partitioned when `partitioned` is
/// set, plain otherwise. The PostgreSQL database and every Greenplum
/// segment are laid out through here.
fn create_store_tables(db: &mut Database, partitioned: bool) -> Result<(), RdbError> {
    let config = StoreConfig::partitioned().with_columnar(false);
    for t in schema::tables(config, &SharedDict::new()) {
        match t.partitioning.filter(|_| partitioned) {
            Some(spec) => db.create_partitioned_table(t.name, t.schema, spec, &t.layout)?,
            None => db.create_table(t.name, t.schema, &t.layout)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_rdb::{partition, ColumnType, Layout, PartitionSpec, Schema};

    #[test]
    fn sql_over_partitioned_table() {
        let mut db = Database::new();
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
        ]);
        db.create_partitioned_table(
            "events",
            schema,
            PartitionSpec::new("start_time", "agentid", 1),
            &Layout::default(),
        )
        .unwrap();
        let day = partition::NANOS_PER_DAY;
        for i in 0..10i64 {
            db.insert(
                "events",
                vec![Value::Int(i), Value::Int(i % 2), Value::Int(i * day / 4)],
            )
            .unwrap();
        }
        let mut ctx = ExecCtx::unbounded();
        let rs = query_ctx(
            &db,
            &format!(
                "SELECT e.id FROM events e WHERE e.start_time >= {} AND e.start_time < {} \
                 AND e.agentid = 0 ORDER BY e.id",
                day,
                2 * day
            ),
            &mut ctx,
        )
        .unwrap();
        // Rows with t in [day, 2day): i*day/4 in that range → i in {4..7};
        // agent 0 → even i → {4, 6}.
        assert_eq!(rs.rows, vec![vec![Value::Int(4)], vec![Value::Int(6)]]);
        // Partition pruning means we scanned only day-1 partitions of agent 0.
        assert!(ctx.stats.rows_scanned <= 4);
    }
}
