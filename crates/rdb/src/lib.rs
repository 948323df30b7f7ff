//! A from-scratch mini relational database: the storage substrate of the
//! AIQL event store.
//!
//! The AIQL system stores system monitoring data in relational tables and
//! issues *data queries* against them (paper Sec. 3.2). This crate provides
//! that substrate, self-contained and deterministic:
//!
//! - typed, chunked [`Table`]s whose [`Layout`] — secondary indexes and
//!   an optional columnar projection, which replaces the rows of every
//!   sealed chunk — is fixed when the table is created, read through
//!   cost-chosen access paths,
//! - time/space [`partition`]ing of tables with partition pruning (the
//!   paper's Sec. 3.2 storage optimization), and
//! - [`snapshot`] encoding of tables and partitions for the durable store.
//!
//! It has no query language: the AIQL engine plans its own data queries,
//! and the SQL comparator of the paper's evaluation lives in
//! `aiql-baselines`.
//!
//! # Examples
//!
//! ```
//! use aiql_rdb::{CmpOp, ColumnType, Database, Expr, Layout, Schema, Value};
//!
//! let mut db = Database::new();
//! let schema = Schema::new(&[("id", ColumnType::Int), ("name", ColumnType::Str)]);
//! db.create_table("users", schema, &Layout::indexed(&["name"]))
//!     .unwrap();
//! db.insert("users", vec![Value::Int(1), Value::str("alice")]).unwrap();
//! db.insert("users", vec![Value::Int(2), Value::str("bob")]).unwrap();
//!
//! let users = db.plain("users").unwrap();
//! let (_, hits) = users.select(&[Expr::cmp_lit(1, CmpOp::Eq, "bob")], &mut 0);
//! let rows: Vec<_> = users.rows_at(&hits).map(|r| r.to_row()).collect();
//! assert_eq!(rows, vec![vec![Value::Int(2), Value::str("bob")]]);
//! ```

pub mod columnar;
pub mod error;
pub mod expr;
pub mod partition;
pub mod schema;
pub mod snapshot;
pub mod table;

pub use aiql_model::{LikePattern, SharedDict, Sym, Value};
pub use columnar::TAIL_BLOCK_ROWS;
pub use columnar::{Columnar, ColumnarSpec, Kernel};
pub use error::RdbError;
pub use expr::{CmpOp, Expr, InList};
pub use partition::{InsertReport, PartKey, PartitionSpec, PartitionedTable, Prune};
pub use schema::{ColumnType, Row, Schema};
pub use table::{
    AccessPath, Layout, ResidentBytes, RowView, ScanProfile, SealedChunk, Table, DEFAULT_CHUNK_ROWS,
};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage backing one named table: plain or partitioned.
///
/// Plain tables sit behind `Arc` for the same copy-on-write sharing as
/// partitions (see [`PartitionedTable`]): cloning a [`Database`] — the
/// snapshot-publication step of the live store — shares every table by
/// reference, and a table is deep-copied only when the writer next mutates
/// it while a published snapshot still holds the previous version.
// A database holds a handful of slots (one per named table), so the size
// spread between the boxed plain variant and the inline partitioned one
// costs nothing worth an extra indirection on every partitioned access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TableSlot {
    Plain(Arc<Table>),
    Partitioned(PartitionedTable),
}

impl TableSlot {
    /// The table schema, regardless of storage form.
    pub fn schema(&self) -> &Schema {
        match self {
            TableSlot::Plain(t) => t.schema(),
            TableSlot::Partitioned(t) => t.schema(),
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        match self {
            TableSlot::Plain(t) => t.len(),
            TableSlot::Partitioned(t) => t.len(),
        }
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named collection of tables.
///
/// `Clone` is cheap by design: every table is `Arc`-shared with the clone
/// (copy-on-write), which is what lets the live store publish an immutable
/// snapshot per flush without copying row data.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, TableSlot>,
    /// Copy-on-write bytes charged by plain-table detaches (partitioned
    /// tables carry their own counter; see [`Database::copied_bytes`]).
    plain_copied_bytes: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a plain (unpartitioned) table laid out as `layout`; fails if
    /// the name is taken or the layout does not fit the schema.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        layout: &Layout,
    ) -> Result<(), RdbError> {
        let table = Table::new(schema, layout)?;
        self.attach(name, TableSlot::Plain(Arc::new(table)))
    }

    /// Creates a time/space-partitioned table whose partitions are laid out
    /// as `layout`; fails if the name is taken or the layout does not fit
    /// the schema.
    pub fn create_partitioned_table(
        &mut self,
        name: &str,
        schema: Schema,
        spec: PartitionSpec,
        layout: &Layout,
    ) -> Result<(), RdbError> {
        let table = PartitionedTable::new(schema, spec, layout)?;
        self.attach(name, TableSlot::Partitioned(table))
    }

    /// Inserts a row — owned (a [`Row`]) or borrowed (`&[Value]`), as
    /// [`Table::insert`] takes it — into `table`, routing to the right
    /// partition if the table is partitioned.
    pub fn insert<'r>(
        &mut self,
        table: &str,
        row: impl Into<Cow<'r, [Value]>>,
    ) -> Result<(), RdbError> {
        self.insert_reporting(table, row).map(|_| ())
    }

    /// Inserts a row, reporting partition creation (see
    /// [`PartitionedTable::insert_reporting`]); plain tables always report
    /// no rollover.
    pub fn insert_reporting<'r>(
        &mut self,
        table: &str,
        row: impl Into<Cow<'r, [Value]>>,
    ) -> Result<InsertReport, RdbError> {
        let mut copied = 0;
        let report = match self.slot_mut(table)? {
            // The copy-on-write step: a plain table shared with a published
            // snapshot is detached before the first post-publish insert.
            TableSlot::Plain(t) => {
                if Arc::strong_count(t) > 1 {
                    // Sealed chunks and full tail blocks stay shared with
                    // the snapshot: the detach copies the partial block.
                    copied = t.tail_bytes();
                }
                Arc::make_mut(t)
                    .insert(row)
                    .map(|_| InsertReport::default())
            }
            TableSlot::Partitioned(t) => t.insert_reporting(row),
        };
        self.plain_copied_bytes += copied;
        report
    }

    /// Cumulative bytes deep-copied by copy-on-write detaches on the
    /// insert path, across every table — the write amplification the
    /// epoch-swapped live store pays for snapshot isolation. Snapshots
    /// (clones) freeze the value at clone time, so `head.copied_bytes() -
    /// snapshot.copied_bytes()` is exactly what publishing after the next
    /// batch cost. Units are [`Table::tail_bytes`] estimates.
    pub fn copied_bytes(&self) -> u64 {
        self.plain_copied_bytes
            + self
                .tables
                .values()
                .map(|s| match s {
                    TableSlot::Plain(_) => 0,
                    TableSlot::Partitioned(t) => t.copied_bytes(),
                })
                .sum::<u64>()
    }

    /// Attaches a fully-built table under `name` — how a table is created,
    /// and the deserialization path of the durable store (see
    /// [`snapshot`]). Fails if the name is taken.
    pub fn attach(&mut self, name: &str, slot: TableSlot) -> Result<(), RdbError> {
        if self.tables.contains_key(name) {
            return Err(RdbError::TableExists(name.to_string()));
        }
        self.tables.insert(name.to_string(), slot);
        Ok(())
    }

    /// The storage slot for `table`.
    pub fn slot(&self, name: &str) -> Result<&TableSlot, RdbError> {
        self.tables
            .get(name)
            .ok_or_else(|| RdbError::NoSuchTable(name.to_string()))
    }

    fn slot_mut(&mut self, name: &str) -> Result<&mut TableSlot, RdbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RdbError::NoSuchTable(name.to_string()))
    }

    /// The schema of `table`.
    pub fn schema_of(&self, name: &str) -> Result<&Schema, RdbError> {
        Ok(self.slot(name)?.schema())
    }

    /// Where every table's memory goes (see [`Table::resident_bytes`]).
    pub fn resident_bytes(&self) -> ResidentBytes {
        self.tables
            .values()
            .map(|s| match s {
                TableSlot::Plain(t) => t.resident_bytes(),
                TableSlot::Partitioned(t) => t.resident_bytes(),
            })
            .sum()
    }

    /// The table `name`, if stored plain.
    pub fn plain(&self, name: &str) -> Option<&Table> {
        match self.tables.get(name) {
            Some(TableSlot::Plain(t)) => Some(t.as_ref()),
            _ => None,
        }
    }

    /// Seals every table's open tail, plain and partitioned (see
    /// [`Table::seal_tail`] / [`PartitionedTable::seal_tails`]) — the last
    /// step of a batch load. A plain table still shared with a snapshot is
    /// detached first, charged to [`Database::copied_bytes`] as any detach
    /// is.
    pub fn seal_tails(&mut self) {
        for slot in self.tables.values_mut() {
            match slot {
                TableSlot::Plain(t) if t.tail_len() > 0 => {
                    if Arc::strong_count(t) > 1 {
                        self.plain_copied_bytes += t.tail_bytes();
                    }
                    Arc::make_mut(t).seal_tail();
                }
                TableSlot::Plain(_) => {}
                TableSlot::Partitioned(t) => t.seal_tails(),
            }
        }
    }

    /// How many sealed chunks are physically shared with `other`, summed
    /// over name-matched tables and key-matched partitions (see
    /// [`Table::chunks_shared_with`]). The chunk-level observable of
    /// snapshot publication: sealed history stays shared even after hot
    /// tails are detached.
    pub fn sealed_chunks_shared_with(&self, other: &Database) -> usize {
        self.tables
            .iter()
            .map(|(name, slot)| match (slot, other.tables.get(name)) {
                (TableSlot::Plain(t), Some(TableSlot::Plain(o))) => t.chunks_shared_with(o),
                (TableSlot::Partitioned(t), Some(TableSlot::Partitioned(o))) => {
                    t.sealed_chunks_shared_with(o)
                }
                _ => 0,
            })
            .sum()
    }

    /// How many tables (plain tables plus individual partitions) are
    /// physically shared — same `Arc` allocation — between `self` and
    /// `other`. The copy-on-write observable behind snapshot publication;
    /// diagnostic for tests and benches.
    pub fn tables_shared_with(&self, other: &Database) -> usize {
        self.tables
            .iter()
            .map(|(name, slot)| match (slot, other.tables.get(name)) {
                (TableSlot::Plain(t), Some(TableSlot::Plain(o))) => Arc::ptr_eq(t, o) as usize,
                (TableSlot::Partitioned(t), Some(TableSlot::Partitioned(o))) => {
                    t.partitions_shared_with(o)
                }
                _ => 0,
            })
            .sum()
    }

    /// The partitioned table `name`, if stored partitioned.
    pub fn partitioned(&self, name: &str) -> Option<&PartitionedTable> {
        match self.tables.get(name) {
            Some(TableSlot::Partitioned(t)) => Some(t),
            _ => None,
        }
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_duplicate_table() {
        let mut db = Database::new();
        let s = Schema::new(&[("a", ColumnType::Int)]);
        let rows = Layout::default();
        db.create_table("t", s.clone(), &rows).unwrap();
        assert!(matches!(
            db.create_table("t", s.clone(), &rows),
            Err(RdbError::TableExists(_))
        ));
        let spec = PartitionSpec::new("a", "a", 1);
        assert!(matches!(
            db.create_partitioned_table("t", s, spec, &rows),
            Err(RdbError::TableExists(_))
        ));
        assert!(matches!(db.slot("missing"), Err(RdbError::NoSuchTable(_))));
        assert_eq!(db.table_names(), vec!["t"]);
    }

    #[test]
    fn plain_and_partitioned_accessors() {
        let mut db = Database::new();
        let rows = Layout::default();
        db.create_table("p", Schema::new(&[("a", ColumnType::Int)]), &rows)
            .unwrap();
        db.create_partitioned_table(
            "q",
            Schema::new(&[("t", ColumnType::Int), ("g", ColumnType::Int)]),
            PartitionSpec::new("t", "g", 1),
            &rows,
        )
        .unwrap();
        assert!(db.plain("p").is_some());
        assert!(db.partitioned("p").is_none());
        assert!(db.partitioned("q").is_some());
        assert!(db.plain("q").is_none());
    }
}
