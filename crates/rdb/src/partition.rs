//! Time- and space-partitioned tables (paper Sec. 3.2).
//!
//! System monitoring data is independent across agents and monotone in time,
//! and queries usually carry a time range and/or host constraint. A
//! [`PartitionedTable`] therefore splits rows by `(day, agent group)`:
//! one partition per day per group of `agent_group_size` agents. Scans prune
//! partitions from the query's temporal/spatial constraints, and the query
//! engine parallelizes across partitions.

use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::Schema;
use crate::table::{Layout, ResidentBytes, RowView, ScanProfile, Table};
use aiql_model::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// Nanoseconds per day (partition granularity).
pub const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

/// Declares which columns carry the partitioning dimensions.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Column holding the event time (Int nanoseconds).
    pub time_col: String,
    /// Column holding the agent ID (Int).
    pub agent_col: String,
    /// Number of consecutive agent IDs per spatial group.
    pub agent_group_size: u32,
}

impl PartitionSpec {
    /// A spec partitioning on `time_col`/`agent_col` with groups of `g`.
    pub fn new(time_col: &str, agent_col: &str, g: u32) -> PartitionSpec {
        PartitionSpec {
            time_col: time_col.to_string(),
            agent_col: agent_col.to_string(),
            agent_group_size: g.max(1),
        }
    }
}

/// Partition key: (day index, agent group).
pub type PartKey = (i64, u32);

/// What one row insert did to the physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// The partition key materialized by this insert, if the row was the
    /// first of its `(day, agent group)` — `None` for plain tables and for
    /// rows landing in an existing partition.
    pub created_partition: Option<PartKey>,
}

/// Pruning constraints for a partitioned scan.
#[derive(Debug, Clone, Default)]
pub struct Prune {
    /// Inclusive lower day bound.
    pub day_lo: Option<i64>,
    /// Inclusive upper day bound.
    pub day_hi: Option<i64>,
    /// Exact agent set, when known.
    pub agents: Option<Vec<i64>>,
}

impl Prune {
    /// No pruning: scan everything.
    pub fn all() -> Prune {
        Prune::default()
    }

    /// The pruning both `self` (a caller's) and `derived` (e.g.
    /// [`PartitionedTable::prune_from_conjuncts`]) allow on the day axis:
    /// the tighter bound wins on each side. The agent set is not
    /// intersected — the caller's set, when it has one, wins.
    pub fn intersect(&self, derived: &Prune) -> Prune {
        let tighter = |a: Option<i64>, b: Option<i64>, pick: fn(i64, i64) -> i64| match (a, b) {
            (Some(x), Some(y)) => Some(pick(x, y)),
            (x, y) => x.or(y),
        };
        Prune {
            day_lo: tighter(self.day_lo, derived.day_lo, i64::max),
            day_hi: tighter(self.day_hi, derived.day_hi, i64::min),
            agents: self.agents.clone().or_else(|| derived.agents.clone()),
        }
    }

    fn admits(&self, key: &PartKey, group_size: u32) -> bool {
        if self.day_lo.is_some_and(|lo| key.0 < lo) {
            return false;
        }
        if self.day_hi.is_some_and(|hi| key.0 > hi) {
            return false;
        }
        if let Some(agents) = &self.agents {
            let g = group_size as i64;
            if !agents.iter().any(|a| a.div_euclid(g) == key.1 as i64) {
                return false;
            }
        }
        true
    }
}

/// A table partitioned by (day, agent group).
///
/// Partitions are held behind `Arc` so a cloned `PartitionedTable` (the
/// snapshot-publication step of `aiql-storage`'s epoch-swapped store)
/// shares every partition by reference instead of copying rows. A
/// partition stays **sealed** — immutable, shared with every snapshot that
/// pinned it — until the writer next routes a row into it, at which point
/// [`Arc::make_mut`] detaches a private copy (copy-on-write). Partitions
/// the stream has moved past (older days, other agent groups) are never
/// touched again, so they are shared by all snapshots forever at zero cost.
///
/// Since tables went chunked (see [`crate::table`]), the detach itself is
/// cheap too: [`Table::clone`] shares the partition's sealed chunks and
/// its open tail's full column blocks by reference and copies at most the
/// tail's one partial block ([`crate::TAIL_BLOCK_ROWS`] rows) — not the
/// partition, not the tail.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    schema: Schema,
    spec: PartitionSpec,
    time_idx: usize,
    agent_idx: usize,
    /// What every partition is created with, its projection's sort column
    /// defaulted to the partition time column.
    layout: Layout,
    partitions: std::collections::BTreeMap<PartKey, Arc<Table>>,
    len: usize,
    /// Cumulative bytes deep-copied by copy-on-write unseals on the
    /// append path (see [`PartitionedTable::copied_bytes`]).
    copied_bytes: u64,
}

impl PartitionedTable {
    /// Creates an empty partitioned table whose partitions are laid out
    /// as `layout`, a projection without a sort column sorted on the
    /// partition time column. The layout is checked here, before any
    /// partition exists, as [`Table::new`] checks it.
    pub fn new(
        schema: Schema,
        spec: PartitionSpec,
        layout: &Layout,
    ) -> Result<PartitionedTable, RdbError> {
        let time_idx = schema.require(&spec.time_col)?;
        let agent_idx = schema.require(&spec.agent_col)?;
        let mut layout = layout.clone();
        if let Some((columnar, _)) = &mut layout.columnar {
            columnar
                .time_col
                .get_or_insert_with(|| spec.time_col.clone());
        }
        Table::new(schema.clone(), &layout)?;
        Ok(PartitionedTable {
            schema,
            spec,
            time_idx,
            agent_idx,
            layout,
            partitions: std::collections::BTreeMap::new(),
            len: 0,
            copied_bytes: 0,
        })
    }

    /// What every partition is laid out as.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether partitions carry columnar projections.
    pub fn is_columnar(&self) -> bool {
        self.layout.columnar.is_some()
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partition spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Total row count across partitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions currently materialized.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Cumulative bytes deep-copied because an append had to unseal a
    /// partition still `Arc`-shared with a published snapshot — the write
    /// amplification of copy-on-write snapshot isolation, in
    /// [`Table::tail_bytes`] units: sealed chunks and full tail blocks are
    /// shared by reference, so a detach copies at most the open tail's
    /// partial block (a row tail whole). Clones (snapshots) carry
    /// the value at clone time, so `head - snapshot` deltas give the bytes
    /// copied between two publishes.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    fn key_of(&self, row: &[Value]) -> Result<PartKey, RdbError> {
        let t = row[self.time_idx].as_int().ok_or_else(|| {
            RdbError::SchemaMismatch(format!(
                "partition time column must be Int, got {:?}",
                row[self.time_idx]
            ))
        })?;
        let a = row[self.agent_idx].as_int().ok_or_else(|| {
            RdbError::SchemaMismatch(format!(
                "partition agent column must be Int, got {:?}",
                row[self.agent_idx]
            ))
        })?;
        Ok((
            t.div_euclid(NANOS_PER_DAY),
            a.div_euclid(self.spec.agent_group_size as i64) as u32,
        ))
    }

    /// Routes a row — owned or borrowed, as [`Table::insert`] takes it —
    /// to its partition, creating it (with the table's layout) on first
    /// use.
    pub fn insert<'r>(&mut self, row: impl Into<Cow<'r, [Value]>>) -> Result<(), RdbError> {
        self.insert_reporting(row).map(|_| ())
    }

    /// Like [`PartitionedTable::insert`], but reports whether the insert
    /// rolled over into a freshly created partition — the signal live
    /// ingestion uses to detect day-boundary/agent-group rollover.
    ///
    /// A new partition is born with the table's layout — its indexes and
    /// projection — so rows appended later are laid out identically to
    /// batch-loaded ones.
    pub fn insert_reporting<'r>(
        &mut self,
        row: impl Into<Cow<'r, [Value]>>,
    ) -> Result<InsertReport, RdbError> {
        let row = row.into();
        self.schema.check_row(&row)?;
        let key = self.key_of(&row)?;
        let mut created = None;
        let table = match self.partitions.entry(key) {
            // `make_mut` is the unseal step: a partition shared with a
            // published snapshot is detached into a private copy before
            // the first post-publish append touches it; an unshared one
            // is mutated in place.
            std::collections::btree_map::Entry::Occupied(e) => {
                let slot = e.into_mut();
                if Arc::strong_count(slot) > 1 {
                    // The write amplification the live store pays for
                    // snapshot isolation: charge the detach before it
                    // happens so `copied_bytes` deltas quantify it. The
                    // clone shares sealed chunks and full tail blocks, so
                    // only the tail's partial block counts.
                    self.copied_bytes += slot.tail_bytes();
                }
                Arc::make_mut(slot)
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                let t = Table::new(self.schema.clone(), &self.layout)?;
                created = Some(key);
                Arc::make_mut(e.insert(Arc::new(t)))
            }
        };
        table.append(row);
        self.len += 1;
        Ok(InsertReport {
            created_partition: created,
        })
    }

    /// Attaches a fully-built partition under `key` — the deserialization
    /// path of the durable store. The table must match this table's schema
    /// arity and should have been created with [`PartitionedTable::layout`];
    /// nothing is rebuilt here. Fails if the key is already materialized.
    pub fn restore_partition(&mut self, key: PartKey, table: Table) -> Result<(), RdbError> {
        if table.schema().arity() != self.schema.arity() {
            return Err(RdbError::SchemaMismatch(format!(
                "partition arity {} does not match table arity {}",
                table.schema().arity(),
                self.schema.arity()
            )));
        }
        match self.partitions.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => Err(RdbError::SchemaMismatch(
                format!("partition {key:?} restored twice"),
            )),
            std::collections::btree_map::Entry::Vacant(e) => {
                self.len += table.len();
                e.insert(Arc::new(table));
                Ok(())
            }
        }
    }

    /// Columns carrying secondary indexes, as the layout names them (every
    /// partition is created with them).
    pub fn indexed_columns(&self) -> &[String] {
        &self.layout.indexes
    }

    /// The partitions admitted by `prune`, in key order.
    pub fn partitions_for(&self, prune: &Prune) -> Vec<(PartKey, &Table)> {
        self.partitions
            .iter()
            .filter(|(k, _)| prune.admits(k, self.spec.agent_group_size))
            .map(|(k, t)| (*k, t.as_ref()))
            .collect()
    }

    /// How many of this table's partitions are physically shared (same
    /// `Arc` allocation) with `other` — the observable of the seal-and-swap
    /// protocol: after a snapshot is published, every partition the writer
    /// has not touched since stays shared rather than copied. Diagnostic
    /// for tests and benches; not a query API.
    pub fn partitions_shared_with(&self, other: &PartitionedTable) -> usize {
        self.partitions
            .iter()
            .filter(|(k, t)| other.partitions.get(k).is_some_and(|o| Arc::ptr_eq(t, o)))
            .count()
    }

    /// How many sealed chunks, summed over key-matched partitions, are
    /// physically shared with `other` — the finer-grained observable of
    /// chunked publication: even after the writer detached a hot
    /// partition's tail, its sealed history stays shared with every
    /// snapshot (see [`Table::chunks_shared_with`]).
    pub fn sealed_chunks_shared_with(&self, other: &PartitionedTable) -> usize {
        self.partitions
            .iter()
            .filter_map(|(k, t)| other.partitions.get(k).map(|o| t.chunks_shared_with(o)))
            .sum()
    }

    /// Seals every partition's open tail (see [`Table::seal_tail`]) — the
    /// last step of a batch load, which leaves no row for a scan to read
    /// outside a sealed chunk. Sealing a partition still shared with a
    /// snapshot detaches it first, charged to `copied_bytes` as any detach
    /// is.
    pub fn seal_tails(&mut self) {
        for t in self.partitions.values_mut() {
            if t.tail_len() == 0 {
                continue;
            }
            if Arc::strong_count(t) > 1 {
                self.copied_bytes += t.tail_bytes();
            }
            Arc::make_mut(t).seal_tail();
        }
    }

    /// Derives pruning hints from scan conjuncts over this table's layout.
    pub fn prune_from_conjuncts(&self, conjuncts: &[Expr]) -> Prune {
        let (lo, hi, agents) = prune_hints(conjuncts, self.time_idx, self.agent_idx, NANOS_PER_DAY);
        Prune {
            day_lo: lo,
            day_hi: hi,
            agents,
        }
    }

    /// Scans all admitted partitions sequentially, applying `conjuncts` with
    /// per-partition access-path selection, and returns the matching rows
    /// borrowed, in partition then row order. Partition pruning,
    /// per-partition access paths and zone-map chunk skips land in
    /// `profile` (see [`ScanProfile`]).
    pub fn select(
        &self,
        conjuncts: &[Expr],
        prune: &Prune,
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<RowView<'_>> {
        profile.partitions_total += self.partition_count() as u32;
        let mut out = Vec::new();
        for (_, t) in self.partitions_for(prune) {
            profile.partitions_scanned += 1;
            let (_, positions) = t.select_profiled(conjuncts, scanned, profile);
            out.extend(t.rows_at(&positions));
        }
        out
    }

    /// Where the table's memory goes, summed over its partitions (see
    /// [`Table::resident_bytes`]).
    pub fn resident_bytes(&self) -> ResidentBytes {
        self.partitions.values().map(|t| t.resident_bytes()).sum()
    }

    /// All distinct day indexes with data, sorted.
    pub fn days(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self.partitions.keys().map(|(d, _)| *d).collect();
        v.dedup();
        v
    }
}

/// Extracts `(day_lo, day_hi, agents)` pruning hints from scan conjuncts,
/// given the local positions of the partition time/agent columns.
fn prune_hints(
    conjuncts: &[Expr],
    time_col: usize,
    agent_col: usize,
    nanos_per_day: i64,
) -> (Option<i64>, Option<i64>, Option<Vec<i64>>) {
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    let mut agents: Option<Vec<i64>> = None;
    for c in conjuncts {
        match c {
            Expr::Cmp(op, a, b) => {
                let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(col), Expr::Lit(Value::Int(v))) => (*col, *v, *op),
                    (Expr::Lit(Value::Int(v)), Expr::Col(col)) => (*col, *v, op.flip()),
                    _ => continue,
                };
                if col == time_col {
                    let day = lit.div_euclid(nanos_per_day);
                    match op {
                        CmpOp::Ge | CmpOp::Gt => lo = Some(lo.map_or(day, |x| x.max(day))),
                        CmpOp::Le | CmpOp::Lt => hi = Some(hi.map_or(day, |x| x.min(day))),
                        CmpOp::Eq => {
                            lo = Some(lo.map_or(day, |x| x.max(day)));
                            hi = Some(hi.map_or(day, |x| x.min(day)));
                        }
                        _ => {}
                    }
                } else if col == agent_col && op == CmpOp::Eq {
                    agents = Some(vec![lit]);
                }
            }
            Expr::In(inner, list) => {
                if let Expr::Col(col) = inner.as_ref() {
                    if *col == agent_col {
                        let list = list.values();
                        let vals: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
                        if vals.len() == list.len() {
                            agents = Some(vals);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    (lo, hi, agents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn pt() -> PartitionedTable {
        pt_with(&Layout::indexed(&["name"]))
    }

    /// 24 rows over two days and two agent groups, laid out as `layout`.
    fn pt_with(layout: &Layout) -> PartitionedTable {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ]);
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema, spec, layout).unwrap();
        // Two days, four agents (groups {0,1} and {2,3}).
        for day in 0..2i64 {
            for agent in 0..4i64 {
                for n in 0..3i64 {
                    pt.insert(vec![
                        Value::Int(day * 100 + agent * 10 + n),
                        Value::Int(agent),
                        Value::Int(day * NANOS_PER_DAY + n * 1_000),
                        Value::str(format!("f{n}")),
                    ])
                    .unwrap();
                }
            }
        }
        pt
    }

    #[test]
    fn prune_intersect_keeps_tighter_days_and_the_callers_agents() {
        let caller = Prune {
            day_lo: Some(3),
            day_hi: Some(9),
            agents: Some(vec![1]),
        };
        let derived = Prune {
            day_lo: Some(5),
            day_hi: Some(12),
            agents: Some(vec![2, 3]),
        };
        let both = caller.intersect(&derived);
        assert_eq!((both.day_lo, both.day_hi), (Some(5), Some(9)));
        assert_eq!(both.agents, Some(vec![1]), "the caller's agents win");
        // A bound or agent set only one side has passes through.
        let open = Prune::all().intersect(&derived);
        assert_eq!((open.day_lo, open.day_hi), (Some(5), Some(12)));
        assert_eq!(open.agents, Some(vec![2, 3]));
        let open = caller.intersect(&Prune::all());
        assert_eq!((open.day_lo, open.day_hi), (Some(3), Some(9)));
    }

    #[test]
    fn copied_bytes_counts_only_shared_unseals() {
        let mut head = pt();
        assert_eq!(head.copied_bytes(), 0, "building alone copies nothing");
        let snapshot = head.clone();
        // First append into a snapshot-shared partition detaches (copies)
        // it; the charge is the partition's size at detach time.
        head.insert(vec![
            Value::Int(900),
            Value::Int(0),
            Value::Int(500_000),
            Value::str("f9"),
        ])
        .unwrap();
        let after_first = head.copied_bytes();
        assert!(after_first > 0, "shared partition unsealed");
        // The partition is now private: further appends copy nothing.
        head.insert(vec![
            Value::Int(901),
            Value::Int(0),
            Value::Int(600_000),
            Value::str("f9"),
        ])
        .unwrap();
        assert_eq!(head.copied_bytes(), after_first);
        // The snapshot froze the counter at clone time.
        assert_eq!(snapshot.copied_bytes(), 0);
    }

    #[test]
    fn routing_and_counts() {
        let pt = pt();
        assert_eq!(pt.len(), 24);
        assert_eq!(pt.partition_count(), 4, "2 days x 2 agent groups");
        assert_eq!(pt.days(), vec![0, 1]);
    }

    #[test]
    fn pruning_by_day_and_agent() {
        let pt = pt();
        let all = pt.partitions_for(&Prune::all());
        assert_eq!(all.len(), 4);

        let day0 = Prune {
            day_lo: Some(0),
            day_hi: Some(0),
            agents: None,
        };
        assert_eq!(pt.partitions_for(&day0).len(), 2);

        let agent3 = Prune {
            day_lo: None,
            day_hi: None,
            agents: Some(vec![3]),
        };
        assert_eq!(pt.partitions_for(&agent3).len(), 2, "group 1, both days");

        let both = Prune {
            day_lo: Some(1),
            day_hi: Some(1),
            agents: Some(vec![0]),
        };
        assert_eq!(pt.partitions_for(&both).len(), 1);
    }

    #[test]
    fn select_uses_partition_indexes() {
        let mut pt = pt();
        pt.seal_tails();
        let mut scanned = 0;
        let name_col = pt.schema().position("name").unwrap();
        let rows = pt.select(
            &[Expr::cmp_lit(name_col, CmpOp::Eq, "f1")],
            &Prune::all(),
            &mut scanned,
            &mut ScanProfile::default(),
        );
        assert_eq!(rows.len(), 8);
        assert_eq!(scanned, 8, "index probe touches only matches");
    }

    #[test]
    fn select_with_prune_reduces_work() {
        let pt = pt();
        let mut scanned = 0;
        let prune = Prune {
            day_lo: Some(0),
            day_hi: Some(0),
            agents: Some(vec![0]),
        };
        let rows = pt.select(&[], &prune, &mut scanned, &mut ScanProfile::default());
        assert_eq!(rows.len(), 6, "one group (agents 0,1) on day 0");
    }

    #[test]
    fn prune_from_conjuncts_uses_spec_columns() {
        let pt = pt();
        let prune = pt.prune_from_conjuncts(&[
            Expr::cmp_lit(2, CmpOp::Ge, 0i64),
            Expr::cmp_lit(2, CmpOp::Lt, NANOS_PER_DAY),
            Expr::cmp_lit(1, CmpOp::Eq, 2i64),
        ]);
        assert_eq!(prune.day_lo, Some(0));
        assert_eq!(prune.day_hi, Some(1), "upper bound is day of the literal");
        assert_eq!(prune.agents, Some(vec![2]));
    }

    #[test]
    fn insert_reports_rollover_and_new_partitions_carry_indexes() {
        let schema = Schema::new(&[
            ("agentid", ColumnType::Int),
            ("start_time", ColumnType::Int),
            ("name", ColumnType::Str),
        ]);
        let spec = PartitionSpec::new("start_time", "agentid", 2);
        let mut pt = PartitionedTable::new(schema, spec, &Layout::indexed(&["name"])).unwrap();
        let row = |agent: i64, t: i64| vec![Value::Int(agent), Value::Int(t), Value::str("f")];

        // First row of (day 0, group 0) creates the partition.
        let r = pt.insert_reporting(row(0, 0)).unwrap();
        assert_eq!(r.created_partition, Some((0, 0)));
        // Same partition: no rollover.
        let r = pt.insert_reporting(row(1, 1_000)).unwrap();
        assert_eq!(r.created_partition, None);
        // Crossing the day boundary rolls over.
        let r = pt.insert_reporting(row(0, NANOS_PER_DAY)).unwrap();
        assert_eq!(r.created_partition, Some((1, 0)));
        // New agent group rolls over too.
        let r = pt.insert_reporting(row(2, 500)).unwrap();
        assert_eq!(r.created_partition, Some((0, 1)));

        // Every partition (including rolled-over ones) has the index: an
        // equality probe touches only matching rows.
        assert_eq!(pt.indexed_columns(), &["name".to_string()]);
        let mut scanned = 0;
        let name_col = pt.schema().position("name").unwrap();
        let rows = pt.select(
            &[Expr::cmp_lit(name_col, CmpOp::Eq, "f")],
            &Prune::all(),
            &mut scanned,
            &mut ScanProfile::default(),
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(scanned, 4, "index probes only");
    }

    /// Every partition, a rolled-over one included, is created with the
    /// table's layout: its indexes, and its projection sorted on the
    /// partition time column when the layout names no sort column.
    #[test]
    fn rollover_partitions_carry_the_layout() {
        let layout = Layout::indexed(&["name", "id"])
            .with_columnar(crate::ColumnarSpec::all(), aiql_model::SharedDict::new());
        let mut pt = pt_with(&layout);
        pt.seal_tails();
        assert!(pt.is_columnar());
        let time_col = pt.layout().columnar.as_ref().unwrap().0.time_col.clone();
        assert_eq!(time_col.as_deref(), Some("start_time"));
        for (_, t) in pt.partitions_for(&Prune::all()) {
            assert!(t.columnar().is_some(), "projected");
            assert_eq!(t.indexed_columns(), [0, 3]);
            assert!(t.sealed_chunks().iter().all(|c| c.is_projected()));
        }
        // Rollover into a fresh partition carries projection + indexes.
        pt.insert(vec![
            Value::Int(999),
            Value::Int(0),
            Value::Int(5 * NANOS_PER_DAY),
            Value::str("late"),
        ])
        .unwrap();
        let fresh = pt
            .partitions_for(&Prune {
                day_lo: Some(5),
                day_hi: Some(5),
                agents: None,
            })
            .pop()
            .expect("rolled-over partition")
            .1;
        assert!(fresh.columnar().is_some(), "rollover keeps the projection");
        assert_eq!(fresh.indexed_columns(), [0, 3]);
        assert_eq!(fresh.len(), 1);
        // And scans through the columnar path agree with the row path.
        let mut scanned = 0;
        let rows = pt.select(
            &[Expr::cmp_lit(2, CmpOp::Ge, 5 * NANOS_PER_DAY)],
            &Prune::all(),
            &mut scanned,
            &mut ScanProfile::default(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(3), Value::str("late"));
    }

    #[test]
    fn insert_rejects_bad_partition_values() {
        let mut pt = pt();
        let r = pt.insert(vec![
            Value::Int(1),
            Value::str("x"),
            Value::Int(0),
            Value::str("f"),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn prune_hint_extraction() {
        let day = 86_400i64 * 1_000_000_000;
        let conjuncts = vec![
            Expr::cmp_lit(3, CmpOp::Ge, 2 * day),
            Expr::cmp_lit(3, CmpOp::Lt, 3 * day),
            Expr::cmp_lit(0, CmpOp::Eq, 7i64),
        ];
        let (lo, hi, agents) = prune_hints(&conjuncts, 3, 0, day);
        assert_eq!(lo, Some(2));
        assert_eq!(hi, Some(3));
        assert_eq!(agents, Some(vec![7]));

        let conjuncts = vec![Expr::in_list(0, vec![Value::Int(1), Value::Int(2)])];
        let (_, _, agents) = prune_hints(&conjuncts, 3, 0, day);
        assert_eq!(agents, Some(vec![1, 2]));
    }
}
