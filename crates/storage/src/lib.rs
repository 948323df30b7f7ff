//! Domain-specific data storage for system monitoring data (paper Sec. 3.2).
//!
//! The store keeps entities and events in relational tables (see [`schema`])
//! and exploits the data's spatial and temporal properties:
//!
//! - **Partitioned layout** (AIQL's optimization): the `events` table is
//!   split by `(day, agent group)` — the analogue of "one database per day"
//!   plus agent-group table partitions — so constrained queries prune
//!   partitions and the engine parallelizes across them.
//! - **Monolithic layout** (baseline): the same tables without partitioning,
//!   as the end-to-end PostgreSQL/Neo4j comparison stores them.
//! - **Segmented store** (Greenplum analogue): K segments under a placement
//!   policy — arrival-order round-robin, or by host per AIQL's
//!   semantics-aware model.
//!
//! Both layouts build the same secondary indexes (the paper gives the
//! baselines identical schema/index designs) and both are loaded through the
//! same ingestion path, including server-side [`timesync`] correction.
//!
//! # Examples
//!
//! ```
//! use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
//! use aiql_storage::{EventStore, StoreConfig};
//!
//! let mut data = Dataset::new();
//! let agent = AgentId(1);
//! let p = data.add_entity(Entity::process(1.into(), agent, "bash", 42));
//! let f = data.add_entity(Entity::file(2.into(), agent, "/etc/passwd"));
//! data.add_event(Event::new(
//!     1.into(), agent, p, OpType::Read, f, EntityKind::File,
//!     Timestamp::from_ymd(2017, 1, 1).unwrap(),
//! ));
//!
//! let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
//! assert_eq!(store.event_count(), 1);
//! ```

pub mod durable;
pub mod live;
mod metrics;
pub mod persist;
pub mod schema;
pub mod timesync;

pub use durable::{DurableOpen, DurableStore, DurableWrite};
pub use live::{SharedStore, StoreSnapshot, StoreStamp, StoreWriter};
pub use metrics::record_scan;
pub use persist::{PersistError, RecoveryReport};

use aiql_model::{Dataset, Entity, EntityKind, Event, SharedDict, Timestamp, Value};
use aiql_rdb::{
    ColumnarSpec, Database, PartKey, PartitionSpec, Placement, Prune, RdbError, Row, ScanProfile,
    SegmentedDb,
};
use std::path::{Path, PathBuf};

/// The columnar projection each table receives when
/// [`StoreConfig::columnar`] is set — shared by [`EventStore::empty`] and
/// the snapshot-restore path, so a reopened store rebuilds exactly the
/// projections a fresh one would.
///
/// Events project every column (all `Int`), kept sorted on `start_time` so
/// window scans binary-search instead of filtering. Entity tables project
/// the hot predicate columns — ids plus every string attribute (exe names,
/// paths, IPs) interned into the shared dictionary; `create_index` extends
/// the projections if more columns get indexed later.
pub(crate) fn columnar_spec_for(table: &str) -> ColumnarSpec {
    if table == schema::EVENTS {
        return ColumnarSpec::time_sorted("start_time");
    }
    let sch = match table {
        schema::PROCESSES => schema::processes_schema(),
        schema::FILES => schema::files_schema(),
        schema::NETCONNS => schema::netconns_schema(),
        other => unreachable!("no columnar spec for table {other}"),
    };
    let hot: Vec<&str> = sch
        .iter()
        .filter(|(n, t)| *t == aiql_rdb::ColumnType::Str || *n == "id" || *n == "agentid")
        .map(|(n, _)| n)
        .collect();
    ColumnarSpec::all().with_columns(&hot)
}

/// Physical layout of the event store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Single tables, no partitioning (the end-to-end baseline layout).
    Monolithic,
    /// Events partitioned by (day, agent group) — AIQL's layout.
    Partitioned {
        /// Number of consecutive agents per spatial partition group.
        agent_group_size: u32,
    },
}

/// Store construction options.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub layout: Layout,
    /// Whether to build the secondary indexes of [`schema::index_plan`].
    pub with_indexes: bool,
    /// Whether to build columnar projections (dictionary-interned values,
    /// time-sorted zone-mapped blocks) alongside the row store.
    pub columnar: bool,
    /// Execution shards the partitioned layout routes `(day, agent group)`
    /// partitions into (`aiql_rdb::partition::shard_of`). `0` means
    /// auto-size to the machine: [`StoreConfig::shard_count`] resolves it
    /// to `available_parallelism`. Ignored by the monolithic layout.
    pub shards: u32,
}

impl StoreConfig {
    /// AIQL's layout: partitioned with groups of 5 agents, indexed, with
    /// columnar projections on the scan-heavy tables.
    pub fn partitioned() -> StoreConfig {
        StoreConfig {
            layout: Layout::Partitioned {
                agent_group_size: 5,
            },
            with_indexes: true,
            columnar: true,
            shards: 0,
        }
    }

    /// Baseline layout: monolithic tables, indexed, row-store only (the
    /// configuration the end-to-end PostgreSQL comparison stores).
    pub fn monolithic() -> StoreConfig {
        StoreConfig {
            layout: Layout::Monolithic,
            with_indexes: true,
            columnar: false,
            shards: 0,
        }
    }

    /// Toggles columnar projections, builder style.
    /// `StoreConfig::partitioned().with_columnar(false)` is the pure
    /// row-store configuration — the correctness oracle the differential
    /// tests compare the columnar path against.
    pub fn with_columnar(mut self, columnar: bool) -> StoreConfig {
        self.columnar = columnar;
        self
    }

    /// Sets the execution shard count, builder style. `0` restores the
    /// auto (machine-sized) default.
    pub fn with_shards(mut self, shards: u32) -> StoreConfig {
        self.shards = shards;
        self
    }

    /// Overrides the spatial partition group size, builder style — smaller
    /// groups mean more partitions and therefore more scatter width on
    /// small agent fleets (the parallel bench uses groups of 1). No-op on
    /// the monolithic layout.
    pub fn with_agent_group(mut self, g: u32) -> StoreConfig {
        if let Layout::Partitioned { agent_group_size } = &mut self.layout {
            *agent_group_size = g.max(1);
        }
        self
    }

    /// The effective shard count: the configured value, or the machine's
    /// available parallelism (min 1) when configured as `0` (auto).
    pub fn shard_count(&self) -> usize {
        if self.shards > 0 {
            return self.shards as usize;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Converts an entity into its table row.
pub fn entity_row(e: &Entity) -> Row {
    let id = Value::Int(e.id.0 as i64);
    let agent = Value::Int(e.agent.0 as i64);
    match e.kind {
        EntityKind::Process => vec![
            id,
            agent,
            e.attr("pid"),
            e.attr("exe_name"),
            e.attr("user"),
            e.attr("cmd"),
            e.attr("signature"),
        ],
        EntityKind::File => vec![
            id,
            agent,
            e.attr("name"),
            e.attr("owner"),
            e.attr("group"),
            e.attr("vol_id"),
            e.attr("data_id"),
        ],
        EntityKind::NetConn => vec![
            id,
            agent,
            e.attr("src_ip"),
            e.attr("src_port"),
            e.attr("dst_ip"),
            e.attr("dst_port"),
            e.attr("protocol"),
        ],
    }
}

/// Converts an event into its table row.
pub fn event_row(ev: &Event) -> Row {
    vec![
        Value::Int(ev.id.0 as i64),
        Value::Int(ev.agent.0 as i64),
        Value::Int(schema::opcode(ev.op)),
        Value::Int(ev.subject.0 as i64),
        Value::Int(ev.object.0 as i64),
        Value::Int(schema::kind_code(ev.object_kind)),
        Value::Int(ev.start.0),
        Value::Int(ev.end.0),
        Value::Int(ev.seq as i64),
        Value::Int(ev.amount),
        Value::Int(ev.failure as i64),
    ]
}

fn create_tables(
    mut create: impl FnMut(&'static str, aiql_rdb::Schema, bool) -> Result<(), RdbError>,
) -> Result<(), RdbError> {
    create(schema::EVENTS, schema::events_schema(), true)?;
    create(schema::PROCESSES, schema::processes_schema(), false)?;
    create(schema::FILES, schema::files_schema(), false)?;
    create(schema::NETCONNS, schema::netconns_schema(), false)?;
    Ok(())
}

/// What appending one event did to the store's physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendOutcome {
    /// The `(day, agent group)` partition this append rolled over into, if
    /// it was the first row of that partition. `None` on the monolithic
    /// layout and for rows landing in existing partitions.
    pub created_partition: Option<PartKey>,
}

/// One row on its way into a store, borrowed from whoever holds it — a
/// queued shipment, a timestamp-corrected copy, a decoded log record.
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// A system entity.
    Entity(&'a Entity),
    /// A system event (timestamps already corrected).
    Event(&'a Event),
}

/// The single-node event store (monolithic or partitioned layout).
///
/// Construct-and-query via [`EventStore::ingest`], or grow a live store via
/// the append hooks ([`EventStore::append_entity`] /
/// [`EventStore::append_event`]) — both paths maintain the same secondary
/// indexes and partitions, so queries plan identically either way.
///
/// `Clone` is copy-on-write (every table is `Arc`-shared with the clone,
/// see [`aiql_rdb::Database`]): it is how [`SharedStore`] publishes an
/// immutable snapshot per flush without copying row data.
#[derive(Debug, Clone)]
pub struct EventStore {
    db: Database,
    config: StoreConfig,
    /// The store-wide string dictionary backing every columnar projection.
    dict: SharedDict,
    event_count: usize,
    entity_count: usize,
    /// Mutation counter backing [`EventStore::stamp`].
    epoch: u64,
}

impl EventStore {
    /// Creates an empty store with the schema, (optionally) indexes, and
    /// (optionally) columnar projections set up.
    pub fn empty(config: StoreConfig) -> Result<EventStore, RdbError> {
        let mut db = Database::new();
        create_tables(|name, sch, is_events| match config.layout {
            Layout::Partitioned { agent_group_size } if is_events => db.create_partitioned_table(
                name,
                sch,
                PartitionSpec::new("start_time", "agentid", agent_group_size),
            ),
            _ => db.create_table(name, sch),
        })?;
        let dict = SharedDict::new();
        if config.columnar {
            for table in [
                schema::EVENTS,
                schema::PROCESSES,
                schema::FILES,
                schema::NETCONNS,
            ] {
                db.enable_columnar(table, columnar_spec_for(table), dict.clone())?;
            }
        }
        if config.with_indexes {
            for (table, col) in schema::index_plan() {
                db.create_index(table, col)?;
            }
        }
        Ok(EventStore {
            db,
            config,
            dict,
            event_count: 0,
            entity_count: 0,
            epoch: 0,
        })
    }

    /// Builds a store from a dataset (the batch path; runs through the same
    /// append hooks live ingestion uses).
    pub fn ingest(data: &Dataset, config: StoreConfig) -> Result<EventStore, RdbError> {
        let mut store = EventStore::empty(config)?;
        for e in &data.entities {
            store.append_entity(e)?;
        }
        for ev in &data.events {
            store.append_event(ev)?;
        }
        Ok(store)
    }

    /// Appends one entity to its kind's table (indexes maintained).
    pub fn append_entity(&mut self, e: &Entity) -> Result<(), RdbError> {
        self.db
            .insert(schema::entity_table(e.kind), entity_row(e))?;
        self.entity_count += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Appends one event, routing it to its `(day, agent group)` partition
    /// and reporting rollover when the row materializes a new partition.
    /// Newly created partitions carry every configured secondary index.
    pub fn append_event(&mut self, ev: &Event) -> Result<AppendOutcome, RdbError> {
        let report = self.db.insert_reporting(schema::EVENTS, event_row(ev))?;
        self.event_count += 1;
        self.epoch += 1;
        Ok(AppendOutcome {
            created_partition: report.created_partition,
        })
    }

    /// Inserts one logged row. A durable flush's apply phase and
    /// recovery's replay of the log both go through here, so a row the
    /// store rejects live is rejected — and skipped — identically when the
    /// log is replayed.
    pub fn apply(&mut self, row: RowRef<'_>) -> Result<AppendOutcome, RdbError> {
        match row {
            RowRef::Entity(e) => self.append_entity(e).map(|()| AppendOutcome::default()),
            RowRef::Event(ev) => self.append_event(ev),
        }
    }

    /// Backwards-compatible alias of [`EventStore::append_entity`].
    pub fn insert_entity(&mut self, e: &Entity) -> Result<(), RdbError> {
        self.append_entity(e)
    }

    /// Backwards-compatible alias of [`EventStore::append_event`],
    /// discarding the rollover report.
    pub fn insert_event(&mut self, ev: &Event) -> Result<(), RdbError> {
        self.append_event(ev).map(|_| ())
    }

    /// Writes a point-in-time snapshot of the whole store to `dir`
    /// (atomically: temp file + rename, CRC-checksummed). The snapshot
    /// carries the store configuration, the shared dictionary, all row
    /// data, and the columnar block metadata, so [`EventStore::open`]
    /// rebuilds an identical store — same partitions, indexes, projection
    /// blocks, and dictionary codes.
    ///
    /// This is the standalone snapshot path (no write-ahead log); a
    /// [`DurableStore`] couples snapshots with WAL truncation instead.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<PathBuf, PersistError> {
        persist::write_snapshot(self, dir.as_ref(), 0)
    }

    /// Opens the store persisted at `dir`: loads the newest valid snapshot
    /// and replays any write-ahead-log tail past it, tolerating a torn
    /// final record. See [`persist::recover`] for the detailed report.
    pub fn open(dir: impl AsRef<Path>) -> Result<EventStore, PersistError> {
        Ok(persist::recover(dir.as_ref())?.store)
    }

    /// The store's current version stamp (see [`StoreStamp`]).
    pub fn stamp(&self) -> StoreStamp {
        StoreStamp {
            epoch: self.epoch,
            events: self.event_count,
            entities: self.entity_count,
        }
    }

    /// The underlying database (SQL entry point for baselines).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Seals every table tail holding at least `min_rows` rows into an
    /// immutable chunk (see [`Database::freeze_tails`]); returns how many
    /// tails sealed. The publish path calls this right before cloning the
    /// head so the snapshot shares the sealed chunks and the next
    /// publish's copy-on-write detaches cost ~nothing. Deliberately does
    /// **not** bump the epoch: no visible row changes, so a freeze alone
    /// never triggers a spurious publish.
    pub fn freeze_tails(&mut self, min_rows: usize) -> usize {
        self.db.freeze_tails(min_rows)
    }

    /// Sealed chunks physically shared with `other`'s database (see
    /// [`Database::sealed_chunks_shared_with`]) — the chunk-level
    /// observable of snapshot publication.
    pub fn sealed_chunks_shared_with(&self, other: &EventStore) -> usize {
        self.db.sealed_chunks_shared_with(&other.db)
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The effective execution-shard count of this store's layout (see
    /// [`StoreConfig::shard_count`]). Scatter-gather execution groups the
    /// event partitions into this many shards; `1` disables scatter.
    pub fn shard_count(&self) -> usize {
        self.config.shard_count()
    }

    /// Number of ingested events.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Number of ingested entities.
    pub fn entity_count(&self) -> usize {
        self.entity_count
    }

    /// The partitioned events table, when the layout is partitioned.
    pub fn events_partitioned(&self) -> Option<&aiql_rdb::PartitionedTable> {
        self.db.partitioned(schema::EVENTS)
    }

    /// The store-wide string dictionary (populated only when the columnar
    /// layout is enabled).
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// Scans events with conjuncts over the events layout, applying
    /// partition pruning when partitioned. Returns matching rows (cloned);
    /// prefer [`EventStore::scan_events_ref`] on hot paths.
    pub fn scan_events(
        &self,
        conjuncts: &[aiql_rdb::Expr],
        prune: &Prune,
        scanned: &mut u64,
    ) -> Vec<Row> {
        self.scan_events_ref(conjuncts, prune, scanned)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Like [`EventStore::scan_events`], but returns borrowed rows — the
    /// engine flattens matches into fresh rows, so cloning here is wasted.
    pub fn scan_events_ref(
        &self,
        conjuncts: &[aiql_rdb::Expr],
        prune: &Prune,
        scanned: &mut u64,
    ) -> Vec<&Row> {
        let mut profile = ScanProfile::default();
        self.scan_events_profiled(conjuncts, prune, scanned, &mut profile)
    }

    /// [`EventStore::scan_events_ref`] with access-path and pruning
    /// accounting into `profile` — the storage hook behind the session
    /// API's `EXPLAIN`.
    pub fn scan_events_profiled(
        &self,
        conjuncts: &[aiql_rdb::Expr],
        prune: &Prune,
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<&Row> {
        match self.db.partitioned(schema::EVENTS) {
            Some(pt) => {
                // Merge caller pruning with conjunct-derived pruning.
                let derived = pt.prune_from_conjuncts(conjuncts);
                let merged = Prune {
                    day_lo: max_opt(prune.day_lo, derived.day_lo),
                    day_hi: min_opt(prune.day_hi, derived.day_hi),
                    agents: prune.agents.clone().or(derived.agents),
                };
                pt.select_refs_profiled(conjuncts, &merged, scanned, profile)
            }
            None => {
                let t = self.db.plain(schema::EVENTS).expect("events table exists");
                profile.partitions_total += 1;
                profile.partitions_scanned += 1;
                let (_, pos) = t.select_profiled(conjuncts, scanned, profile);
                pos.into_iter().map(|p| t.row(p)).collect()
            }
        }
    }

    /// Scans an entity table with conjuncts (index-accelerated).
    pub fn scan_entities(
        &self,
        kind: EntityKind,
        conjuncts: &[aiql_rdb::Expr],
        scanned: &mut u64,
    ) -> Vec<Row> {
        let mut profile = ScanProfile::default();
        self.scan_entities_profiled(kind, conjuncts, scanned, &mut profile)
    }

    /// [`EventStore::scan_entities`] with access-path accounting into
    /// `profile`.
    pub fn scan_entities_profiled(
        &self,
        kind: EntityKind,
        conjuncts: &[aiql_rdb::Expr],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<Row> {
        let t = self
            .db
            .plain(schema::entity_table(kind))
            .expect("entity tables are plain");
        profile.partitions_total += 1;
        profile.partitions_scanned += 1;
        let (_, pos) = t.select_profiled(conjuncts, scanned, profile);
        pos.into_iter().map(|p| t.row(p).clone()).collect()
    }

    /// The time span (min/max event start) present in the store, if any.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        let mut scanned = 0u64;
        let rows = self.scan_events_ref(&[], &Prune::all(), &mut scanned);
        let lo = rows
            .iter()
            .map(|r| r[schema::ev::START].as_int().unwrap_or(0))
            .min()?;
        let hi = rows
            .iter()
            .map(|r| r[schema::ev::START].as_int().unwrap_or(0))
            .max()?;
        Some((Timestamp(lo), Timestamp(hi)))
    }
}

fn max_opt(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    }
}

fn min_opt(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// The MPP event store: K segments under a placement policy (Greenplum
/// analogue for the paper's Sec. 6.3.3 evaluation).
pub struct SegmentedStore {
    sdb: SegmentedDb,
    event_count: usize,
}

impl SegmentedStore {
    /// Creates an empty segmented store. `by_host` selects AIQL's
    /// semantics-aware placement; otherwise rows are spread round-robin in
    /// arrival order (Greenplum's default on this data).
    pub fn empty(
        segments: usize,
        by_host: bool,
        with_indexes: bool,
    ) -> Result<SegmentedStore, RdbError> {
        let placement = if by_host {
            Placement::ByAgent {
                agent_col: "agentid".into(),
            }
        } else {
            Placement::RoundRobin
        };
        let mut sdb = SegmentedDb::new(segments, placement);
        create_tables(|name, sch, is_events| {
            if is_events {
                // Segments keep day partitioning locally (both systems get
                // the paper's storage optimizations in Sec. 6.3.3).
                sdb.create_partitioned_table(
                    name,
                    sch,
                    PartitionSpec::new("start_time", "agentid", 5),
                )
            } else {
                sdb.create_table(name, sch)
            }
        })?;
        if with_indexes {
            for (table, col) in schema::index_plan() {
                sdb.create_index(table, col)?;
            }
        }
        Ok(SegmentedStore {
            sdb,
            event_count: 0,
        })
    }

    /// Builds a segmented store from a dataset.
    pub fn ingest(
        data: &Dataset,
        segments: usize,
        by_host: bool,
    ) -> Result<SegmentedStore, RdbError> {
        let mut store = SegmentedStore::empty(segments, by_host, true)?;
        for e in &data.entities {
            store
                .sdb
                .insert(schema::entity_table(e.kind), entity_row(e))?;
        }
        for ev in &data.events {
            store.sdb.insert(schema::EVENTS, event_row(ev))?;
            store.event_count += 1;
        }
        Ok(store)
    }

    /// The underlying segmented database.
    pub fn sdb(&self) -> &SegmentedDb {
        &self.sdb
    }

    /// Number of ingested events.
    pub fn event_count(&self) -> usize {
        self.event_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Entity, Event, OpType};
    use aiql_rdb::{CmpOp, Expr};

    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        for agent in 0..4u32 {
            let a = AgentId(agent);
            let base = (agent as u64 + 1) * 100;
            let p = d.add_entity(Entity::process(
                (base + 1).into(),
                a,
                format!("proc{agent}"),
                10,
            ));
            let f = d.add_entity(Entity::file((base + 2).into(), a, format!("/tmp/f{agent}")));
            let c = d.add_entity(Entity::netconn(
                (base + 3).into(),
                a,
                "10.0.0.1",
                1000,
                "10.0.0.99",
                443,
            ));
            for i in 0..5u64 {
                let t = Timestamp::from_ymd(2017, 1, 1 + (i as u32 % 2)).unwrap();
                d.add_event(Event::new(
                    (base + 10 + i).into(),
                    a,
                    p,
                    if i % 2 == 0 {
                        OpType::Write
                    } else {
                        OpType::Read
                    },
                    if i == 4 { c } else { f },
                    if i == 4 {
                        EntityKind::NetConn
                    } else {
                        EntityKind::File
                    },
                    Timestamp(t.0 + i as i64 * 1_000),
                ));
            }
        }
        d
    }

    #[test]
    fn ingest_counts_both_layouts() {
        let d = dataset();
        for cfg in [StoreConfig::partitioned(), StoreConfig::monolithic()] {
            let s = EventStore::ingest(&d, cfg).unwrap();
            assert_eq!(s.event_count(), 20);
            assert_eq!(s.entity_count(), 12);
        }
    }

    #[test]
    fn partitioned_layout_creates_partitions() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let pt = s.events_partitioned().expect("partitioned");
        assert!(pt.partition_count() >= 2, "at least 2 day partitions");
        let m = EventStore::ingest(&d, StoreConfig::monolithic()).unwrap();
        assert!(m.events_partitioned().is_none());
    }

    #[test]
    fn scan_events_prunes_and_filters() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let day0 = Timestamp::from_ymd(2017, 1, 1).unwrap();
        let conjuncts = vec![
            Expr::cmp_lit(schema::ev::START, CmpOp::Ge, day0.0),
            Expr::cmp_lit(
                schema::ev::START,
                CmpOp::Lt,
                day0.0 + aiql_rdb::partition::NANOS_PER_DAY,
            ),
            Expr::cmp_lit(schema::ev::AGENT, CmpOp::Eq, 2i64),
        ];
        let mut scanned = 0;
        let rows = s.scan_events(&conjuncts, &Prune::all(), &mut scanned);
        assert_eq!(rows.len(), 3, "agent 2's day-0 events (i = 0, 2, 4)");
        // All rows from agent 2.
        assert!(rows.iter().all(|r| r[schema::ev::AGENT] == Value::Int(2)));
    }

    #[test]
    fn columnar_scan_matches_row_store_oracle() {
        let d = dataset();
        let col = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let row = EventStore::ingest(&d, StoreConfig::partitioned().with_columnar(false)).unwrap();
        assert!(!col.dict().is_empty(), "entity strings interned");
        assert!(row.dict().is_empty(), "oracle keeps no dictionary");
        let day0 = Timestamp::from_ymd(2017, 1, 1).unwrap();
        let conjuncts = vec![
            Expr::cmp_lit(schema::ev::START, CmpOp::Ge, day0.0),
            Expr::cmp_lit(
                schema::ev::START,
                CmpOp::Lt,
                day0.0 + aiql_rdb::partition::NANOS_PER_DAY,
            ),
            Expr::cmp_lit(schema::ev::OPTYPE, CmpOp::Eq, schema::opcode(OpType::Write)),
        ];
        let (mut s1, mut s2) = (0, 0);
        let mut a = col.scan_events(&conjuncts, &Prune::all(), &mut s1);
        let mut b = row.scan_events(&conjuncts, &Prune::all(), &mut s2);
        a.sort();
        b.sort();
        assert_eq!(a, b, "columnar and row scans agree");
        assert!(!a.is_empty());
        // Entity-side string predicate through the dictionary kernels: the
        // `user` column is projected but unindexed.
        let (mut s1, mut s2) = (0, 0);
        let cstr = [Expr::cmp_lit(schema::proc::USER, CmpOp::Eq, "missing-user")];
        let pa = col.scan_entities(EntityKind::Process, &cstr, &mut s1);
        let pb = row.scan_entities(EntityKind::Process, &cstr, &mut s2);
        assert_eq!(pa, pb);
    }

    /// Prepared predicates on tables that span sealed chunks *and* an open
    /// tail (5 000 processes, 9 000 events in one partition; chunks seal at
    /// 4 096 rows): wildcards, their negations, NULL attributes and
    /// IN-lists of 1 / 100 / 5 000 ids return the same rows in the same
    /// order from the columnar store and the row-store oracle, on entity
    /// and event tables alike.
    #[test]
    fn prepared_predicates_match_row_store_oracle_over_chunks_and_tail() {
        let mut d = Dataset::new();
        let a = AgentId(0);
        let exes = [
            "cmd.exe",
            "CMD.EXE",
            "C:\\Tools\\osql.exe",
            "svchost.exe",
            "bash",
        ];
        for i in 0..5_000u64 {
            let mut p = Entity::process((i + 1).into(), a, exes[i as usize % exes.len()], 10);
            if i % 3 != 0 {
                p = p.with_attr("user", format!("user{}", i % 7));
            }
            d.add_entity(p);
        }
        let f = d.add_entity(Entity::file(9_000.into(), a, "/tmp/f"));
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        for i in 0..9_000u64 {
            d.add_event(Event::new(
                (20_000 + i).into(),
                a,
                (i * 7 % 5_000 + 1).into(),
                OpType::Write,
                f,
                EntityKind::File,
                Timestamp(t0 + i as i64 * 1_000),
            ));
        }
        let col = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let row = EventStore::ingest(&d, StoreConfig::partitioned().with_columnar(false)).unwrap();
        let procs = col.db().plain(schema::PROCESSES).unwrap();
        assert_eq!(procs.sealed_chunks().len(), 1);
        assert_eq!(procs.tail_chunk().len(), 5_000 - 4_096, "an unsealed tail");

        let not_like = |c, p: &str| Expr::NotLike(Box::new(Expr::Col(c)), p.into());
        let ids =
            |c, from: i64, n: i64| Expr::in_list(c, (from..from + n).map(Value::Int).collect());
        let entity_cases = [
            vec![Expr::like(schema::proc::EXE_NAME, "%cmd.exe")],
            vec![Expr::like(schema::proc::EXE_NAME, "c:%OSQL%")],
            vec![not_like(schema::proc::EXE_NAME, "%.exe")],
            vec![Expr::like(schema::proc::USER, "user3")],
            vec![not_like(schema::proc::USER, "%3")],
            vec![Expr::IsNull(Box::new(Expr::Col(schema::proc::USER)))],
            vec![ids(schema::proc::ID, 4_097, 1)],
            vec![
                ids(schema::proc::ID, 4_050, 100),
                Expr::like(schema::proc::EXE_NAME, "%s%"),
            ],
            vec![ids(schema::proc::ID, 3_000, 5_000)],
        ];
        for cstr in &entity_cases {
            let (mut pc, mut pr) = (ScanProfile::default(), ScanProfile::default());
            let got = col.scan_entities_profiled(EntityKind::Process, cstr, &mut 0, &mut pc);
            let want = row.scan_entities_profiled(EntityKind::Process, cstr, &mut 0, &mut pr);
            assert_eq!(got, want, "{cstr:?}");
            assert!(!want.is_empty(), "{cstr:?} must select something");
            assert_eq!(pr.columnar_scans, 0, "the oracle keeps no projection");
            // A wildcard on its own is a dictionary kernel.
            if matches!(cstr[..], [Expr::Like(..) | Expr::NotLike(..)]) {
                assert_eq!(pc.paths(), vec!["columnar"], "{cstr:?}");
                assert!(
                    pc.like_symbol_evals <= 12,
                    "a dozen distinct strings: {pc:?}"
                );
            }
        }
        let event_cases = [
            vec![ids(schema::ev::SUBJECT, 8, 1)],
            vec![ids(schema::ev::SUBJECT, 1, 100)],
            vec![ids(schema::ev::SUBJECT, 100, 5_000)],
            vec![
                ids(schema::ev::ID, 28_100, 5_000),
                Expr::cmp_lit(schema::ev::START, CmpOp::Ge, t0 + 8_500_000),
            ],
        ];
        for cstr in &event_cases {
            let got = col.scan_events(cstr, &Prune::all(), &mut 0);
            let want = row.scan_events(cstr, &Prune::all(), &mut 0);
            assert_eq!(got, want, "{cstr:?}");
            assert!(!want.is_empty(), "{cstr:?} must select something");
        }
    }

    #[test]
    fn scan_entities_uses_indexes() {
        let d = dataset();
        // Without a projection the index is the only alternative to
        // reading every row; with one, scanning four rows is the cheaper
        // path (`aiql-rdb`'s table tests cover that choice).
        let s = EventStore::ingest(&d, StoreConfig::partitioned().with_columnar(false)).unwrap();
        let mut scanned = 0;
        let rows = s.scan_entities(
            EntityKind::Process,
            &[Expr::cmp_lit(schema::proc::EXE_NAME, CmpOp::Eq, "proc2")],
            &mut scanned,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(scanned, 1, "index probe");
    }

    #[test]
    fn append_reports_day_and_group_rollover() {
        let mut s = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let day0 = Timestamp::from_ymd(2017, 1, 1).unwrap();
        let day1 = Timestamp::from_ymd(2017, 1, 2).unwrap();
        let ev = |id: u64, agent: u32, t: Timestamp| {
            Event::new(
                id.into(),
                AgentId(agent),
                1.into(),
                OpType::Read,
                2.into(),
                EntityKind::File,
                t,
            )
        };
        let day_idx = day0.0.div_euclid(aiql_rdb::partition::NANOS_PER_DAY);

        let o = s.append_event(&ev(1, 0, day0)).unwrap();
        assert_eq!(o.created_partition, Some((day_idx, 0)));
        let o = s.append_event(&ev(2, 1, day0)).unwrap();
        assert_eq!(o.created_partition, None, "same day, same group of 5");
        let o = s.append_event(&ev(3, 0, day1)).unwrap();
        assert_eq!(o.created_partition, Some((day_idx + 1, 0)), "day rollover");
        let o = s.append_event(&ev(4, 7, day0)).unwrap();
        assert_eq!(
            o.created_partition,
            Some((day_idx, 1)),
            "agent-group rollover"
        );

        // Monolithic stores never roll over.
        let mut m = EventStore::empty(StoreConfig::monolithic()).unwrap();
        let o = m.append_event(&ev(1, 0, day0)).unwrap();
        assert_eq!(o.created_partition, None);

        // The stamp tracks every append.
        assert_eq!(s.stamp().epoch, 4);
        assert_eq!(s.stamp().events, 4);
    }

    #[test]
    fn persist_to_and_open_round_trip_every_layout() {
        let d = dataset();
        let dir = std::env::temp_dir().join(format!("aiql-storage-persist-{}", std::process::id()));
        for (i, cfg) in [
            StoreConfig::partitioned(),
            StoreConfig::monolithic(),
            StoreConfig::partitioned().with_columnar(false),
        ]
        .into_iter()
        .enumerate()
        {
            let _ = std::fs::remove_dir_all(&dir);
            let live = EventStore::ingest(&d, cfg).unwrap();
            live.persist_to(&dir).unwrap();
            let back = EventStore::open(&dir).unwrap();
            assert_eq!(back.event_count(), live.event_count(), "config {i}");
            assert_eq!(back.entity_count(), live.entity_count());
            assert_eq!(back.stamp(), live.stamp());
            assert_eq!(back.config().columnar, cfg.columnar);
            assert_eq!(back.dict().len(), live.dict().len());
            assert_eq!(
                back.events_partitioned().map(|p| p.partition_count()),
                live.events_partitioned().map(|p| p.partition_count()),
            );
            // Scans agree, touching the same number of rows (same access
            // paths, same projection blocks).
            let conjuncts = [
                Expr::cmp_lit(schema::ev::AGENT, CmpOp::Eq, 2i64),
                Expr::cmp_lit(schema::ev::OPTYPE, CmpOp::Eq, schema::opcode(OpType::Write)),
            ];
            let (mut s1, mut s2) = (0, 0);
            assert_eq!(
                live.scan_events(&conjuncts, &Prune::all(), &mut s1),
                back.scan_events(&conjuncts, &Prune::all(), &mut s2),
            );
            assert_eq!(s1, s2, "identical rows touched after reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sql_joins_work_over_the_store() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::monolithic()).unwrap();
        let rs = s
            .db()
            .query(
                "SELECT DISTINCT p.exe_name FROM events e JOIN processes p \
                 ON e.subject_id = p.id JOIN netconns n ON e.object_id = n.id \
                 WHERE n.dst_ip = '10.0.0.99' ORDER BY p.exe_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4, "every agent's proc talked to .99");
    }

    #[test]
    fn time_span() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let (lo, hi) = s.time_span().unwrap();
        assert_eq!(lo, Timestamp(Timestamp::from_ymd(2017, 1, 1).unwrap().0));
        assert!(hi > lo);
        let empty = EventStore::empty(StoreConfig::monolithic()).unwrap();
        assert!(empty.time_span().is_none());
    }

    #[test]
    fn segmented_store_placements() {
        let d = dataset();
        let rr = SegmentedStore::ingest(&d, 2, false).unwrap();
        let bh = SegmentedStore::ingest(&d, 2, true).unwrap();
        assert_eq!(rr.event_count(), 20);
        assert_eq!(bh.event_count(), 20);
        // By-host: each segment's events all share agent parity.
        for seg in 0..2 {
            let db = bh.sdb().segment(seg);
            let pt = db.partitioned(schema::EVENTS).unwrap();
            let mut scanned = 0;
            let rows = pt.select(&[], &Prune::all(), &mut scanned);
            for r in rows {
                let agent = r[schema::ev::AGENT].as_int().unwrap();
                assert_eq!(agent.rem_euclid(2) as usize, seg);
            }
        }
    }
}
