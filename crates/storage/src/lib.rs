//! Domain-specific data storage for system monitoring data (paper Sec. 3.2).
//!
//! The store keeps entities and events in relational tables (see [`schema`])
//! and exploits the data's spatial and temporal properties:
//!
//! - **Partitioned events**: the `events` table is split by `(day, agent
//!   group)` — the analogue of "one database per day" plus agent-group
//!   table partitions — so constrained queries prune partitions and the
//!   engine parallelizes across them. The entity tables stay plain.
//! - **Secondary indexes** of [`schema::index_plan`] on every table, and
//!   optionally **columnar projections** ([`StoreConfig::columnar`]),
//!   fixed when each table is created: [`schema::tables`] declares the
//!   four tables once, for a fresh store and a reopened one alike.
//!
//! Batch loads, live flushes and recovery all insert through the same
//! tables' checks and routing, so they build the same partitions and
//! indexes; live ingestion adds server-side [`timesync`] correction on the
//! way in.
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

/// The log's frame, the form [`EventStore::apply_frame`] takes rows in,
/// and the record it materialises a row as.
pub use aiql_wal::{ColumnFrame, WalRecord};
pub use durable::{DurableOpen, DurableStore, DurableWrite};
pub use live::{SharedStore, StoreSnapshot, StoreStamp, StoreWriter};
pub use metrics::record_scan;
pub use persist::{PersistError, RecoveryReport};

use aiql_model::schema as model_schema;
use aiql_model::{Dataset, Entity, EntityKind, Event, SharedDict, Timestamp, Value};
use aiql_rdb::{
    Database, InsertReport, PartKey, Prune, RdbError, ResidentBytes, Row, RowView, ScanProfile,
};
use std::path::{Path, PathBuf};

/// Store construction options.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Number of consecutive agents per spatial partition group of the
    /// events table.
    pub agent_group_size: u32,
    /// Whether tables keep columnar projections (dictionary-interned
    /// values, sealed chunks sorted by time with a zone map per column) in
    /// place of rows: a chunk keeps rows or columns, never both.
    pub columnar: bool,
}

impl StoreConfig {
    /// AIQL's layout: partitioned with groups of 5 agents, indexed, with
    /// columnar projections on the scan-heavy tables.
    pub fn partitioned() -> StoreConfig {
        StoreConfig {
            agent_group_size: 5,
            columnar: true,
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

    /// Overrides the spatial partition group size, builder style — smaller
    /// groups mean more partitions and therefore more scatter width on
    /// small agent fleets (the scatter speedup test uses groups of 1).
    pub fn with_agent_group(mut self, g: u32) -> StoreConfig {
        self.agent_group_size = g.max(1);
        self
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

/// Converts an event into its table row, on the stack: a columnar store
/// pushes it value by value, so appending an event allocates no row.
pub fn event_row(ev: &Event) -> [Value; schema::ev::WIDTH] {
    [
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

/// What applying log frames did ([`EventStore::apply_frame`]); a caller
/// applying several frames passes one `Applied` to each, and it adds up.
#[derive(Debug, Default)]
pub struct Applied {
    /// Entities inserted.
    pub entities: usize,
    /// Events inserted.
    pub events: usize,
    /// Every `(day, agent group)` partition an insert created, in creation
    /// order.
    pub new_partitions: Vec<PartKey>,
    /// Each row the store rejected, by sequence number, with the reason,
    /// in sequence order.
    pub rejected: Vec<(u64, RdbError)>,
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

/// The entity kinds, by their log code ([`aiql_model::codec::kind_code`]).
const KINDS: [EntityKind; 3] = [EntityKind::File, EntityKind::Process, EntityKind::NetConn];

/// The single-node event store.
///
/// Construct-and-query via [`EventStore::ingest`] (the append hooks
/// [`EventStore::append_entity`] / [`EventStore::append_event`], a row at
/// a time), or grow a live store a column frame at a time
/// ([`EventStore::apply_frame`]: what a flush applies and what recovery
/// replays) — every path maintains the same secondary indexes and
/// partitions, so queries plan identically either way.
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
    /// Creates an empty store with the tables of [`schema::tables`]: their
    /// schemas, partitioning, indexes and (optionally) columnar
    /// projections.
    pub fn empty(config: StoreConfig) -> Result<EventStore, RdbError> {
        let mut db = Database::new();
        let dict = SharedDict::new();
        for t in schema::tables(config, &dict) {
            match t.partitioning {
                Some(spec) => db.create_partitioned_table(t.name, t.schema, spec, &t.layout)?,
                None => db.create_table(t.name, t.schema, &t.layout)?,
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
    /// append hooks live ingestion uses), then seals every tail: a loaded
    /// store leaves no rows for its scans to interpret one by one.
    pub fn ingest(data: &Dataset, config: StoreConfig) -> Result<EventStore, RdbError> {
        let mut store = EventStore::empty(config)?;
        for e in &data.entities {
            store.append_entity(e)?;
        }
        for ev in &data.events {
            store.append_event(ev)?;
        }
        store.seal_tails();
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
    pub fn append_event(&mut self, ev: &Event) -> Result<InsertReport, RdbError> {
        let report = self
            .db
            .insert_reporting(schema::EVENTS, &event_row(ev)[..])?;
        self.event_count += 1;
        self.epoch += 1;
        Ok(report)
    }

    /// Inserts one row as a log frame's apply inserts it — the same schema
    /// check, partition routing, string interning, counts and epoch — a
    /// row at a time: the reference [`EventStore::apply_frame`] is tested
    /// against.
    pub fn apply(&mut self, row: RowRef<'_>) -> Result<(), RdbError> {
        match row {
            RowRef::Entity(e) => self.append_entity(e),
            RowRef::Event(ev) => self.append_event(ev).map(drop),
        }
    }

    /// Inserts the entity and event rows of a log frame whose sequence
    /// number is above `after`, in sequence order, straight from the
    /// frame's lanes: how a durable flush applies the frames it logged,
    /// how a flush without a log applies the frame it pushed, and how
    /// recovery applies each frame it decodes. Each row is built on the
    /// stack — an event's eleven lanes, an entity's id, agent and its
    /// kind's attributes, each string sharing the frame's value — and
    /// meets the tables' schema check and partition routing; no record,
    /// event or attribute map is built. Each row inserted, partition
    /// created and row rejected (and skipped) is added to `applied`.
    /// Clock rows are the caller's.
    pub fn apply_frame(&mut self, frame: &ColumnFrame, after: u64, applied: &mut Applied) {
        let ents = &frame.entities;
        let entities_from = frame.first() + frame.clocks() as u64;
        // Each name's column in each kind's table (by log code), if it
        // has one: the id and agent columns, then the kind's attributes.
        let column = |kind, name: &str| {
            let at = model_schema::entity_attrs(kind)
                .iter()
                .position(|a| *a == name);
            at.map(|at| 2 + at)
        };
        let columns: Vec<[Option<usize>; 3]> = (ents.names().iter())
            .map(|name| KINDS.map(|kind| column(kind, name)))
            .collect();
        ents.each(|i, attrs| {
            let seq = entities_from + i as u64;
            if seq <= after {
                return;
            }
            let kind = ents.kind[i] as usize;
            let mut row: [Value; 7] = std::array::from_fn(|_| Value::Null);
            row[0] = Value::Int(ents.id[i]);
            row[1] = Value::Int(ents.agent[i]);
            for &(name, value) in attrs {
                if let Some(col) = columns[name as usize][kind] {
                    row[col] = value.clone();
                }
            }
            match self.db.insert(schema::entity_table(KINDS[kind]), &row[..]) {
                Ok(()) => {
                    self.entity_count += 1;
                    self.epoch += 1;
                    applied.entities += 1;
                }
                Err(e) => applied.rejected.push((seq, e)),
            }
        });
        let events_from = entities_from + ents.len() as u64;
        let skip = (after + 1).saturating_sub(events_from);
        let skip = skip.min(frame.event_rows() as u64) as usize;
        // The log's op and kind codes are the table's (`schema::opcode`,
        // `schema::kind_code`): each lane is pushed as it is.
        let [id, agent, subject, op, object, kind, start, span, seq, amount, failure] =
            &frame.events;
        for i in skip..frame.event_rows() {
            let row = [
                Value::Int(id[i]),
                Value::Int(agent[i]),
                Value::Int(op[i]),
                Value::Int(subject[i]),
                Value::Int(object[i]),
                Value::Int(kind[i]),
                Value::Int(start[i]),
                Value::Int(start[i].wrapping_add(span[i])),
                Value::Int(seq[i]),
                Value::Int(amount[i]),
                Value::Int(failure[i]),
            ];
            match self.db.insert_reporting(schema::EVENTS, &row[..]) {
                Ok(report) => {
                    self.event_count += 1;
                    self.epoch += 1;
                    applied.events += 1;
                    applied.new_partitions.extend(report.created_partition);
                }
                Err(e) => applied.rejected.push((events_from + i as u64, e)),
            }
        }
    }

    /// Writes a point-in-time snapshot of the whole store to `dir`
    /// (atomically: temp file + rename, CRC-checksummed). The snapshot
    /// carries the store configuration, the shared dictionary, all row
    /// data, and each sealed chunk's projection order, so
    /// [`EventStore::open`] rebuilds an identical store — same partitions,
    /// indexes, projections, and dictionary codes.
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

    /// The underlying database (what the SQL baseline of Fig. 6 queries).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Seals every table's open tail into an immutable chunk (see
    /// [`Database::seal_tails`]) — how a batch load ends, so its scans read
    /// sealed chunks only. A live store never needs it: a tail seals by
    /// itself at its chunk size, and a publish shares an open tail as it
    /// is. Deliberately does **not** bump the epoch: no visible row
    /// changes, so a seal alone never triggers a spurious publish.
    pub fn seal_tails(&mut self) {
        self.db.seal_tails()
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

    /// Number of ingested events.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Number of ingested entities.
    pub fn entity_count(&self) -> usize {
        self.entity_count
    }

    /// The partitioned events table.
    pub fn events_partitioned(&self) -> &aiql_rdb::PartitionedTable {
        self.db
            .partitioned(schema::EVENTS)
            .expect("the events table is partitioned")
    }

    /// The store-wide string dictionary (populated only when the columnar
    /// layout is enabled).
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// Scans events with conjuncts — pruning partitions by `prune`
    /// intersected with what the conjuncts imply — and returns the matching
    /// rows borrowed from the store, with access-path and pruning
    /// accounting into `profile` (the storage hook behind the session API's
    /// `EXPLAIN`).
    pub fn scan_events_profiled(
        &self,
        conjuncts: &[aiql_rdb::Expr],
        prune: &Prune,
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<RowView<'_>> {
        let pt = self.events_partitioned();
        let merged = prune.intersect(&pt.prune_from_conjuncts(conjuncts));
        pt.select(conjuncts, &merged, scanned, profile)
    }

    /// Scans an entity table with conjuncts (index-accelerated) and returns
    /// the matching rows borrowed from the store, with access-path
    /// accounting into `profile`.
    pub fn scan_entities_profiled(
        &self,
        kind: EntityKind,
        conjuncts: &[aiql_rdb::Expr],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<RowView<'_>> {
        let t = self
            .db
            .plain(schema::entity_table(kind))
            .expect("entity tables are plain");
        profile.partitions_total += 1;
        profile.partitions_scanned += 1;
        let (_, pos) = t.select_profiled(conjuncts, scanned, profile);
        t.rows_at(&pos).collect()
    }

    /// The time span (min/max event start) present in the store, if any.
    /// One pass over every partition's rows, sealed chunks and open tails
    /// alike, with no per-row allocation.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.events_partitioned()
            .partitions_for(&Prune::all())
            .into_iter()
            .flat_map(|(_, t)| t.iter_rows())
            .map(|r| r.int(schema::ev::START).unwrap_or(0))
            .fold(None, |span, t| match span {
                None => Some((t, t)),
                Some((lo, hi)) => Some((t.min(lo), t.max(hi))),
            })
            .map(|(lo, hi)| (Timestamp(lo), Timestamp(hi)))
    }

    /// Where the store's memory goes: rows, indexes and projections over
    /// every table, and the shared dictionary.
    pub fn resident_bytes(&self) -> StoreBytes {
        StoreBytes {
            tables: self.db.resident_bytes(),
            dict: self.dict.read().resident_bytes() as u64,
        }
    }
}

/// A store's resident bytes by part (see [`EventStore::resident_bytes`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreBytes {
    /// Rows, indexes and projections, over every table.
    pub tables: ResidentBytes,
    /// The shared string dictionary.
    pub dict: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::event::ALL_OPS;
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

    /// Every event matching `conjuncts`, borrowed from `s`.
    fn events<'a>(s: &'a EventStore, conjuncts: &[Expr]) -> Vec<RowView<'a>> {
        s.scan_events_profiled(
            conjuncts,
            &Prune::all(),
            &mut 0,
            &mut ScanProfile::default(),
        )
    }

    /// [`EventStore::apply_frame`] stores a logged op or kind code as it
    /// is: in the table as in the log, an op code indexes [`ALL_OPS`] and
    /// a kind code [`KINDS`].
    #[test]
    fn log_codes_index_the_op_and_kind_tables() {
        let d = dataset();
        let mut frame = ColumnFrame::default();
        frame.restart(1);
        d.entities.iter().for_each(|e| frame.push_entity(e));
        d.events.iter().for_each(|ev| frame.push_event(ev));
        let mut store = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let mut applied = Applied::default();
        store.apply_frame(&frame, 0, &mut applied);
        assert_eq!((applied.entities, applied.events), (12, 20));
        let rows = events(&store, &[]);
        assert_eq!(rows.len(), d.events.len());
        for row in rows {
            let id = row.int(schema::ev::ID).unwrap();
            let ev = d.events.iter().find(|ev| ev.id.0 as i64 == id).unwrap();
            let op = row.int(schema::ev::OPTYPE).unwrap() as usize;
            let kind = row.int(schema::ev::OBJKIND).unwrap() as usize;
            assert_eq!((ALL_OPS[op], KINDS[kind]), (ev.op, ev.object_kind));
        }
    }

    #[test]
    fn ingest_counts_both_layouts() {
        let d = dataset();
        for cfg in [
            StoreConfig::partitioned(),
            StoreConfig::partitioned().with_columnar(false),
        ] {
            let s = EventStore::ingest(&d, cfg).unwrap();
            assert_eq!(s.event_count(), 20);
            assert_eq!(s.entity_count(), 12);
        }
    }

    #[test]
    fn partitioned_layout_creates_partitions() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let pt = s.events_partitioned();
        assert!(pt.partition_count() >= 2, "at least 2 day partitions");
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
        let rows = events(&s, &conjuncts);
        assert_eq!(rows.len(), 3, "agent 2's day-0 events (i = 0, 2, 4)");
        // All rows from agent 2.
        assert!(rows.iter().all(|r| r.int(schema::ev::AGENT) == Some(2)));
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
        let a = events(&col, &conjuncts);
        assert_eq!(a, events(&row, &conjuncts), "columnar and row scans agree");
        assert!(!a.is_empty());
        // Entity-side string predicate through the dictionary kernels: the
        // `user` column is projected but unindexed.
        let cstr = [Expr::cmp_lit(schema::proc::USER, CmpOp::Eq, "missing-user")];
        let mut profile = ScanProfile::default();
        let pa = col.scan_entities_profiled(EntityKind::Process, &cstr, &mut 0, &mut profile);
        let pb = row.scan_entities_profiled(EntityKind::Process, &cstr, &mut 0, &mut profile);
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
        // Grown row by row: the batch path would seal the tails.
        let grow = |config| {
            let mut s = EventStore::empty(config).unwrap();
            for e in &d.entities {
                s.append_entity(e).unwrap();
            }
            for ev in &d.events {
                s.append_event(ev).unwrap();
            }
            s
        };
        let col = grow(StoreConfig::partitioned());
        let row = grow(StoreConfig::partitioned().with_columnar(false));
        let procs = col.db().plain(schema::PROCESSES).unwrap();
        assert_eq!(procs.sealed_chunks().len(), 1);
        assert_eq!(procs.tail_len(), 5_000 - 4_096, "an unsealed tail");

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
            let got = events(&col, cstr);
            let want = events(&row, cstr);
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
        let rows = s.scan_entities_profiled(
            EntityKind::Process,
            &[Expr::cmp_lit(schema::proc::EXE_NAME, CmpOp::Eq, "proc2")],
            &mut scanned,
            &mut ScanProfile::default(),
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
                back.events_partitioned().partition_count(),
                live.events_partitioned().partition_count(),
            );
            // Scans agree, touching the same number of rows (same access
            // paths, same zone-map pruning).
            let conjuncts = [
                Expr::cmp_lit(schema::ev::AGENT, CmpOp::Eq, 2i64),
                Expr::cmp_lit(schema::ev::OPTYPE, CmpOp::Eq, schema::opcode(OpType::Write)),
            ];
            let (mut s1, mut s2) = (0, 0);
            let mut profile = ScanProfile::default();
            assert_eq!(
                live.scan_events_profiled(&conjuncts, &Prune::all(), &mut s1, &mut profile),
                back.scan_events_profiled(&conjuncts, &Prune::all(), &mut s2, &mut profile),
            );
            assert_eq!(s1, s2, "identical rows touched after reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn time_span() {
        let d = dataset();
        let s = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let (lo, hi) = s.time_span().unwrap();
        assert_eq!(lo, Timestamp(Timestamp::from_ymd(2017, 1, 1).unwrap().0));
        assert_eq!(hi, d.events.iter().map(|e| e.start).max().unwrap());
        let empty = EventStore::empty(StoreConfig::partitioned()).unwrap();
        assert!(empty.time_span().is_none());

        // Appended, not sealed: every event sits in an open tail.
        let mut tails = EventStore::empty(StoreConfig::partitioned()).unwrap();
        for e in &d.entities {
            tails.append_entity(e).unwrap();
        }
        for ev in &d.events {
            tails.append_event(ev).unwrap();
        }
        for (_, t) in tails.events_partitioned().partitions_for(&Prune::all()) {
            assert!(t.sealed_chunks().is_empty());
        }
        assert_eq!(tails.time_span(), Some((lo, hi)));
    }
}
