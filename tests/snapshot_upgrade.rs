//! Stores checkpointed by earlier releases still recover: the same counts
//! and recovery report, the same rows for a fixed statement set, and each
//! is written again as today's v4, a file that reopens and is written
//! again byte for byte. Two fixtures, each with the rows its release
//! recorded (`<fixture>.rows`):
//!
//! - `tests/fixtures/v3-store`, written by the last release that wrote
//!   snapshot format v3;
//! - `tests/fixtures/v4-store`, written in v4 by the last release that
//!   kept entity chunks as rows plus a projection order. Its dataset adds
//!   ten idle processes per agent, so the first flush seals the processes
//!   table into such a chunk. Rewritten today, every sealed chunk of a
//!   projected table is kept as columns.
//!
//! Each fixture is [`write_store`] over [`dataset`]: 1 500 events of six
//! agents over two days, arriving out of time order in fifteen durable
//! flushes of 100, a checkpoint after the tenth; the last five flushes,
//! late entities and one clock sample stay in the log.

use aiql::engine::{Params, Session};
use aiql::model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::rdb::Prune;
use aiql::storage::persist::{self, RecoveryReport};
use aiql::storage::{schema, DurableStore, EventStore, RowRef, SharedStore, StoreConfig};
use std::path::{Path, PathBuf};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

const AGENTS: u64 = 6;
const EVENTS: u64 = 1_500;
const FLUSH: u64 = 100;
const CHECKPOINT_AFTER: u64 = 10;
const DAY: i64 = 86_400 * 1_000_000_000;

/// The fixed statement set whose rows the fixture recorded.
const STATEMENTS: [&str; 5] = [
    "proc p read file f return count p",
    "agentid = 2 proc p write file f return distinct p, f",
    "agentid = 1 (at \"01/02/2017\") proc p read || write file f[\"%/f/1/%\"] as e1 \
     return count(e1)",
    "proc p1 start proc p2 as e1 proc p2 write file f as e2 with e1 before e2 \
     return distinct p1, p2, f",
    "proc p connect ip i return distinct p, i",
];

/// Per agent a shell, three workers, `idle` processes no event names,
/// five files and a connection; a late file per agent arrives after the
/// checkpoint.
struct Data {
    entities: Vec<Entity>,
    late: Vec<Entity>,
    events: Vec<Event>,
}

fn dataset(idle: u64) -> Data {
    let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let (mut entities, mut late, mut events) = (Vec::new(), Vec::new(), Vec::new());
    for a in 0..AGENTS {
        let (agent, base) = (AgentId(a as u32), 1_000 * (a + 1));
        entities.push(Entity::process(base.into(), agent, format!("sh{a}.exe"), 1));
        for k in 0..3 {
            let exe = format!("w{a}-{k}.exe");
            entities.push(Entity::process(
                (base + 1 + k).into(),
                agent,
                exe,
                10 + k as i64,
            ));
        }
        for k in 0..idle {
            let exe = format!("idle{a}-{k}.exe");
            entities.push(Entity::process((base + 40 + k).into(), agent, exe, 40));
        }
        for k in 0..5 {
            let name = format!("/f/{a}/{k}");
            entities.push(Entity::file((base + 10 + k).into(), agent, name));
        }
        let src = format!("10.0.0.{a}");
        let dst = format!("192.168.0.{}", a % 3);
        entities.push(Entity::netconn(
            (base + 20).into(),
            agent,
            src,
            5000,
            dst,
            80,
        ));
        late.push(Entity::file(
            (base + 30).into(),
            agent,
            format!("/late/{a}"),
        ));
    }
    for i in 0..EVENTS {
        let a = i % AGENTS;
        let base = 1_000 * (a + 1);
        let worker = base + 1 + (i / AGENTS / 4) % 3;
        let file = base + 10 + (i / 3) % 5;
        let file = if i >= CHECKPOINT_AFTER * FLUSH && i % 5 == 0 {
            base + 30
        } else {
            file
        };
        let (subject, op, object, kind) = match (i / AGENTS) % 4 {
            0 => (base, OpType::Start, worker, EntityKind::Process),
            1 => (worker, OpType::Write, file, EntityKind::File),
            2 => (worker, OpType::Read, file, EntityKind::File),
            _ => (worker, OpType::Connect, base + 20, EntityKind::NetConn),
        };
        let slot = (i * 7_919) % EVENTS;
        let t = Timestamp(t0 + slot as i64 * (2 * DAY / EVENTS as i64));
        events.push(Event::new(
            (1_000_000 + i).into(),
            AgentId(a as u32),
            subject.into(),
            op,
            object.into(),
            kind,
            t,
        ));
    }
    Data {
        entities,
        late,
        events,
    }
}

/// One durable flush of `entities` then `events`, with an optional clock
/// sample.
fn flush(d: &mut DurableStore, entities: &[Entity], events: &[Event], clock: bool) {
    let rows: Vec<RowRef<'_>> = (entities.iter().map(RowRef::Entity))
        .chain(events.iter().map(RowRef::Event))
        .collect();
    let mut w = d.begin();
    for row in &rows {
        w.log(*row).unwrap();
    }
    if clock {
        w.log_clock_sample(AgentId(1), 1_000, 1_500).unwrap();
    }
    assert!(w.commit().unwrap().0.rejected.is_empty());
}

/// Writes the fixture's store over `dataset(idle)` into `dir`: every
/// entity with the first flush, a checkpoint after the tenth, the late
/// entities and the clock sample with the last flushes, no checkpoint at
/// the end.
fn write_store(dir: &Path, idle: u64) {
    let data = dataset(idle);
    let mut d = DurableStore::open(dir, StoreConfig::partitioned())
        .unwrap()
        .store;
    for (n, events) in data.events.chunks(FLUSH as usize).enumerate() {
        let n = n as u64;
        let entities: &[Entity] = match n {
            0 => &data.entities,
            _ if n == CHECKPOINT_AFTER => &data.late,
            _ => &[],
        };
        flush(&mut d, entities, events, n + 1 == EVENTS / FLUSH);
        if n + 1 == CHECKPOINT_AFTER {
            d.checkpoint_discarding_sync().unwrap();
        }
    }
}

/// Every statement with the rows it returns on `store`, as text.
fn rows(store: EventStore) -> String {
    let shared = SharedStore::new(store);
    let session = Session::open(&shared);
    let mut out = String::new();
    for stmt in STATEMENTS {
        let cursor = session.prepare(stmt).unwrap().bind(Params::new()).unwrap();
        let rows = cursor.execute().unwrap().into_result().rows;
        out.push_str(&format!("{stmt}\n{rows:?}\n"));
    }
    out
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aiql-upgrade-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies the fixture store `name`: a snapshot and a `wal/` segment.
fn copy_fixture(name: &str, to: &Path) {
    let from = Path::new(FIXTURES).join(name);
    for entry in walk(&from) {
        let rel = entry.strip_prefix(&from).unwrap();
        std::fs::create_dir_all(to.join(rel).parent().unwrap()).unwrap();
        std::fs::copy(&entry, to.join(rel)).unwrap();
    }
}

fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        match path.is_dir() {
            true => files.extend(walk(&path)),
            false => files.push(path),
        }
    }
    files
}

/// Every table of `store` — each `events` partition by key, then each
/// entity table — as its name, its rows in order and its chunk
/// boundaries.
fn tables(store: &EventStore) -> Vec<(String, Vec<Vec<Value>>, Vec<usize>)> {
    let parts = store.events_partitioned().partitions_for(&Prune::all());
    let entities = [schema::PROCESSES, schema::FILES, schema::NETCONNS]
        .map(|t| (t.to_string(), store.db().plain(t).unwrap()));
    let all = parts.into_iter().map(|(k, t)| (format!("events {k:?}"), t));
    all.chain(entities)
        .map(|(name, t)| {
            let rows = t.iter_rows().map(|r| r.to_row()).collect();
            (name, rows, t.chunk_boundaries())
        })
        .collect()
}

/// Sealed chunks of the entity tables, and how many of them keep columns.
fn entity_chunks(store: &EventStore) -> (usize, usize) {
    let tables = [schema::PROCESSES, schema::FILES, schema::NETCONNS];
    let chunks = tables
        .iter()
        .flat_map(|t| store.db().plain(t).unwrap().sealed_chunks());
    chunks.fold((0, 0), |(n, cols), c| {
        (n + 1, cols + c.is_projected() as usize)
    })
}

/// Recovers fixture `name`, whose snapshot starts with `magic` and whose
/// dataset has `idle` idle processes per agent, and rewrites it as v4 (see
/// the module docs).
fn upgrade(name: &str, magic: &[u8], idle: u64) {
    let dirs =
        ["old", "v4-a", "v4-b", "fresh", "converted"].map(|d| temp_dir(&format!("{name}-{d}")));
    let [store_dir, first, second, fresh, converted] = &dirs;
    copy_fixture(name, store_dir);
    // The checkpoint covers the first ten flushes' events and entities,
    // and is named for the log sequence it covers.
    let seq = 1_060 + AGENTS * idle;
    let snapshot_file = format!("snapshot-{seq:020}.bin");
    let snapshot = std::fs::read(store_dir.join(&snapshot_file)).unwrap();
    assert_eq!(&snapshot[..8], magic);

    let report = RecoveryReport {
        snapshot_epoch: seq,
        snapshot_wal_seq: seq,
        snapshot_events: 1_000,
        snapshot_entities: 60 + (AGENTS * idle) as usize,
        replayed_events: 500,
        replayed_entities: 6,
        replayed_clock_samples: 1,
        skipped_rows: 0,
        torn_bytes: 0,
        corrupt_snapshots: 0,
    };
    let recovered = persist::recover(store_dir).unwrap();
    assert_eq!(recovered.report, report);
    let store = recovered.store;
    let entities = 66 + (AGENTS * idle) as usize;
    assert_eq!(
        (store.event_count(), store.entity_count()),
        (1_500, entities)
    );
    let (chunks, as_columns) = entity_chunks(&store);
    assert_eq!(
        chunks > 0,
        idle > 0,
        "idle processes seal a processes chunk"
    );
    assert_eq!(as_columns, chunks, "every entity chunk kept as columns");
    let want = std::fs::read_to_string(Path::new(FIXTURES).join(format!("{name}.rows"))).unwrap();

    // Written as v4, reopened, written again: the same bytes.
    let written = store.persist_to(first).unwrap();
    let v4 = std::fs::read(&written).unwrap();
    assert_eq!(&v4[..8], persist::SNAPSHOT_MAGIC);
    assert_eq!(rows(store), want);
    let reopened = EventStore::open(first).unwrap();
    assert_eq!(entity_chunks(&reopened), (chunks, chunks));
    let rewritten = reopened.persist_to(second).unwrap();
    assert!(v4 == std::fs::read(&rewritten).unwrap(), "v4 → open → v4");
    assert_eq!(rows(reopened), want);

    // The same procedure today checkpoints in v4 and recovers alike. Its
    // checkpoint holds the fixture's snapshot rewritten, table by table
    // and row by row, under the same dictionary; only the chunks differ:
    // the fixture's store sealed its tails at every publish, today's
    // seals a tail only at the chunk size, which no table here reaches.
    write_store(fresh, idle);
    let recovered = persist::recover(fresh).unwrap();
    assert_eq!(recovered.report, report);
    assert_eq!(rows(recovered.store), want);
    let (at_checkpoint, seq) = persist::load_snapshot(&store_dir.join(&snapshot_file)).unwrap();
    let rewritten = persist::write_snapshot(&at_checkpoint, converted, seq).unwrap();
    let (fixture, _) = persist::load_snapshot(&rewritten).unwrap();
    let (today, _) = persist::load_snapshot(&fresh.join(&snapshot_file)).unwrap();
    assert_eq!(today.dict().strings(), fixture.dict().strings());
    let (want_tables, got_tables) = (tables(&fixture), tables(&today));
    assert_eq!(want_tables.len(), got_tables.len());
    for ((name, want_rows, _), (got_name, got_rows, bounds)) in want_tables.iter().zip(&got_tables)
    {
        assert_eq!(name, got_name);
        assert!(want_rows == got_rows, "{name}: rows differ");
        assert!(bounds.len() <= 1, "{name}: sealed early ({bounds:?})");
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn v3_store_recovers_and_is_rewritten_as_v4() {
    upgrade("v3-store", persist::SNAPSHOT_MAGIC_V3, 0);
}

#[test]
fn v4_store_with_entity_rows_is_rewritten_with_entity_columns() {
    upgrade("v4-store", persist::SNAPSHOT_MAGIC, 10);
}
