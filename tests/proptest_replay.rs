//! Differential property of recovery's column replay: recovering a store
//! from a snapshot and a log — each decoded frame applied straight from
//! its lanes (`EventStore::apply_frame`) — builds the store that applying
//! the same log's rows one at a time through `EventStore::apply` builds:
//! the same report, stamp and clock estimates, the same chunk boundaries
//! in every partition and table, and byte-identical snapshots.
//!
//! The logs hold entities of all three kinds with missing, extra, NULL and
//! mistyped attributes (a mistyped one is rejected, and skipped, both
//! ways), events over several partitions — bursts of them across a
//! sealed-chunk boundary when the snapshot's partition is nearly full —
//! and clock rows; the snapshot covers a sequence number that may fall
//! anywhere, inside a frame too. Both layouts run: with projections (the
//! frame's strings interned into the dictionary) and without.
//!
//! A second property holds the live flush to the same standard: random
//! flushes through a durable `Ingestor` — an entity the store rejects, a
//! row the log's codec refuses, an entity-heavy flush past the log's
//! ≈ 1 MiB early write (one flush, several frames), events over days,
//! partitions and a sealed-chunk boundary — publish a head whose stamp and
//! snapshot bytes are those of the store that reopening the directory,
//! with no checkpoint, recovers; and the flushes' dead letters are the
//! rows that recovery's apply rejects, with the same errors, in the same
//! order, plus the rows the codec refused, which never reach the log.

use aiql::ingest::{DeadRow, EventBatch, IngestConfig, Ingestor};
use aiql::model::event::ALL_OPS;
use aiql::model::schema as model_schema;
use aiql::model::{AgentId, Entity, EntityKind, Event, Timestamp, Value};
use aiql::rdb::{Prune, RdbError, DEFAULT_CHUNK_ROWS};
use aiql::storage::persist::{self, RecoveryReport};
use aiql::storage::timesync::{ClockSample, Synchronizer};
use aiql::storage::{schema, Applied, EventStore, RowRef, StoreConfig};
use aiql::wal::{Wal, WalOptions, WalRecord};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;
/// Events the snapshot's hot partition holds when it is prefilled: a
/// burst of [`BURST`] more crosses its first chunk boundary.
const PREFILL: usize = DEFAULT_CHUNK_ROWS - 40;
const BURST: usize = 120;
/// Strings the entities draw from, so frames repeat them and the
/// dictionary already holds some.
const WORDS: [&str; 6] = ["cmd.exe", "/tmp/a", "10.0.0.1", "root", "tcp", "sig"];

fn day0() -> i64 {
    Timestamp::from_ymd(2017, 1, 1).unwrap().0
}

/// A string-typed attribute's name, per kind (the rest are integers).
fn is_str(name: &str) -> bool {
    [
        "exe_name",
        "user",
        "cmd",
        "signature",
        "name",
        "owner",
        "group",
        "src_ip",
        "dst_ip",
        "protocol",
    ]
    .contains(&name)
}

/// One log row, drawn from `tag` and `bits`.
fn row(tag: u8, bits: u64) -> WalRecord {
    let agent = AgentId((bits % 8) as u32);
    let small = (bits >> 8) as i64 % 1_000_000;
    match tag {
        0 => WalRecord::ClockSample {
            agent,
            agent_time: small,
            server_time: small + (bits >> 40) as i64 % 5_000,
        },
        1 => WalRecord::SyncState {
            agent,
            sum_diff: small,
            count: 1 + (bits >> 40) as i64 % 4,
        },
        2..=5 => WalRecord::Entity(entity(bits)),
        _ => WalRecord::Event(event(bits)),
    }
}

/// An entity of any kind whose attributes are each absent, NULL, well
/// typed or — rarely — mistyped, plus names no table keeps.
fn entity(bits: u64) -> Entity {
    let kind = [EntityKind::File, EntityKind::Process, EntityKind::NetConn][(bits % 3) as usize];
    let mut e = Entity::new(
        (1 + (bits >> 2) % 50).into(),
        AgentId((bits >> 8) as u32 % 8),
        kind,
    );
    let names = (model_schema::entity_attrs(kind).iter().copied()).chain(["x", "id", "grp"]);
    for (k, name) in names.enumerate() {
        let pick = (bits >> (11 + 3 * k)) ^ (bits >> (37 + k));
        let word = WORDS[(pick >> 4) as usize % WORDS.len()];
        let value = match pick % 16 {
            0..=4 => continue,
            5 | 6 => Value::Null,
            7 => Value::Float(0.5),
            8 if name == "x" => Value::Bool(true),
            _ if is_str(name) => Value::str(word),
            n => Value::Int(n as i64 * 100),
        };
        e.attrs.insert(name.to_string(), value);
    }
    e
}

/// An event on one of two days and eight agents (two agent groups).
fn event(bits: u64) -> Event {
    let day = (bits >> 3) as i64 % 2;
    let t = day0() + day * NANOS_PER_DAY + (bits >> 20) as i64 % 1_000_000_000;
    hot_event(bits, AgentId((bits % 8) as u32), Timestamp(t))
}

fn hot_event(bits: u64, agent: AgentId, start: Timestamp) -> Event {
    let mut ev = Event::new(
        (bits >> 5).into(),
        agent,
        (1 + bits % 50).into(),
        ALL_OPS[(bits >> 16) as usize % ALL_OPS.len()],
        (1 + (bits >> 7) % 50).into(),
        [EntityKind::File, EntityKind::Process, EntityKind::NetConn][(bits >> 12) as usize % 3],
        start,
    );
    ev.end = Timestamp(start.0 + (bits >> 30) as i64 % 1_000);
    ev.seq = bits >> 33;
    ev.amount = (bits >> 44) as i64 - 1_000;
    ev.failure = (bits >> 60) as i32;
    ev
}

/// The events of a burst into the prefilled partition (agent 0, day 0).
fn burst(from: u64) -> impl Iterator<Item = WalRecord> {
    (from..from + BURST as u64).map(|i| {
        let t = Timestamp(day0() + 1_000_000 + i as i64 * 997);
        WalRecord::Event(hot_event(
            i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            AgentId(0),
            t,
        ))
    })
}

/// The snapshot's store: a few entities naming pool strings, and — when
/// `prefill` — a partition [`BURST`] events short of a sealed chunk.
fn base(columnar: bool, prefill: bool) -> EventStore {
    let mut store = EventStore::empty(StoreConfig::partitioned().with_columnar(columnar)).unwrap();
    for (i, word) in WORDS.iter().enumerate() {
        let p = Entity::process((100 + i as u64).into(), AgentId(0), *word, i as i64);
        store.apply(RowRef::Entity(&p)).unwrap();
    }
    for i in 0..if prefill { PREFILL } else { 0 } {
        let t = Timestamp(day0() + i as i64 * 1_000);
        store
            .apply(RowRef::Event(&hot_event(i as u64, AgentId(0), t)))
            .unwrap();
    }
    store
}

/// Every sealed chunk's length and the tail's, per events partition and
/// per entity table.
fn chunk_boundaries(store: &EventStore) -> Vec<(String, Vec<usize>, usize)> {
    let parts = store.events_partitioned().partitions_for(&Prune::all());
    let parts = parts.into_iter().map(|(key, t)| (format!("{key:?}"), t));
    let entities = [schema::PROCESSES, schema::FILES, schema::NETCONNS]
        .map(|name| (name.to_string(), store.db().plain(name).unwrap()));
    parts
        .chain(entities)
        .map(|(name, t)| {
            let sealed = t.sealed_chunks().iter().map(|c| c.len()).collect();
            (name, sealed, t.tail_len())
        })
        .collect()
}

/// The snapshot bytes `store` writes.
fn snapshot_bytes(store: &EventStore, dir: &Path) -> Vec<u8> {
    let path = persist::write_snapshot(store, dir, 1).unwrap();
    std::fs::read(path).unwrap()
}

/// Recovery's rules, one row at a time: the snapshot, then each logged
/// row through `EventStore::apply` — clock rows always folded, rows at or
/// below the snapshot's sequence number skipped, rejected rows counted.
fn row_at_a_time(dir: &Path, snapshot: &Path) -> (EventStore, Synchronizer, RecoveryReport) {
    let (mut store, covered) = persist::load_snapshot(snapshot).unwrap();
    let stamp = store.stamp();
    let mut report = RecoveryReport {
        snapshot_epoch: stamp.epoch,
        snapshot_wal_seq: covered,
        snapshot_events: stamp.events,
        snapshot_entities: stamp.entities,
        ..RecoveryReport::default()
    };
    let mut sync = Synchronizer::new();
    for (seq, rec) in aiql::wal::replay(persist::wal_dir(dir)).unwrap().records {
        let row = match &rec {
            WalRecord::ClockSample {
                agent,
                agent_time,
                server_time,
            } => {
                let (agent_time, server_time) = (*agent_time, *server_time);
                sync.record(
                    *agent,
                    ClockSample {
                        agent_time,
                        server_time,
                    },
                );
                report.replayed_clock_samples += 1;
                continue;
            }
            WalRecord::SyncState {
                agent,
                sum_diff,
                count,
            } => {
                sync.restore(*agent, *sum_diff, *count);
                report.replayed_clock_samples += 1;
                continue;
            }
            _ if seq <= covered => continue,
            WalRecord::Entity(e) => RowRef::Entity(e),
            WalRecord::Event(ev) => RowRef::Event(ev),
        };
        match (store.apply(row), row) {
            (Ok(_), RowRef::Entity(_)) => report.replayed_entities += 1,
            (Ok(_), RowRef::Event(_)) => report.replayed_events += 1,
            (Err(_), _) => report.skipped_rows += 1,
        }
    }
    (store, sync, report)
}

fn scratch() -> PathBuf {
    aiql::fault::testing::scratch_dir("proptest-replay")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn column_replay_equals_applying_each_row(
        flushes in prop::collection::vec(
            (prop::collection::vec((0u8..10, any::<u64>()), 0..40), any::<bool>()),
            1..6,
        ),
        columnar in any::<bool>(),
        prefill in any::<bool>(),
        covered in any::<u64>(),
    ) {
        let dir = scratch();
        let mut wal = Wal::open(persist::wal_dir(&dir), WalOptions::default()).unwrap();
        for (k, (rows, hot)) in flushes.iter().enumerate() {
            let bursts = hot.then(|| burst(k as u64 * BURST as u64));
            for rec in rows.iter().map(|&(tag, bits)| row(tag, bits)).chain(bursts.into_iter().flatten()) {
                wal.append(&rec).unwrap();
            }
            wal.sync().unwrap();
        }
        let covered = covered % (wal.last_seq() + 1);
        drop(wal);
        let snapshot = persist::write_snapshot(&base(columnar, prefill), &dir, covered).unwrap();

        let columns = persist::recover(&dir).unwrap();
        let (rows, sync, report) = row_at_a_time(&dir, &snapshot);
        prop_assert_eq!(&columns.report, &report);
        prop_assert_eq!(columns.store.stamp(), rows.stamp());
        prop_assert_eq!(columns.sync.state(), sync.state());
        prop_assert_eq!(chunk_boundaries(&columns.store), chunk_boundaries(&rows));
        let (a, b) = (dir.join("columns"), dir.join("rows"));
        prop_assert!(
            snapshot_bytes(&columns.store, &a) == snapshot_bytes(&rows, &b),
            "the two stores write different snapshots"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Entities of a heavy flush, and the bytes of each one's command line:
/// together they count past the log's ≈ 1 MiB early-write bound.
const HEAVY: usize = 300;
const HEAVY_CMD: usize = 4_096;
/// The id of the entity whose path the log's codec refuses.
const REFUSED: u64 = 9_999;

/// A string one byte over the codec's cap. Its bytes are allocated zeroed
/// and never written, so it takes no memory to speak of, and the codec
/// reads only its length; one copy serves every case.
fn oversized() -> Value {
    static TEXT: OnceLock<Arc<str>> = OnceLock::new();
    let text = TEXT.get_or_init(|| {
        let len = aiql::model::codec::MAX_LEN as usize + 1;
        // SAFETY: zeroed bytes are initialised `u8`s.
        let bytes: Arc<[u8]> = unsafe { Arc::<[u8]>::new_zeroed_slice(len).assume_init() };
        // SAFETY: NUL bytes are valid UTF-8, and `str` is laid out as `[u8]`.
        unsafe { Arc::from_raw(Arc::into_raw(bytes) as *const str) }
    });
    Value::Str(text.clone())
}

/// What a live flush carries besides its random rows.
#[derive(Debug, Clone, Copy)]
struct Extras {
    /// A burst of events into the hot partition (agent 0, day 0).
    burst: bool,
    /// [`HEAVY`] entities of [`HEAVY_CMD`]-byte command lines.
    heavy: bool,
    /// An entity the store rejects and one the codec refuses.
    poison: bool,
}

/// Flush `k`'s shipment: its random rows as an ingestor takes them — a
/// clock row as a sample (only a checkpoint logs a synchronizer state) —
/// then its extras; the first flush also fills the hot partition to
/// [`BURST`] events short of a sealed chunk.
fn shipment(k: usize, rows: &[(u8, u64)], extras: Extras) -> EventBatch {
    let mut b = EventBatch::new();
    for &(tag, bits) in rows {
        match row(tag, bits) {
            WalRecord::ClockSample {
                agent,
                agent_time,
                server_time,
            } => b.add_clock_sample(
                agent,
                ClockSample {
                    agent_time,
                    server_time,
                },
            ),
            WalRecord::SyncState { .. } => {}
            WalRecord::Entity(e) => drop(b.add_entity(e)),
            WalRecord::Event(ev) => drop(b.add_event(ev)),
        }
    }
    if k == 0 {
        b.events.extend(
            (0..PREFILL)
                .map(|i| hot_event(i as u64, AgentId(0), Timestamp(day0() + i as i64 * 1_000))),
        );
    }
    if extras.burst {
        for rec in burst(k as u64 * BURST as u64) {
            let WalRecord::Event(ev) = rec else {
                unreachable!("a burst is events")
            };
            b.add_event(ev);
        }
    }
    if extras.heavy {
        let cmd = Value::str("c".repeat(HEAVY_CMD));
        for i in 0..HEAVY as u64 {
            let p = Entity::process((200 + i).into(), AgentId(1), "sh", i as i64);
            b.add_entity(p.with_attr("cmd", cmd.clone()));
        }
    }
    if extras.poison {
        let e = Entity::process(1.into(), AgentId(0), "p", 1).with_attr("pid", "not-a-number");
        b.add_entity(e);
        let refused = Entity::file(REFUSED.into(), AgentId(0), "/f");
        b.add_entity(refused.with_attr("name", oversized()));
    }
    b
}

/// What recovering `dir` rejects, in order, with the store's reasons:
/// every decoded frame applied over an empty store of `config` (the
/// baseline snapshot) through `EventStore::apply_frame`, as recovery
/// applies it, and the rejected rows materialised; and the frames seen.
fn replay_rejections(dir: &Path, config: StoreConfig) -> (Vec<(String, RdbError)>, usize) {
    let mut store = EventStore::empty(config).unwrap();
    let (mut out, mut frames) = (Vec::new(), 0);
    let wal = persist::wal_dir(dir);
    aiql::wal::replay_with(wal, |frame| {
        frames += 1;
        let mut applied = Applied::default();
        store.apply_frame(frame, 0, &mut applied);
        let mut want = applied.rejected.iter().map(|(seq, _)| *seq).peekable();
        let mut rows = Vec::new();
        frame.records(|seq| want.next_if_eq(&seq).is_some(), &mut rows);
        let rows = rows.into_iter().map(|(_, rec)| format!("{rec:?}"));
        out.extend(rows.zip(applied.rejected.into_iter().map(|(_, error)| error)));
    })
    .unwrap();
    (out, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn a_durable_flush_publishes_the_store_recovery_rebuilds(
        flushes in prop::collection::vec(
            (prop::collection::vec((0u8..10, any::<u64>()), 0..40), 0u8..8),
            1..5,
        ),
        columnar in any::<bool>(),
    ) {
        let dir = scratch();
        let config = IngestConfig {
            store: StoreConfig::partitioned().with_columnar(columnar),
            ..IngestConfig::live()
        };
        let (mut ing, _) = Ingestor::durable(config, &dir).unwrap();
        let mut poisoned = 0;
        for (k, (rows, extras)) in flushes.iter().enumerate() {
            // The first flush carries every extra, so each case has them.
            let pick = |bit: u8| extras & bit != 0 || k == 0;
            let extras = Extras {
                burst: pick(1),
                heavy: pick(2),
                poison: pick(4),
            };
            poisoned += extras.poison as usize;
            ing.submit(shipment(k, rows, extras)).unwrap();
            ing.flush().unwrap();
        }
        let letters = ing.drain_dead_letters();
        let head = ing.shared().read();
        let (stamp, bytes) = (head.stamp(), snapshot_bytes(&head, &dir.join("live")));
        drop(head);
        drop(ing);

        let (reopened, report) = Ingestor::durable(config, &dir).unwrap();
        let recovered = reopened.shared().read();
        prop_assert_eq!(recovered.stamp(), stamp);
        prop_assert!(
            snapshot_bytes(&recovered, &dir.join("recovered")) == bytes,
            "the published head and the recovered store write different snapshots"
        );
        drop(recovered);
        drop(reopened);

        // The codec's refusals never reach the log; the rest of the dead
        // letters are what recovery's apply rejects.
        let (refused, letters): (Vec<_>, Vec<_>) = letters
            .into_iter()
            .partition(|l| matches!(&l.row, DeadRow::Entity(e) if e.id == REFUSED.into()));
        prop_assert_eq!(refused.len(), poisoned);
        prop_assert_eq!(report.expect("recovered").skipped_rows, letters.len());
        let letters: Vec<(String, RdbError)> = letters
            .into_iter()
            .map(|l| (format!("{:?}", l.row), l.error))
            .collect();
        let (rejected, frames) = replay_rejections(&dir, config.store);
        prop_assert!(letters.len() >= poisoned, "each poisoned entity is a dead letter");
        prop_assert_eq!(letters, rejected);
        prop_assert!(frames > flushes.len(), "a heavy flush is several frames");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
