//! The write-ahead log's column frames, property-tested: random flushes
//! of every record kind — events with extreme fields and `end < start`,
//! entities whose attributes take every `Value` type (explicit `NULL`,
//! NaN bits, a name whose values change type from entity to entity),
//! clock samples and synchronizer states — are appended in random order,
//! synced and replayed, and must come back as the same `(seq, record)`
//! list. Each frame cut short at any byte is an error, and one with a
//! byte flipped is an error through the CRC and never a panic without it.
//!
//! A store checkpointed by an earlier release (`tests/fixtures/v4-store`,
//! whose log tail is a version-1 segment) takes a new flush in a fresh
//! version-2 segment and leaves the old one as it was.

use aiql::fault::testing::scratch_dir;
use aiql::model::event::ALL_OPS;
use aiql::model::{AgentId, Entity, EntityKind, Event, Timestamp, Value};
use aiql::storage::{persist, DurableStore, EventStore, RowRef, StoreConfig};
use aiql::wal::{self, testing::decode_payload, Wal, WalOptions, WalRecord};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// An `i64` from random bits, one time in two an extreme.
fn extreme(bits: u64) -> i64 {
    match bits % 8 {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => -1,
        _ => (bits >> 3) as i64 ^ (bits << 61) as i64,
    }
}

const NAMES: [&str; 4] = ["exe_name", "pid", "x", "y"];

/// An attribute value of a type picked by `pick`: every `Value` type.
fn value(pick: u64, bits: u64, text: &str) -> Value {
    match pick % 6 {
        0 => Value::Null,
        1 => Value::Bool(bits & 1 == 1),
        2 => Value::Int(extreme(bits)),
        // Any bits: NaNs of every payload, infinities, -0.0.
        3 => Value::Float(f64::from_bits(bits)),
        4 => Value::Float(f64::NAN),
        _ => Value::str(text),
    }
}

/// A record of kind `kind` from random bits.
fn record(kind: u8, a: u64, b: u64, c: u64, text: &str) -> WalRecord {
    match kind {
        0 => WalRecord::ClockSample {
            agent: AgentId(a as u32),
            agent_time: extreme(b),
            server_time: extreme(c),
        },
        1 => WalRecord::SyncState {
            agent: AgentId((a >> 7) as u32),
            sum_diff: extreme(b),
            count: extreme(c),
        },
        2 => {
            let kind = [EntityKind::File, EntityKind::Process, EntityKind::NetConn][a as usize % 3];
            let mut e = Entity::new(a.into(), AgentId(b as u32), kind);
            for (k, name) in NAMES.iter().enumerate() {
                // Each name present or absent, its value of any type.
                let pick = c >> (8 * k);
                if pick & 1 == 1 {
                    e.attrs
                        .insert(name.to_string(), value(pick >> 1, b ^ c, text));
                }
            }
            WalRecord::Entity(e)
        }
        _ => {
            let start = extreme(b);
            // `end` anywhere: before `start` as often as not.
            let end = if c & 3 == 0 { start } else { extreme(c >> 2) };
            let mut ev = Event::new(
                a.into(),
                AgentId((b >> 32) as u32),
                (c >> 17).into(),
                ALL_OPS[(a % ALL_OPS.len() as u64) as usize],
                (b ^ c).into(),
                [EntityKind::File, EntityKind::Process, EntityKind::NetConn][c as usize % 3],
                Timestamp(start),
            )
            .with_end(Timestamp(end))
            .with_seq(a.rotate_left(13))
            .with_amount(extreme(c ^ a));
            ev.failure = (b >> 5) as i32;
            WalRecord::Event(ev)
        }
    }
}

/// `(offset, length)` of each frame payload in a version-2 segment.
fn payloads(segment: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&segment[..8], b"AIQL\x02\0\0\0");
    let mut out = Vec::new();
    let mut at = 8;
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap()) as usize;
        out.push((at + 8, len));
        at += 8 + len;
    }
    assert_eq!(at, segment.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_flushes_replay_as_appended_and_corrupt_frames_are_errors(
        rows in prop::collection::vec(
            (0u8..4, any::<u64>(), any::<u64>(), any::<u64>(), "[a-c]{0,3}"),
            1..48,
        ),
        sync_every in 1usize..20,
        flip in 1u16..256,
    ) {
        let dir = scratch_dir("proptest-wal");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let mut want = Vec::new();
        for (i, (kind, a, b, c, text)) in rows.iter().enumerate() {
            let rec = record(*kind, *a, *b, *c, text);
            let seq = wal.append(&rec).unwrap();
            want.push((seq, rec));
            if (i + 1) % sync_every == 0 {
                wal.sync().unwrap();
            }
        }
        wal.sync().unwrap();
        drop(wal);
        prop_assert_eq!(
            want.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..=rows.len() as u64).collect::<Vec<_>>()
        );

        // Encode → decode gives back every row and its number (NaNs by
        // their bits: `Value` compares floats by total order).
        let replay = wal::replay(&dir).unwrap();
        prop_assert!(!replay.is_torn());
        prop_assert_eq!(&replay.records, &want);

        let segment_path = dir.join("seg-00000001.wal");
        let segment = std::fs::read(&segment_path).unwrap();
        let mut row = 0;
        for (at, len) in payloads(&segment) {
            let payload = &segment[at..at + len];
            let rows = decode_payload(payload).unwrap();
            prop_assert_eq!(&rows[..], &want[row..row + rows.len()]);
            // Cut short anywhere: an error.
            for cut in 0..len {
                prop_assert!(decode_payload(&payload[..cut]).is_err(), "cut at {}", cut);
            }
            // A byte flipped, the CRC bypassed: decodes or is an error,
            // never a panic.
            for i in 0..len {
                let mut flipped = payload.to_vec();
                flipped[i] ^= flip as u8;
                let _ = decode_payload(&flipped);
            }
            row += rows.len();
        }
        prop_assert_eq!(row, want.len());

        // A byte flipped under the CRC: replay stops before its frame.
        let (at, len) = *payloads(&segment).last().unwrap();
        let mut flipped = segment.clone();
        flipped[at + len / 2] ^= flip as u8;
        std::fs::write(&segment_path, &flipped).unwrap();
        let replay = wal::replay(&dir).unwrap();
        prop_assert!(replay.is_torn());
        let kept = want.len() - decode_payload(&segment[at..at + len]).unwrap().len();
        prop_assert_eq!(&replay.records[..], &want[..kept]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        match path.is_dir() {
            true => copy_dir(&path, &target),
            false => {
                std::fs::copy(&path, &target).unwrap();
            }
        }
    }
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn a_version_1_log_takes_the_next_flush_in_a_fresh_version_2_segment() {
    let dir = scratch_dir("wal-mixed-versions");
    copy_dir(&fixture("v4-store"), &dir);
    let wal_dir = persist::wal_dir(&dir);
    let v1 = std::fs::read(wal_dir.join("seg-00000002.wal")).unwrap();
    let old = wal::replay(&wal_dir).unwrap().records;
    let fixture_store = EventStore::open(&dir).unwrap();

    // One more flush: a file and an event writing it.
    let file = Entity::file(99_999.into(), AgentId(1), "/new/after/upgrade");
    let t = Timestamp::from_ymd(2017, 1, 2).unwrap();
    let ev = Event::new(
        7_000_000.into(),
        AgentId(1),
        2_001.into(),
        aiql::model::OpType::Write,
        file.id,
        EntityKind::File,
        t,
    );
    let mut durable = DurableStore::open(&dir, StoreConfig::partitioned())
        .unwrap()
        .store;
    let rows = [RowRef::Entity(&file), RowRef::Event(&ev)];
    let mut w = durable.begin();
    for row in rows {
        w.log(row).unwrap();
    }
    assert!(w.commit().unwrap().0.rejected.is_empty());
    drop(durable);

    // The version-1 segment is as it was; the flush is in a new one.
    assert_eq!(
        std::fs::read(wal_dir.join("seg-00000002.wal")).unwrap(),
        v1,
        "the version-1 segment is untouched"
    );
    let v2 = std::fs::read(wal_dir.join("seg-00000003.wal")).unwrap();
    assert!(v2.starts_with(b"AIQL\x02\0\0\0"), "a version-2 segment");
    let last = old.last().unwrap().0;
    let mut want = old.clone();
    want.push((last + 1, WalRecord::Entity(file)));
    want.push((last + 2, WalRecord::Event(ev)));
    assert_eq!(wal::replay(&wal_dir).unwrap().records, want);

    // Reopened: the fixture's rows and the new ones.
    let reopened = EventStore::open(&dir).unwrap();
    assert_eq!(reopened.event_count(), fixture_store.event_count() + 1);
    assert_eq!(reopened.entity_count(), fixture_store.entity_count() + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
