//! Group commit, checked by counting syscalls instead of timing them.
//!
//! A durable flush is *encode, one write, one fsync, then apply*: however
//! many rows a shipment carries, it crosses the `wal.segment.write`
//! faultpoint exactly once (per-row appends crossed it once per record —
//! 1 076 times for the shipment below). The counts come from
//! `aiql_fault` tracing, so the test is immune to the host's pace. The
//! bytes the log ends up holding are compared with a reference encoder
//! kept in this file (frame layout spelled out, byte-at-a-time CRC), so
//! batching provably did not change the on-disk format.

use aiql::fault::{self, testing::scratch_dir};
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::storage::timesync::ClockSample;
use aiql::wal::{Wal, WalOptions, WalRecord};

/// The bound at which the log writes pending frames early (private to
/// `aiql-wal`; restated here because the test pins its effect).
const PENDING_LIMIT: u64 = 1 << 20;

/// CRC-32 (IEEE, reflected), one bit at a time — shares no table and no
/// loop structure with the slicing kernel under test.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `[u32 payload length][u32 CRC-32 of payload][payload]`, payload =
/// `u64` sequence number + tagged record body, all little-endian.
fn reference_frame(seq: u64, rec: &WalRecord) -> Vec<u8> {
    let mut payload = seq.to_le_bytes().to_vec();
    rec.encode(&mut payload).unwrap();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&bitwise_crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn reference_log(records: &[WalRecord]) -> Vec<u8> {
    (1u64..)
        .zip(records)
        .flat_map(|(seq, rec)| reference_frame(seq, rec))
        .collect()
}

fn event(id: u64, agent: u32, t: i64) -> Event {
    Event::new(
        id.into(),
        AgentId(agent),
        (id % 50 + 1).into(),
        OpType::Write,
        (id % 7 + 100).into(),
        EntityKind::File,
        Timestamp(t),
    )
}

fn count(trace: &[String], point: &str) -> usize {
    trace.iter().filter(|p| *p == point).count()
}

#[test]
fn one_durable_flush_is_one_write_and_one_fsync() {
    let ctl = fault::control();
    let dir = scratch_dir("group-commit-flush");
    let (mut ing, _) = Ingestor::durable(IngestConfig::live(), &dir).unwrap();

    // One shipment: 2 clock samples, 50 entities, 1 024 events.
    let base = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let samples = [(0i64, 1_000i64), (5_000, 8_000)]; // mean lag 2 000 ns
    let entities: Vec<Entity> = (1..=50u64)
        .map(|i| Entity::process(i.into(), AgentId(0), format!("proc{i}.exe"), i as i64))
        .collect();
    let events: Vec<Event> = (0..1024u64)
        .map(|k| event(1_000 + k, (k % 2) as u32, base + k as i64 * 1_000))
        .collect();
    let mut shipment = EventBatch::new();
    for (agent_time, server_time) in samples {
        shipment.add_clock_sample(
            AgentId(0),
            ClockSample {
                agent_time,
                server_time,
            },
        );
    }
    shipment.entities = entities.clone();
    shipment.events = events.clone();
    ing.submit(shipment).unwrap();

    ctl.start_trace();
    let report = ing.flush().unwrap();
    let trace = ctl.take_trace();
    assert_eq!((report.entities, report.events), (50, 1024));
    assert_eq!(count(&trace, "wal.segment.write"), 1, "trace: {trace:?}");
    assert_eq!(count(&trace, "wal.segment.sync"), 1, "trace: {trace:?}");
    drop(ing);

    // What that one write carried: samples, entities, then the events with
    // agent 0's stamps moved by the mean lag — frame for frame what
    // per-record appends wrote.
    let mut records: Vec<WalRecord> = samples
        .iter()
        .map(|&(agent_time, server_time)| WalRecord::ClockSample {
            agent: AgentId(0),
            agent_time,
            server_time,
        })
        .collect();
    records.extend(entities.into_iter().map(WalRecord::Entity));
    records.extend(events.into_iter().map(|mut ev| {
        if ev.agent == AgentId(0) {
            ev.start = Timestamp(ev.start.0 + 2_000);
            ev.end = Timestamp(ev.end.0 + 2_000);
        }
        WalRecord::Event(ev)
    }));
    assert_eq!(records.len(), 1_076);
    let segment = std::fs::read(dir.join("wal").join("seg-00000001.wal")).unwrap();
    assert!(segment == reference_log(&records), "log bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unsynced_append_loop_writes_once_per_buffer_bound() {
    let ctl = fault::control();
    let dir = scratch_dir("group-commit-loop");
    let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
    let events: Vec<Event> = (0..100_000u64).map(|k| event(k, 3, k as i64)).collect();

    ctl.start_trace();
    for ev in &events {
        wal.append_event(ev).unwrap();
    }
    wal.sync().unwrap();
    let trace = ctl.take_trace();
    drop(wal);

    // One segment: the loop is a single flush, and a flush is never split.
    let segment = std::fs::read(dir.join("seg-00000001.wal")).unwrap();
    let bytes = segment.len() as u64;
    assert!(bytes > 4 * PENDING_LIMIT, "the loop must cross the bound");
    let writes = count(&trace, "wal.segment.write") as u64;
    assert!(
        writes <= bytes.div_ceil(PENDING_LIMIT) + 1,
        "{writes} writes for {bytes} bytes"
    );
    assert_eq!(count(&trace, "wal.segment.sync"), 1);

    let records: Vec<WalRecord> = events.into_iter().map(WalRecord::Event).collect();
    assert!(segment == reference_log(&records), "log bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}
