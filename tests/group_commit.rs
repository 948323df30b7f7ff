//! Group commit, checked by counting syscalls instead of timing them.
//!
//! A durable flush is *encode, one write, one fsync, then apply*: however
//! many rows a shipment carries, it crosses the `wal.segment.write`
//! faultpoint exactly once (per-row appends crossed it once per record —
//! 1 076 times for the shipment below). The counts come from
//! `aiql_fault` tracing, so the test is immune to the host's pace. The
//! bytes the log ends up holding are compared with a reference encoder
//! kept in this file (segment and frame layout spelled out, byte-at-a-time
//! CRC): a flush is one column frame, its rows numbered from the frame's
//! first sequence number.

use aiql::fault::{self, testing::scratch_dir};
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::storage::timesync::ClockSample;
use aiql::wal::{Wal, WalOptions};

/// The bound at which the log writes pending rows early, and the bytes an
/// event counts toward it — eight for each of its eleven columns (both
/// private to `aiql-wal`; restated here because the test pins their
/// effect).
const PENDING_LIMIT: u64 = 1 << 20;
const EVENT_ROW_BYTES: u64 = 11 * 8;

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

/// How a segment starts: `AIQL`, then the version, 2, as a `u32`.
const SEGMENT_HEADER: &[u8; 8] = b"AIQL\x02\0\0\0";

/// A frame of reference: the least value as an `i64`, the offset width —
/// the fewest of 0, 1, 2, 4 or 8 bytes that holds the greatest offset —
/// then each value's offset from the least at that width, little-endian.
fn reference_column(vals: &[i64]) -> Vec<u8> {
    let base = vals.iter().copied().min().unwrap();
    let span = vals
        .iter()
        .map(|v| v.wrapping_sub(base) as u64)
        .max()
        .unwrap();
    let width = [0usize, 1, 2, 4, 8]
        .into_iter()
        .find(|w| *w == 8 || span < 1u64 << (8 * w))
        .unwrap();
    let mut out = base.to_le_bytes().to_vec();
    out.push(width as u8);
    for v in vals {
        out.extend_from_slice(&v.wrapping_sub(base).to_le_bytes()[..width]);
    }
    out
}

/// An entity kind's code: file 0, process 1, connection 2.
fn kind_code(kind: EntityKind) -> i64 {
    match kind {
        EntityKind::File => 0,
        EntityKind::Process => 1,
        EntityKind::NetConn => 2,
    }
}

fn u32_le(n: usize) -> [u8; 4] {
    (n as u32).to_le_bytes()
}

/// The entity section of entities whose attributes are all `Int` or
/// `Str`, never NULL, one type per name: the id, agent and kind columns;
/// the attribute names in first-use order; the distinct name sets, as
/// name codes; each entity's set code; then one value column per name —
/// `Int`: kind 1 and a frame of the values; `Str`: kind 2, the strings no
/// column has sent yet (`u32` count, each a `u32` length and UTF-8), and
/// a frame of codes into every string sent so far.
fn reference_entities(entities: &[Entity]) -> Vec<u8> {
    let col =
        |f: &dyn Fn(&Entity) -> i64| reference_column(&entities.iter().map(f).collect::<Vec<_>>());
    let mut out = col(&|e| e.id.0 as i64);
    out.extend(col(&|e| e.agent.0 as i64));
    out.extend(col(&|e| kind_code(e.kind)));
    let mut names: Vec<&str> = Vec::new();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut set_of = Vec::new();
    for e in entities {
        let set: Vec<usize> = e
            .attrs
            .keys()
            .map(|k| match names.iter().position(|n| n == k) {
                Some(i) => i,
                None => {
                    names.push(k);
                    names.len() - 1
                }
            })
            .collect();
        let code = sets.iter().position(|s| *s == set).unwrap_or_else(|| {
            sets.push(set);
            sets.len() - 1
        });
        set_of.push(code as i64);
    }
    out.extend(u32_le(names.len()));
    for name in &names {
        out.extend(u32_le(name.len()));
        out.extend(name.as_bytes());
    }
    out.extend(u32_le(sets.len()));
    for set in &sets {
        out.extend(u32_le(set.len()));
        set.iter().for_each(|code| out.extend(u32_le(*code)));
    }
    out.extend(reference_column(&set_of));
    let mut sent: Vec<&str> = Vec::new();
    for name in names {
        let values: Vec<&Value> = entities.iter().filter_map(|e| e.attrs.get(name)).collect();
        match values[0] {
            Value::Int(_) => {
                out.push(1);
                let ints = values.iter().map(|v| match v {
                    Value::Int(i) => *i,
                    _ => unreachable!("one type per name"),
                });
                out.extend(reference_column(&ints.collect::<Vec<_>>()));
            }
            Value::Str(_) => {
                out.push(2);
                let old = sent.len();
                let mut codes = Vec::new();
                for v in &values {
                    let Value::Str(s) = v else {
                        unreachable!("one type per name")
                    };
                    let code = sent.iter().position(|t| *t == &**s).unwrap_or_else(|| {
                        sent.push(s);
                        sent.len() - 1
                    });
                    codes.push(code as i64);
                }
                out.extend(u32_le(sent.len() - old));
                for s in &sent[old..] {
                    out.extend(u32_le(s.len()));
                    out.extend(s.as_bytes());
                }
                out.extend(reference_column(&codes));
            }
            v => unreachable!("an {v:?} attribute"),
        }
    }
    out
}

/// The event section: eleven columns — id, agent, subject, op (its
/// position in `ALL_OPS`), object, object kind, start, `end − start`,
/// seq, amount, failure.
fn reference_events(events: &[Event]) -> Vec<u8> {
    let columns: [&dyn Fn(&Event) -> i64; 11] = [
        &|ev| ev.id.0 as i64,
        &|ev| ev.agent.0 as i64,
        &|ev| ev.subject.0 as i64,
        &|ev| {
            aiql::model::event::ALL_OPS
                .iter()
                .position(|o| *o == ev.op)
                .unwrap() as i64
        },
        &|ev| ev.object.0 as i64,
        &|ev| kind_code(ev.object_kind),
        &|ev| ev.start.0,
        &|ev| ev.end.0.wrapping_sub(ev.start.0),
        &|ev| ev.seq as i64,
        &|ev| ev.amount,
        &|ev| ev.failure as i64,
    ];
    let mut out = Vec::new();
    for col in columns {
        out.extend(reference_column(
            &events.iter().map(col).collect::<Vec<_>>(),
        ));
    }
    out
}

/// `[u32 payload length][u32 CRC-32 of payload][payload]`, payload = the
/// first row's `u64` sequence number, the `u32` row count of each section
/// (clock samples, entities, events), then each section that has rows —
/// a clock section of kind (0, a sample), agent, agent time and server
/// time columns, the entity section, the event section.
fn reference_frame(
    first: u64,
    samples: &[(u32, i64, i64)],
    entities: &[Entity],
    events: &[Event],
) -> Vec<u8> {
    let mut payload = first.to_le_bytes().to_vec();
    for n in [samples.len(), entities.len(), events.len()] {
        payload.extend(u32_le(n));
    }
    if !samples.is_empty() {
        let col = |f: fn(&(u32, i64, i64)) -> i64| {
            reference_column(&samples.iter().map(f).collect::<Vec<_>>())
        };
        payload.extend(col(|_| 0));
        payload.extend(col(|s| s.0 as i64));
        payload.extend(col(|s| s.1));
        payload.extend(col(|s| s.2));
    }
    if !entities.is_empty() {
        payload.extend(reference_entities(entities));
    }
    if !events.is_empty() {
        payload.extend(reference_events(events));
    }
    let mut frame = u32_le(payload.len()).to_vec();
    frame.extend_from_slice(&bitwise_crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
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

    // What that one write carried: the segment header, then one frame —
    // the samples, the entities, then the events with agent 0's stamps
    // moved by the mean lag.
    let samples: Vec<(u32, i64, i64)> = samples.iter().map(|&(a, s)| (0, a, s)).collect();
    let events: Vec<Event> = events
        .into_iter()
        .map(|mut ev| {
            if ev.agent == AgentId(0) {
                ev.start = Timestamp(ev.start.0 + 2_000);
                ev.end = Timestamp(ev.end.0 + 2_000);
            }
            ev
        })
        .collect();
    assert_eq!(samples.len() + entities.len() + events.len(), 1_076);
    let mut reference = SEGMENT_HEADER.to_vec();
    reference.extend(reference_frame(1, &samples, &entities, &events));
    let segment = std::fs::read(dir.join("wal").join("seg-00000001.wal")).unwrap();
    assert!(segment == reference, "log bytes changed");
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
    // Its rows cross the early-write bound many times over; each crossing
    // cuts a frame and writes it.
    let segment = std::fs::read(dir.join("seg-00000001.wal")).unwrap();
    let rows = events.len() as u64 * EVENT_ROW_BYTES;
    assert!(rows > 4 * PENDING_LIMIT, "the loop must cross the bound");
    let writes = count(&trace, "wal.segment.write") as u64;
    assert!(
        writes <= rows.div_ceil(PENDING_LIMIT) + 1,
        "{writes} writes for {rows} bytes of rows"
    );
    assert_eq!(count(&trace, "wal.segment.sync"), 1);

    // Frames of the events that reach the bound, then one of the rest.
    let per_frame = PENDING_LIMIT.div_ceil(EVENT_ROW_BYTES) as usize;
    let mut reference = SEGMENT_HEADER.to_vec();
    for (k, chunk) in events.chunks(per_frame).enumerate() {
        reference.extend(reference_frame(1 + (k * per_frame) as u64, &[], &[], chunk));
    }
    assert!(segment == reference, "log bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_sync_with_nothing_to_make_durable_does_no_io() {
    let ctl = fault::control();
    let dir = scratch_dir("group-commit-empty");
    let (mut ing, _) = Ingestor::durable(IngestConfig::live(), &dir).unwrap();
    let base = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let mut shipment = EventBatch::new();
    let sample = ClockSample {
        agent_time: 0,
        server_time: 1_000,
    };
    shipment.add_clock_sample(AgentId(0), sample);
    shipment.events = (0..16u64)
        .map(|k| event(k, 0, base + k as i64 * 1_000))
        .collect();
    ing.submit(shipment).unwrap();
    ing.flush().unwrap();

    // A flush of an empty queue has nothing to write or fsync.
    ctl.start_trace();
    ing.flush().unwrap();
    let trace = ctl.take_trace();
    assert_eq!(count(&trace, "wal.segment.write"), 0, "trace: {trace:?}");
    assert_eq!(count(&trace, "wal.segment.sync"), 0, "trace: {trace:?}");

    // A checkpoint straight after a flush: its own sync and the rotation's
    // find nothing new, so the only fsync of the log is the one that makes
    // the synchronizer seed durable in the fresh segment.
    ctl.start_trace();
    ing.checkpoint().unwrap();
    let trace = ctl.take_trace();
    assert_eq!(count(&trace, "wal.segment.sync"), 1, "trace: {trace:?}");
    drop(ing);
    std::fs::remove_dir_all(&dir).unwrap();
}
