//! Kill-and-reopen property: dropping a durable ingestor at *any* point
//! mid-stream — any batching, any checkpoint cadence, with or without a
//! torn final WAL record — and reopening the directory must recover every
//! acknowledged event, and the recovered store must answer the paper's
//! query classes identically to a never-crashed store over the same
//! prefix.
//!
//! A flush reaches the log as one column frame in one `write(2)`, so a
//! crash can cut it anywhere, and a cut frame is dropped whole. The second
//! property tears a whole flush at *every* byte offset of its frame and
//! requires exactly the acknowledged, submission-order prefix each time.

use aiql::engine::Session;
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use proptest::prelude::*;
use std::path::PathBuf;

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];
const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

/// One random micro-event around the day-0 → day-1 midnight, so recovered
/// streams routinely cross the partition-day boundary.
#[derive(Debug, Clone)]
struct MicroEvent {
    agent: u32,
    subj: usize,
    op: usize,
    obj: usize,
    ms: i64,
}

fn micro_events() -> impl Strategy<Value = Vec<MicroEvent>> {
    prop::collection::vec(
        (0u32..2, 0usize..2, 0usize..3, 0usize..3, 0i64..4_000).prop_map(
            |(agent, subj, op, obj, ms)| MicroEvent {
                agent,
                subj,
                op,
                obj,
                ms,
            },
        ),
        1..60,
    )
}

fn build(events: &[MicroEvent]) -> Dataset {
    let mut data = Dataset::new();
    let boundary = Timestamp::from_ymd(2017, 1, 1).unwrap().0 + NANOS_PER_DAY;
    let mut proc_ids = Vec::new();
    let mut file_ids = Vec::new();
    for agent in 0..2u32 {
        let a = AgentId(agent);
        let base = (agent as u64 + 1) * 100;
        proc_ids.push(
            (0..2u64)
                .map(|i| {
                    data.add_entity(Entity::process(
                        (base + i).into(),
                        a,
                        format!("proc{agent}_{i}.exe"),
                        i as i64,
                    ))
                })
                .collect::<Vec<_>>(),
        );
        file_ids.push(
            (0..3u64)
                .map(|i| {
                    data.add_entity(Entity::file(
                        (base + 10 + i).into(),
                        a,
                        format!("/a{agent}/f{i}"),
                    ))
                })
                .collect::<Vec<_>>(),
        );
    }
    for (k, ev) in events.iter().enumerate() {
        let t = boundary - 2_000_000_000 + ev.ms * 1_000_000;
        data.add_event(
            Event::new(
                (k as u64 + 1_000).into(),
                AgentId(ev.agent),
                proc_ids[ev.agent as usize][ev.subj],
                OPS[ev.op],
                file_ids[ev.agent as usize][ev.obj],
                EntityKind::File,
                Timestamp(t),
            )
            .with_seq(k as u64),
        );
    }
    data
}

/// Pattern, dependency, and anomaly classes over the micro-schema.
fn tier1_queries() -> [&'static str; 3] {
    [
        "proc p1 read file f1 as e1\n proc p1 write file f2 as e2\n \
         with e1 before e2\n return distinct p1, f1, f2",
        "forward: proc p1 ->[write] file f1 <-[read] proc p2\n return distinct p1, f1, p2",
        "window = 1 sec step = 1 sec\n proc p read file f\n \
         return p, count(distinct f) as freq\n group by p\n having freq > 0",
    ]
}

fn sorted_rows(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut v: Vec<String> = rows
        .into_iter()
        .map(|r| {
            r.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    v.sort();
    v
}

fn scratch() -> PathBuf {
    aiql::fault::testing::scratch_dir("proptest-recovery")
}

/// Tears the newest WAL segment by `bite` bytes if it is big enough to
/// tear; returns whether a tear actually happened.
fn tear_tail(dir: &std::path::Path, bite: u64) -> bool {
    aiql_wal::testing::tear_last_segment(dir.join("wal"), bite).unwrap()
}

/// Differential: `recovered` must hold exactly the first `n` events (all
/// entities) and answer the tier-1 query classes like a never-crashed
/// store over that prefix.
fn assert_equals_oracle(recovered: &EventStore, data: &Dataset, n: usize) {
    let mut oracle = EventStore::empty(StoreConfig::partitioned()).unwrap();
    for e in &data.entities {
        oracle.append_entity(e).unwrap();
    }
    for ev in &data.events[..n] {
        oracle.append_event(ev).unwrap();
    }
    prop_assert_eq!(
        recovered.events_partitioned().partition_count(),
        oracle.events_partitioned().partition_count()
    );
    let recovered_engine = Session::open(&SharedStore::new(recovered.clone()));
    let oracle_engine = Session::open(&SharedStore::new(oracle.clone()));
    for q in tier1_queries() {
        let got = sorted_rows(recovered_engine.run(q).unwrap().rows);
        let want = sorted_rows(oracle_engine.run(q).unwrap().rows);
        prop_assert_eq!(&got, &want, "query diverged after recovery: {}", q);
    }
}

/// IDs of every stored event, ascending.
fn stored_event_ids(store: &EventStore) -> Vec<i64> {
    let mut ids: Vec<i64> = store
        .scan_events_profiled(
            &[],
            &aiql::rdb::Prune::all(),
            &mut 0,
            &mut Default::default(),
        )
        .iter()
        .map(|row| row.int(aiql::storage::schema::ev::ID).unwrap())
        .collect();
    ids.sort();
    ids
}

/// Offsets just past each frame of a log segment's bytes (an 8-byte
/// segment header, then `[u32 length][u32 crc][payload]` each).
fn frame_ends(segment: &[u8]) -> Vec<usize> {
    assert_eq!(&segment[..8], b"AIQL\x02\0\0\0", "a version-2 segment");
    let mut ends = Vec::new();
    let mut at = 8;
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        ends.push(at);
    }
    assert_eq!(at, segment.len(), "segment ends on a frame boundary");
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kill_and_reopen_equals_never_crashed_store(
        events in micro_events(),
        chunk in 1usize..12,
        checkpoint_every in 0usize..4,
        tear in any::<bool>(),
        bite in 1u64..12,
    ) {
        let data = build(&events);
        let dir = scratch();

        // Durable-stream the dataset (no clock skew: acknowledged order is
        // dataset order), checkpointing on a random cadence.
        let (mut ing, _) = Ingestor::durable(IngestConfig::live(), &dir).unwrap();
        let mut first = EventBatch::new();
        first.entities = data.entities.clone();
        ing.submit(first).unwrap();
        ing.flush().unwrap();
        for (i, chunk_events) in data.events.chunks(chunk).enumerate() {
            let mut b = EventBatch::new();
            b.events = chunk_events.to_vec();
            ing.submit(b).unwrap();
            ing.flush().unwrap();
            if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
                ing.checkpoint().unwrap();
            }
        }
        drop(ing); // kill — no final checkpoint

        // Optionally simulate a crash mid-write: a torn final flush.
        let torn = tear && tear_tail(&dir, bite);

        let recovered = EventStore::open(&dir).unwrap();
        let n = recovered.event_count();
        let total = data.events.len();
        if torn {
            // A bite of < one frame cuts the final flush's frame, which
            // goes whole; the rest of the acknowledged stream must survive.
            let last = data.events.chunks(chunk).last().map_or(0, <[_]>::len);
            prop_assert_eq!(n, total - last, "not exactly the torn final flush lost");
        } else {
            prop_assert_eq!(n, total, "clean kill must lose nothing");
        }
        prop_assert_eq!(recovered.entity_count(), data.entities.len());

        // Differential: a never-crashed store over the recovered prefix.
        assert_equals_oracle(&recovered, &data, n);

        // Recovery is idempotent: opening again changes nothing.
        let again = EventStore::open(&dir).unwrap();
        prop_assert_eq!(again.event_count(), n);
        prop_assert_eq!(again.stamp(), recovered.stamp());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_torn_at_any_byte_recovers_a_frame_boundary_prefix(
        events in micro_events(),
        chunk in 1usize..12,
        last in 2usize..9,
    ) {
        let data = build(&events);
        let total = data.events.len();
        let last = last.min(total);
        let acked = total - last;
        let dir = scratch();

        // Acknowledged stream, then one final flush whose write the crash
        // will cut short.
        let (mut ing, _) = Ingestor::durable(IngestConfig::live(), &dir).unwrap();
        let mut first = EventBatch::new();
        first.entities = data.entities.clone();
        ing.submit(first).unwrap();
        ing.flush().unwrap();
        for chunk_events in data.events[..acked].chunks(chunk) {
            let mut b = EventBatch::new();
            b.events = chunk_events.to_vec();
            ing.submit(b).unwrap();
            ing.flush().unwrap();
        }
        let segment = dir.join("wal").join("seg-00000001.wal");
        let before = std::fs::metadata(&segment).unwrap().len() as usize;
        let mut b = EventBatch::new();
        b.events = data.events[acked..].to_vec();
        ing.submit(b).unwrap();
        ing.flush().unwrap();
        drop(ing);

        let bytes = std::fs::read(&segment).unwrap();
        let ends = frame_ends(&bytes);
        // One frame a flush: the entities, each acknowledged chunk, and
        // the final flush, which is the segment's last frame.
        prop_assert_eq!(ends.len(), 1 + acked.div_ceil(chunk) + 1);
        prop_assert_eq!(ends[ends.len() - 2], before, "the flush is the last frame");

        // Cut the final flush's frame one byte shorter at a time, down to
        // nothing: every length the crashed write could have reached.
        for len in (before..bytes.len()).rev() {
            prop_assert!(tear_tail(&dir, 1));
            let recovered = EventStore::open(&dir).unwrap();
            // The cut frame goes whole, every frame before it survives.
            prop_assert_eq!(recovered.event_count(), acked, "cut at byte {} of {}", len, bytes.len());
            prop_assert_eq!(recovered.entity_count(), data.entities.len());
            let expected_ids: Vec<i64> = (0..acked as i64).map(|k| k + 1_000).collect();
            prop_assert_eq!(stored_event_ids(&recovered), expected_ids, "not a submission-order prefix");
            if len + 1 == bytes.len() {
                assert_equals_oracle(&recovered, &data, acked);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
