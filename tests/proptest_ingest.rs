//! Differential property tests:
//!
//! 1. Streaming a shuffled, skewed, batched event stream through
//!    `aiql_ingest::Ingestor` must yield the same query results as batch
//!    `EventStore::ingest` of the corrected dataset — for the paper's three
//!    query classes (pattern, dependency, anomaly), including streams that
//!    arrive out of timestamp order and cross a partition-day boundary.
//! 2. The columnar scan path (dictionary kernels, zone maps, time-sorted
//!    blocks) must be result-equivalent to the pure row store — with the
//!    columnar projections built in batch *and* grown live by appends that
//!    cross the day boundary, and with sealed chunks that keep only their
//!    projection, re-checking conjuncts no kernel answers on decoded rows.
//! 3. Snapshot isolation of the epoch-swapped store: a snapshot pinned
//!    before a flush sees exactly the pre-flush store no matter how much
//!    streams in afterwards, and concurrent readers racing one writer only
//!    ever observe published flush boundaries — every result equals what
//!    the same query computes single-threaded on the snapshot with the
//!    same stamp, and the final state equals the batch oracle.
//! 4. Chunking: a tail seals only at its chunk size, never at a publish,
//!    so a stream arriving in time order is chunked exactly as a batch
//!    load of it, and each publish interval copies at most one partial
//!    tail block per table it touches.

use aiql::engine::{EngineConfig, Session};
use aiql::rdb::{
    CmpOp, ColumnarSpec, Expr, Layout, Prune, RowView, ScanProfile, SharedDict, Table,
};
use aiql::storage::schema::{self, ev, file};
use aiql::storage::timesync::ClockSample;
use aiql::storage::{entity_row, EventStore, SharedStore, StoreConfig};
use aiql_datagen::stream::{stream, StreamConfig};
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use proptest::prelude::*;

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];
const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

/// One random micro-event: `(agent, proc, op, file, millis)` where `millis`
/// spans a 4-second window centered on the day-0 → day-1 midnight, so
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
        1..80,
    )
}

/// Builds the true (server-time) dataset: per agent, 2 processes + 3 files,
/// events stamped around midnight of Jan 1→2.
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
    data.sort_events();
    data
}

/// The paper's three query classes over this micro-schema.
fn tier1_queries() -> [&'static str; 3] {
    [
        // Pattern (multievent) with a temporal relation.
        "proc p1 read file f1 as e1\n proc p1 write file f2 as e2\n \
         with e1 before e2\n return distinct p1, f1, f2",
        // Dependency (forward tracking), compiled to multievent form.
        "forward: proc p1 ->[write] file f1 <-[read] proc p2\n return distinct p1, f1, p2",
        // Anomaly: sliding windows with a per-process frequency aggregate.
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

/// Streams `data` through an `Ingestor` (skewed stamps, bounded queue,
/// interleaved flushes) and returns the resulting live store handle.
fn stream_ingest(
    data: &Dataset,
    batch_events: usize,
    jitter: usize,
    seed: u64,
) -> aiql::storage::SharedStore {
    let cfg = StreamConfig {
        batch_events,
        jitter_events: jitter,
        max_skew_ns: 1_500_000_000,
        seed,
    };
    let (batches, skews) = stream(data, &cfg);
    // A small queue bound forces back-pressure-driven flushes mid-stream.
    let mut ing =
        Ingestor::new(IngestConfig::live().with_high_water_mark(batch_events.max(8) * 2)).unwrap();
    for (i, sb) in batches.into_iter().enumerate() {
        let mut eb = EventBatch {
            entities: sb.entities,
            events: sb.events,
            clock_samples: Vec::new(),
        };
        if i == 0 {
            // Agents report one exact clock sample up front, so the on-the-fly
            // correction reconstructs server time exactly.
            for s in &skews {
                eb.add_clock_sample(
                    s.agent,
                    ClockSample {
                        agent_time: 0,
                        server_time: s.offset_ns,
                    },
                );
            }
        }
        ing.submit_with_flush(eb).unwrap();
    }
    let (shared, stats) = ing.finish().unwrap();
    assert_eq!(stats.events_applied as usize, data.events.len());
    shared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_equals_batch_for_tier1_queries(
        events in micro_events(),
        batch_events in 1usize..12,
        jitter in 0usize..24,
        seed in any::<u64>(),
    ) {
        let data = build(&events);
        let batch_store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let shared = stream_ingest(&data, batch_events, jitter, seed);

        {
            let live = shared.read();
            prop_assert_eq!(live.event_count(), batch_store.event_count());
            prop_assert_eq!(live.entity_count(), batch_store.entity_count());
            // Identical physical layout: same partitions materialized.
            prop_assert_eq!(
                live.events_partitioned().partition_count(),
                batch_store.events_partitioned().partition_count()
            );
            prop_assert_eq!(
                live.events_partitioned().days(),
                batch_store.events_partitioned().days()
            );
        }

        let batch_engine = Session::open(&SharedStore::new(batch_store.clone()));
        for q in tier1_queries() {
            let want = sorted_rows(batch_engine.run(q).unwrap().rows);
            let got = sorted_rows(
                Session::open(&shared).run(q).unwrap().rows,
            );
            prop_assert_eq!(&got, &want, "query diverged: {}", q);
        }
    }

    #[test]
    fn columnar_equals_row_store_for_tier1_queries(
        events in micro_events(),
        batch_events in 1usize..12,
        seed in any::<u64>(),
    ) {
        let data = build(&events);
        // The row store is the correctness oracle: same partitioning and
        // indexes, no columnar projections.
        let oracle =
            EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false)).unwrap();
        // Columnar, built two ways: batch-loaded, and grown live through the
        // ingestor (appends to open column blocks, sealing, rollover).
        let batch = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let live = stream_ingest(&data, batch_events, batch_events * 2, seed);
        // And batch-loaded with every tail sealed every `batch_events`
        // appends: many small sealed chunks, each kept as columns.
        let mut frozen = EventStore::empty(StoreConfig::partitioned()).unwrap();
        for e in &data.entities {
            frozen.append_entity(e).unwrap();
        }
        for (i, ev) in data.events.iter().enumerate() {
            frozen.append_event(ev).unwrap();
            if (i + 1) % batch_events == 0 {
                frozen.seal_tails();
            }
        }

        let oracle_engine = Session::open(&SharedStore::new(oracle.clone()));
        let batch_engine = Session::open(&SharedStore::new(batch.clone()));
        let frozen_engine = Session::open(&SharedStore::new(frozen.clone()));
        // The tier-1 classes plus a window-constrained pattern that drives
        // the time-sorted block narrowing and a LIKE residual.
        let windowed = r#"(at "01/01/2017") proc p1["%proc%"] write file f1
                          return distinct p1, f1"#;
        for q in tier1_queries().into_iter().chain([windowed]) {
            let want = sorted_rows(oracle_engine.run(q).unwrap().rows);
            let got_batch = sorted_rows(batch_engine.run(q).unwrap().rows);
            prop_assert_eq!(&got_batch, &want, "columnar batch diverged: {}", q);
            let got_frozen = sorted_rows(frozen_engine.run(q).unwrap().rows);
            prop_assert_eq!(&got_frozen, &want, "columnar frozen diverged: {}", q);
            let got_live = sorted_rows(
                Session::open(&live).run(q).unwrap().rows,
            );
            prop_assert_eq!(&got_live, &want, "columnar live diverged: {}", q);
        }

        // Straight through storage, conjuncts no kernel answers — `<>`,
        // `OR`, `NOT`, Int/Float comparisons — so projected chunks re-check
        // decoded rows: the same rows in the same order as the row store
        // (the live store's arrival order differs, so its rows are sorted).
        let midnight = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let not = |e: Expr| Expr::Not(Box::new(e));
        let event_cases = [
            vec![],
            vec![Expr::cmp_lit(ev::OPTYPE, CmpOp::Ne, 1i64)],
            vec![Expr::Or(vec![
                Expr::cmp_lit(ev::AGENT, CmpOp::Eq, 1i64),
                Expr::cmp_lit(ev::START, CmpOp::Lt, midnight),
            ])],
            vec![not(Expr::cmp_lit(ev::SUBJECT, CmpOp::Eq, 100i64))],
            vec![Expr::cmp_lit(ev::SUBJECT, CmpOp::Eq, 201.0)],
            vec![
                Expr::in_list(ev::OBJECT, vec![Value::Float(110.0), Value::Int(211)]),
                Expr::cmp_lit(ev::SEQ, CmpOp::Ge, 3.5),
            ],
        ];
        let events = |s: &EventStore, c: &[Expr]| {
            let rows = s.scan_events_profiled(c, &Prune::all(), &mut 0, &mut ScanProfile::default());
            rows.iter().map(RowView::to_row).collect::<Vec<_>>()
        };
        for c in &event_cases {
            let want = events(&oracle, c);
            prop_assert_eq!(&events(&batch, c), &want, "batch scan diverged: {:?}", c);
            prop_assert_eq!(&events(&frozen, c), &want, "frozen scan diverged: {:?}", c);
            prop_assert_eq!(
                sorted_rows(events(&live.read(), c)),
                sorted_rows(want),
                "live scan diverged: {:?}", c
            );
        }
        let entity_cases = [
            vec![Expr::cmp_lit(file::NAME, CmpOp::Ne, "/a0/f1")],
            vec![Expr::Or(vec![
                Expr::like(file::NAME, "%f2"),
                Expr::IsNull(Box::new(Expr::Col(file::OWNER))),
            ])],
            vec![not(Expr::cmp_lit(file::ID, CmpOp::Ge, 111.5))],
        ];
        for c in &entity_cases {
            let files = |s: &EventStore| {
                let rows = s.scan_entities_profiled(EntityKind::File, c, &mut 0, &mut ScanProfile::default());
                rows.iter().map(RowView::to_row).collect::<Vec<_>>()
            };
            let want = files(&oracle);
            prop_assert_eq!(&files(&batch), &want, "{:?}", c);
            prop_assert_eq!(&files(&frozen), &want, "{:?}", c);
        }
        // A table whose projection covers `Str` columns too, sealed every
        // two rows: entity rows read back from the dictionary.
        let rows = Layout::indexed(&["name"]);
        let columns = rows.clone().with_columnar(ColumnarSpec::all(), SharedDict::new());
        let mut plain = Table::with_chunk_rows(schema::files_schema(), &rows, 2).unwrap();
        let mut projected = Table::with_chunk_rows(schema::files_schema(), &columns, 2).unwrap();
        for t in [&mut plain, &mut projected] {
            for e in data.entities.iter().filter(|e| e.kind == EntityKind::File) {
                t.insert(entity_row(e)).unwrap();
            }
        }
        prop_assert!(projected.sealed_chunks().iter().all(|c| c.is_projected()));
        prop_assert!(projected.iter_rows().eq(plain.iter_rows()));
        for c in entity_cases.iter().chain([&vec![Expr::cmp_lit(file::NAME, CmpOp::Eq, "/a1/f0")]]) {
            let (want, got) = (plain.select(c, &mut 0).1, projected.select(c, &mut 0).1);
            prop_assert_eq!(&got, &want, "{:?}", c);
            prop_assert!(projected.rows_at(&got).eq(plain.rows_at(&want)));
        }
    }

    #[test]
    fn pinned_snapshot_sees_exactly_the_pre_flush_store(
        events in micro_events(),
        batch_events in 1usize..12,
        pin_after in 0usize..6,
        seed in any::<u64>(),
    ) {
        let data = build(&events);
        let cfg = StreamConfig {
            batch_events,
            jitter_events: batch_events,
            max_skew_ns: 0,
            seed,
        };
        let (batches, _) = stream(&data, &cfg);
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        let shared = ing.shared();

        // Stream a prefix, flushing as we go, then pin a snapshot.
        let pin_at = pin_after.min(batches.len());
        let mut it = batches.into_iter();
        for sb in it.by_ref().take(pin_at) {
            ing.submit(EventBatch { entities: sb.entities, events: sb.events, clock_samples: Vec::new() }).unwrap();
            ing.flush().unwrap();
        }
        let pinned = shared.read();
        let session = Session::open(&shared);
        let stamp = session.pin();
        prop_assert_eq!(pinned.stamp(), stamp);
        let q = tier1_queries()[0];
        let before = sorted_rows(session.run(q).unwrap().rows);
        let events_before = pinned.event_count();

        // Stream the rest — every flush publishes a new snapshot.
        for sb in it {
            ing.submit(EventBatch { entities: sb.entities, events: sb.events, clock_samples: Vec::new() }).unwrap();
            ing.flush().unwrap();
        }

        // The pinned snapshot is byte-for-byte where it was...
        prop_assert_eq!(pinned.stamp(), stamp);
        prop_assert_eq!(pinned.event_count(), events_before);
        prop_assert_eq!(sorted_rows(session.run(q).unwrap().rows), before);
        // ...while a fresh read sees the whole stream.
        let (final_shared, _) = ing.finish().unwrap();
        let live = final_shared.read();
        prop_assert_eq!(live.event_count(), data.events.len());
        prop_assert!(live.stamp() >= stamp);
    }

    #[test]
    fn concurrent_readers_and_one_writer_match_the_batch_oracle(
        events in micro_events(),
        batch_events in 1usize..10,
        seed in any::<u64>(),
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;

        /// What one reader thread observed: (stamp, query result) pairs.
        type Observations = Vec<(aiql::storage::StoreStamp, Vec<String>)>;

        let data = build(&events);
        let cfg = StreamConfig {
            batch_events,
            jitter_events: batch_events * 2,
            max_skew_ns: 0,
            seed,
        };
        let (batches, _) = stream(&data, &cfg);
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        let shared = ing.shared();
        // Partition-parallel scans off: reader parallelism is the subject.
        let econfig = EngineConfig::aiql().with_workers(1);
        let stmt = Session::with_config(&shared, econfig)
            .prepare(tier1_queries()[0])
            .unwrap();
        let q = stmt.source();

        let done = AtomicBool::new(false);
        let observations: Mutex<Vec<Observations>> = Mutex::new(Vec::new());
        // Snapshots retained at every publish point, for the post-hoc oracle.
        let published = std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    while !done.load(Ordering::Relaxed) {
                        let cursor = stmt.execute().unwrap();
                        seen.push((cursor.stamp(), sorted_rows(cursor.into_result().rows)));
                    }
                    observations.lock().unwrap().push(seen);
                });
            }
            let mut published = vec![shared.read()];
            for sb in batches {
                ing.submit(EventBatch {
                    entities: sb.entities,
                    events: sb.events,
                    clock_samples: Vec::new(),
                }).unwrap();
                ing.flush().unwrap();
                published.push(shared.read());
            }
            done.store(true, Ordering::Relaxed);
            published
        });

        // Post-hoc oracle: for each published snapshot, what the query
        // answers single-threaded.
        let mut oracle = std::collections::HashMap::new();
        for snap in &published {
            oracle.insert(
                snap.stamp().epoch,
                sorted_rows(Session::open(&SharedStore::new(EventStore::clone(snap))).run(q).unwrap().rows),
            );
        }
        for seen in observations.into_inner().unwrap() {
            let mut last = aiql::storage::StoreStamp::default();
            for (stamp, rows) in seen {
                // Readers only ever observe published flush boundaries...
                let want = oracle.get(&stamp.epoch);
                prop_assert!(want.is_some(), "unpublished stamp observed: {:?}", stamp);
                // ...with exactly the result that snapshot computes...
                prop_assert_eq!(Some(&rows), want);
                // ...and time never runs backwards for one reader.
                prop_assert!(stamp >= last, "stamps regressed: {:?} < {:?}", stamp, last);
                last = stamp;
            }
        }

        // The end state is the batch oracle.
        let batch_store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let want = sorted_rows(Session::open(&SharedStore::new(batch_store.clone())).run(q).unwrap().rows);
        let (final_shared, _) = ing.finish().unwrap();
        let got = sorted_rows(Session::open(&final_shared).run(q).unwrap().rows);
        prop_assert_eq!(got, want);
    }

    /// Copy-on-write publication, structurally: across any sequence of
    /// append-then-publish rounds, (1) every sealed chunk a published
    /// snapshot holds stays physically shared (same `Arc`) with every later
    /// snapshot — sealed history is never deep-copied — and (2) the bytes
    /// copy-on-write detaches charge per publish interval are one partial
    /// tail block per touched table: what the previous snapshot's tail
    /// holds past its last full block, never a whole tail or a partition
    /// body.
    #[test]
    fn publishes_share_sealed_history_and_copy_only_open_tails(
        rows_per_flush in 700usize..1500,
        flushes in 6usize..10,
        two_agents in any::<bool>(),
    ) {
        use aiql::rdb::{Prune, TAIL_BLOCK_ROWS};

        let shared = SharedStore::new(
            EventStore::empty(StoreConfig::partitioned()).unwrap(),
        );
        let day0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let mut snapshots = vec![shared.read()];
        let mut id = 0u64;
        for _ in 0..flushes {
            let mut w = shared.write();
            for k in 0..rows_per_flush {
                let agent = if two_agents { (k % 2) as u32 } else { 0 };
                id += 1;
                w.append_event(&Event::new(
                    id.into(),
                    AgentId(agent),
                    1u64.into(),
                    OpType::Write,
                    2u64.into(),
                    EntityKind::File,
                    Timestamp(day0 + id as i64 * 1_000),
                ))
                .unwrap();
            }
            w.publish();
            drop(w);
            snapshots.push(shared.read());
        }

        let chunks_of = |snap: &aiql::storage::StoreSnapshot| -> usize {
            snap.events_partitioned()
                .partitions_for(&Prune::all())
                .iter()
                .map(|(_, t)| t.sealed_chunks().len())
                .sum()
        };
        // One `events` row as columns: eleven 8-byte integers.
        let row_bytes = (schema::events_schema().arity() * 8) as u64;
        // The rows of each tail past its last full block, as columns.
        let tails_of = |snap: &aiql::storage::StoreSnapshot| -> u64 {
            snap.events_partitioned()
                .partitions_for(&Prune::all())
                .iter()
                .map(|(_, t)| (t.tail_len() % TAIL_BLOCK_ROWS) as u64 * row_bytes)
                .sum()
        };
        let block_bytes = TAIL_BLOCK_ROWS as u64 * row_bytes;

        for pair in snapshots.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            // Sealed history is shared, chunk for chunk.
            prop_assert_eq!(
                cur.events_partitioned()
                    .sealed_chunks_shared_with(prev.events_partitioned()),
                chunks_of(prev),
                "a sealed chunk was deep-copied between publishes"
            );
            // Copy-on-write charged the partial block of the previous
            // snapshot's tail — every flush appends into its one partition
            // — and that is less than a block.
            let copied = cur
                .events_partitioned()
                .copied_bytes()
                .saturating_sub(prev.events_partitioned().copied_bytes());
            prop_assert!(
                copied == tails_of(prev) && copied < block_bytes,
                "publish interval copied {} bytes; the partial block held {} bytes",
                copied,
                tails_of(prev)
            );
        }
        // Sharing transits the whole history, not just adjacent pairs...
        let first_published = &snapshots[1];
        let last = snapshots.last().unwrap();
        prop_assert_eq!(
            last.events_partitioned()
                .sealed_chunks_shared_with(first_published.events_partitioned()),
            chunks_of(first_published)
        );
        // ...and the property is not vacuous: enough rows flowed through
        // that a tail reached its chunk size and sealed.
        prop_assert!(chunks_of(last) >= 1, "no chunk ever sealed");
    }

    /// For rows that arrive in order, a live store chunks exactly as a
    /// batch load does: every table — each `events` partition, each entity
    /// table — has the batch load's chunk boundaries and rows in the same
    /// order. Live chunks seal only at the chunk size, so every sealed one
    /// is full and the batch load's last, partial chunk is the live
    /// store's open tail.
    #[test]
    fn in_order_streams_chunk_like_a_batch_load(
        events in 4_200usize..9_000,
        gap_ms in 1i64..40_000,
        agents in 1u32..4,
        procs in 1u64..40,
        batch_events in 1usize..3_000,
        seed in any::<u64>(),
    ) {
        // Times rise with the event order, and each entity is first named
        // in its creation order, so a stream in time order is the
        // dataset's order, entities included. Every event writes a new
        // file: the files table seals too.
        let mut data = Dataset::new();
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let procs: Vec<_> = (0..procs)
            .map(|i| {
                let agent = AgentId((i % agents as u64) as u32);
                data.add_entity(Entity::process((1 + i).into(), agent, format!("p{i}.exe"), 1))
            })
            .collect();
        for k in 0..events as u64 {
            let proc = k % procs.len() as u64;
            let agent = AgentId((proc % agents as u64) as u32);
            let file = data.add_entity(Entity::file((1_000 + k).into(), agent, format!("/f/{k}")));
            data.add_event(
                Event::new(
                    (100_000 + k).into(),
                    agent,
                    procs[proc as usize],
                    OpType::Write,
                    file,
                    EntityKind::File,
                    Timestamp(t0 + k as i64 * gap_ms * 1_000_000),
                )
                .with_seq(k),
            );
        }
        let batch = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let live = stream_ingest(&data, batch_events, 0, seed);
        let live = live.read();

        let tables = |s: &EventStore| -> Vec<(String, Table)> {
            let parts = s.events_partitioned().partitions_for(&Prune::all());
            let entities = [schema::PROCESSES, schema::FILES, schema::NETCONNS]
                .map(|t| (t.to_string(), s.db().plain(t).unwrap().clone()));
            parts
                .into_iter()
                .map(|(k, t)| (format!("events {k:?}"), t.clone()))
                .chain(entities)
                .collect()
        };
        let (want, got) = (tables(&batch), tables(&live));
        prop_assert_eq!(want.len(), got.len());
        let mut sealed = 0;
        for ((name, b), (live_name, l)) in want.iter().zip(&got) {
            prop_assert_eq!(name, live_name);
            prop_assert_eq!(b.chunk_boundaries(), l.chunk_boundaries(), "{}", name);
            prop_assert!(b.iter_rows().eq(l.iter_rows()), "{} rows differ", name);
            prop_assert!(
                l.sealed_chunks().iter().all(|c| c.len() == l.chunk_rows()),
                "{}: a live chunk sealed early",
                name
            );
            prop_assert_eq!(b.tail_len(), 0);
            sealed += l.sealed_chunks().len();
        }
        prop_assert!(sealed >= 1, "no live chunk sealed");
    }

    #[test]
    fn streaming_count_is_stable_under_any_batching(
        events in micro_events(),
        split_a in 1usize..12,
        split_b in 1usize..12,
        seed in any::<u64>(),
    ) {
        // The same stream cut two different ways lands in identical stores.
        let data = build(&events);
        let a = stream_ingest(&data, split_a, split_a * 2, seed);
        let b = stream_ingest(&data, split_b, split_b, seed.wrapping_add(1));
        let q = "proc p read file f return p, count(f) as n group by p";
        let ra = sorted_rows(Session::open(&a).run(q).unwrap().rows);
        let rb = sorted_rows(Session::open(&b).run(q).unwrap().rows);
        prop_assert_eq!(ra, rb);
    }
}

/// Deterministic companion: a hand-built stream that provably crosses the
/// day boundary out of order still matches batch ingestion.
#[test]
fn boundary_crossing_out_of_order_stream_matches_batch() {
    let events: Vec<MicroEvent> = (0..40)
        .map(|k| MicroEvent {
            agent: k % 2,
            subj: (k as usize) % 2,
            op: (k as usize) % 3,
            obj: (k as usize) % 3,
            // Alternate sides of midnight so consecutive arrivals straddle it.
            ms: if k % 2 == 0 {
                500 + k as i64
            } else {
                3_200 + k as i64
            },
        })
        .collect();
    let data = build(&events);
    let batch_store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    let pt = batch_store.events_partitioned();
    assert!(pt.days().len() >= 2, "events span both days");

    let shared = stream_ingest(&data, 7, 13, 99);
    let live = Session::open(&shared);
    assert_eq!(
        shared.read().events_partitioned().partition_count(),
        pt.partition_count()
    );
    // Row-store oracle: the same data without columnar projections.
    let oracle =
        EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false)).unwrap();
    let engine = Session::open(&SharedStore::new(batch_store.clone()));
    let oracle_engine = Session::open(&SharedStore::new(oracle.clone()));
    for q in tier1_queries() {
        let want = sorted_rows(engine.run(q).unwrap().rows);
        let got = sorted_rows(live.run(q).unwrap().rows);
        assert_eq!(got, want, "query diverged: {q}");
        let row_want = sorted_rows(oracle_engine.run(q).unwrap().rows);
        assert_eq!(want, row_want, "columnar diverged from row store: {q}");
    }
}
