//! Allocation guard for the live durable flush: each corrected row is
//! pushed once into the log's column frame, and after the fsync the store
//! applies that frame (`EventStore::apply_frame`), as recovery does. So a
//! flush allocates per frame (the frame's names and sets, the encode's
//! columns, the publish), per open-tail block and per sealed chunk —
//! never per row.
//!
//! The flush this guards against kept a second copy of every row for the
//! log and then built a row of values per entity to insert it. Here two
//! durable ingestors take flushes of one size — entities naming a few
//! repeated strings, then events in one partition — N of them against ten
//! times as many, after the same warm-up. Every allocation the two differ
//! by is work that grows with the rows flushed. Shipments are built
//! before the count; only `flush` is counted. The binary installs a
//! counting global allocator, so it holds only this test; counts are per
//! thread, and each flush runs on the test's own thread.

use aiql::fault::testing::scratch_dir;
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::rdb::{DEFAULT_CHUNK_ROWS, TAIL_BLOCK_ROWS};
use std::path::Path;

mod counting_alloc;

use counting_alloc::allocations;

/// Sealed `events` chunks the small run fills; the large one fills ten
/// times as many.
const CHUNKS: usize = 3;
/// Rows per flush, and so per frame: entities, then events.
const FLUSH_ENTITIES: usize = 512;
const FLUSH_EVENTS: usize = 1_536;
/// Flushes before the count: the frame's lanes and the tables reach their
/// steady size.
const WARM_UP: usize = 2;

/// Entities naming a few repeated strings.
fn entities() -> Vec<Entity> {
    (0..8u64)
        .flat_map(|i| {
            let a = AgentId(1);
            [
                Entity::process((1 + i).into(), a, format!("p{i}.exe"), 100 + i as i64)
                    .with_attr("user", "root"),
                Entity::file((100 + i).into(), a, format!("/f/{i}")),
            ]
        })
        .collect()
}

/// Shipment `k`: [`FLUSH_ENTITIES`] entities and [`FLUSH_EVENTS`] reads,
/// out of time order, all in one partition.
fn shipment(k: usize, ents: &[Entity]) -> EventBatch {
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let mut batch = EventBatch::new();
    batch.entities = ents.iter().cycle().take(FLUSH_ENTITIES).cloned().collect();
    batch.events = (0..FLUSH_EVENTS as u64)
        .map(|i| {
            let id = 1_000 + (k * FLUSH_EVENTS) as u64 + i;
            let t = Timestamp(t0 + (id * 7_919 % 80_000) as i64 * 1_000_000);
            Event::new(
                id.into(),
                AgentId(1),
                (1 + id % 8).into(),
                OpType::Read,
                (100 + id % 8).into(),
                EntityKind::File,
                t,
            )
        })
        .collect();
    batch
}

/// Allocations of `flushes` durable flushes into a fresh store at `dir`,
/// after the warm-up.
fn flushing(flushes: usize, dir: &Path) -> u64 {
    let ents = entities();
    let mut batches = (0..WARM_UP + flushes).map(|k| shipment(k, &ents));
    let (mut ing, _) = Ingestor::durable(IngestConfig::live(), dir).unwrap();
    for batch in batches.by_ref().take(WARM_UP) {
        ing.submit(batch).unwrap();
        ing.flush().unwrap();
    }
    let mut total = 0;
    for batch in batches {
        ing.submit(batch).unwrap();
        let (n, report) = allocations(|| ing.flush().unwrap());
        assert_eq!(report.failed_rows, 0);
        total += n;
    }
    total
}

#[test]
fn a_durable_flush_allocates_per_frame_block_and_chunk_not_per_row() {
    let base = scratch_dir("alloc-flush");
    let flushes = CHUNKS * DEFAULT_CHUNK_ROWS / FLUSH_EVENTS;
    let small = flushing(flushes, &base.join("small"));
    let large = flushing(10 * flushes, &base.join("large"));
    let extra = large.saturating_sub(small);

    let frames = (9 * flushes) as u64;
    let rows = frames * (FLUSH_ENTITIES + FLUSH_EVENTS) as u64;
    let blocks = rows / TAIL_BLOCK_ROWS as u64;
    // Each table seals a chunk per `DEFAULT_CHUNK_ROWS` rows.
    let chunks = rows / DEFAULT_CHUNK_ROWS as u64 + 3;
    // Per frame, and so per flush: its names and name sets, the encode's
    // value columns and string table, the apply's per-frame tables, and
    // the publish, whose writer then detaches the partial tail block of
    // each table the next flush touches (a flush of two entities and two
    // events makes ≈ 150 in all). Per open-tail block: a vector per
    // column, the block and its `Arc` once full. Per sealed chunk: its
    // columns, projection order, indexes and the chunk itself.
    let budget = frames * 192 + blocks * 14 + chunks * 64 + 256;
    assert!(
        extra <= budget,
        "{extra} more allocations for {rows} more rows over {frames} more frames, \
         {blocks} more tail blocks and {chunks} more chunks (budget {budget})"
    );
    assert!(
        budget < rows / 2,
        "the budget must stay well under one a row"
    );
    std::fs::remove_dir_all(&base).unwrap();
}
