//! Allocation guard for recovery's replay of the log: a frame is decoded
//! into its column lanes and its rows go from the lanes into the tables,
//! so a recovery allocates per frame (the lanes, the frame's names and
//! strings), per open-tail block and per sealed chunk — never per row.
//!
//! The replay this guards against built a record per row — an `Event`, or
//! an `Entity` with an attribute map of owned names — and then a row of
//! values from it. Here two stores share one snapshot and differ in their
//! log tails only: N events and N / 3 entities, against ten times as
//! many, in flushes of one size (the events in one partition); the
//! entities name strings the snapshot's dictionary already holds. Every allocation the
//! two recoveries differ by is work that grows with the tail. The binary
//! installs a counting global allocator, so it holds only this test;
//! counts are per thread, and each recovery runs on the test's own thread.

use aiql::model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::rdb::{DEFAULT_CHUNK_ROWS, TAIL_BLOCK_ROWS};
use aiql::storage::persist::{self, recover};
use aiql::storage::{EventStore, StoreConfig};
use aiql::wal::{Wal, WalOptions};
use std::path::Path;

mod counting_alloc;

use counting_alloc::allocations;

/// Sealed `events` chunks the small tail fills; the large one fills ten
/// times as many.
const CHUNKS: usize = 3;
/// Rows per flush, and so per frame: entities, then events.
const FLUSH_ENTITIES: usize = 512;
const FLUSH_EVENTS: usize = 1_536;

/// Entities naming the strings the snapshot's dictionary holds.
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

/// A store directory: a snapshot of the entities alone, and a log of
/// `flushes` flushes of [`FLUSH_ENTITIES`] entities and [`FLUSH_EVENTS`]
/// reads, all in one partition.
fn store(flushes: usize, dir: &Path) {
    let ents = entities();
    let mut base = EventStore::empty(StoreConfig::partitioned()).unwrap();
    for e in &ents {
        base.append_entity(e).unwrap();
    }
    persist::write_snapshot(&base, dir, 0).unwrap();
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let mut wal = Wal::open(persist::wal_dir(dir), WalOptions::default()).unwrap();
    let mut id = 1_000u64;
    for _ in 0..flushes {
        for e in ents.iter().cycle().take(FLUSH_ENTITIES) {
            wal.try_append_entity(e).unwrap();
        }
        for _ in 0..FLUSH_EVENTS {
            id += 1;
            // Out of time order within each chunk.
            let t = Timestamp(t0 + (id * 7_919 % 80_000) as i64 * 1_000_000);
            let ev = Event::new(
                id.into(),
                AgentId(1),
                (1 + id % 8).into(),
                OpType::Read,
                (100 + id % 8).into(),
                EntityKind::File,
                t,
            );
            wal.append_event(&ev).unwrap();
        }
        wal.sync().unwrap();
    }
}

/// Allocations of one recovery of the store at `dir`.
fn recovery(dir: &Path) -> u64 {
    // Warm lazily built statics outside the count.
    recover(dir).unwrap();
    let (n, recovered) = allocations(|| recover(dir).unwrap());
    drop(recovered);
    n
}

#[test]
fn replay_allocates_per_frame_block_and_chunk_not_per_row() {
    let base = std::env::temp_dir().join(format!("aiql-alloc-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let flushes = CHUNKS * DEFAULT_CHUNK_ROWS / FLUSH_EVENTS;
    let (small, large) = (base.join("small"), base.join("large"));
    store(flushes, &small);
    store(10 * flushes, &large);
    let extra = recovery(&large).saturating_sub(recovery(&small));

    let frames = (9 * flushes) as u64;
    let rows = frames * (FLUSH_ENTITIES + FLUSH_EVENTS) as u64;
    let blocks = rows / TAIL_BLOCK_ROWS as u64;
    // Each table seals a chunk per `DEFAULT_CHUNK_ROWS` rows.
    let chunks = rows / DEFAULT_CHUNK_ROWS as u64 + 3;
    // Per frame: its lanes, names, name sets and strings, and the apply's
    // per-frame tables. Per open-tail block: a vector per column, the
    // block and its `Arc` once full. Per sealed chunk: its columns,
    // projection order, indexes and the chunk itself.
    let budget = frames * 128 + blocks * 14 + chunks * 64 + 256;
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
