//! Allocation guard for loading a snapshot: a sealed `events` chunk is
//! read as columns, so a load allocates per chunk and per column — the
//! column vectors, the projection order, the index arrays — never per row.
//!
//! The loader this guards against decoded every sealed row into a vector
//! of values, re-projected it and freed it: one allocation or more per
//! event. Here one store holds N events and another 10 N, in full sealed
//! chunks of one partition, over the same entities; every allocation the
//! two loads differ by is work that grows with the data. The binary
//! installs a counting global allocator, so it holds only this test;
//! counts are per thread, and each load runs on the test's own thread.

use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::rdb::{Prune, DEFAULT_CHUNK_ROWS};
use aiql::storage::persist::load_snapshot;
use aiql::storage::{EventStore, StoreConfig};
use std::path::Path;

mod counting_alloc;

use counting_alloc::allocations;

/// Full sealed chunks in the small store; the large one holds ten times
/// as many.
const CHUNKS: u64 = 3;
/// Columns of a sealed `events` chunk, each one vector.
const COLUMNS: u64 = 11;

/// One host's day of `events` reads by eight processes of forty files,
/// in full sealed chunks of one partition.
fn store(events: u64, dir: &Path) -> (EventStore, std::path::PathBuf) {
    let mut d = Dataset::new();
    let a = AgentId(1);
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let procs: Vec<_> = (0..8)
        .map(|i| d.add_entity(Entity::process((1 + i).into(), a, format!("p{i}.exe"), 100)))
        .collect();
    let files: Vec<_> = (0..40)
        .map(|i| d.add_entity(Entity::file((100 + i).into(), a, format!("/f/{i}"))))
        .collect();
    for e in 0..events {
        // Out of time order within each chunk.
        let t = Timestamp(t0 + (e * 7_919 % 80_000) as i64 * 1_000_000);
        d.add_event(Event::new(
            (1_000 + e).into(),
            a,
            procs[(e % 8) as usize],
            OpType::Read,
            files[(e * 13 % 40) as usize],
            EntityKind::File,
            t,
        ));
    }
    let store = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
    let path = store.persist_to(dir).unwrap();
    (store, path)
}

/// Sealed chunks of the store's `events` table, every one full.
fn full_event_chunks(store: &EventStore) -> u64 {
    let parts = store.events_partitioned().partitions_for(&Prune::all());
    let chunks = parts.iter().flat_map(|(_, t)| t.sealed_chunks());
    chunks
        .map(|c| {
            assert!(c.is_projected() && c.len() == DEFAULT_CHUNK_ROWS);
            1
        })
        .sum()
}

/// Allocations of one load of the snapshot at `path`.
fn load(path: &Path) -> u64 {
    // Warm lazily built statics outside the count.
    load_snapshot(path).unwrap();
    let (n, loaded) = allocations(|| load_snapshot(path).unwrap());
    drop(loaded);
    n
}

#[test]
fn loading_allocates_per_chunk_and_column_not_per_row() {
    let base = std::env::temp_dir().join(format!("aiql-alloc-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let rows = CHUNKS * DEFAULT_CHUNK_ROWS as u64;
    let (small, small_path) = store(rows, &base.join("small"));
    let (large, large_path) = store(10 * rows, &base.join("large"));
    let chunks = full_event_chunks(&large) - full_event_chunks(&small);
    assert_eq!(chunks, 9 * CHUNKS);
    let extra = load(&large_path).saturating_sub(load(&small_path));
    // Per chunk: its columns, its projection order and the check of it,
    // its row → projection map, two indexes (each its keys scattered to
    // row position and its positions: one buffer, two when the key needs
    // more than one radix pass), the shared chunk itself; plus the
    // tables' chunk lists as they grow.
    let budget = chunks * (COLUMNS + 16) + 64;
    assert!(
        extra <= budget,
        "{extra} more allocations for {} more rows over {chunks} more chunks",
        9 * rows
    );
    std::fs::remove_dir_all(&base).unwrap();
}
