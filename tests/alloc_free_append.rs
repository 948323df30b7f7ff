//! Allocation guard for the write path: appending to an open tail is a
//! checked push of each value onto its column, so a run of appends
//! allocates per tail block — its columns, filled in place — never per
//! row: no row kept, no posting list per new index key, no B-tree node, no
//! sorted insert into a projection. Sealing does that work, once per chunk.
//! The store's own append path, `EventStore::append_event`, is held to the
//! same bound: an event becomes a row on the stack, pushed from there.
//!
//! The binary installs a counting global allocator, so it holds only this
//! test; counts are per thread.

use aiql::model::{AgentId, EntityKind, Event, OpType, Timestamp};
use aiql::rdb::{PartitionedTable, Prune, SharedDict, TAIL_BLOCK_ROWS};
use aiql::storage::{event_row, schema, EventStore, StoreConfig};

mod counting_alloc;

use counting_alloc::allocations;

const ROWS: u64 = 4_000;

/// What appending `ROWS` rows to a one-row tail may allocate: every block
/// the tail then holds, the block list's growth, a little slack. A block
/// takes its column list, one vector per column (each with room for the
/// whole block; an `events` row holds no NULL, so no null flags), and the
/// `Arc` around it.
fn bound() -> u64 {
    let per_block = 1 + schema::events_schema().arity() as u64 + 1;
    let blocks = (ROWS + 1).div_ceil(TAIL_BLOCK_ROWS as u64);
    blocks * per_block + (blocks as f64).log2().ceil() as u64 + 8
}

/// Event `i`: five agents of one partition group, out of time order
/// within one day, and every subject and object a new index key many
/// times over.
fn event(i: u64) -> Event {
    let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    Event::new(
        (i + 1).into(),
        AgentId((i % 5) as u32),
        (i % 97 + 1).into(),
        OpType::Write,
        (i * 7 % 1_009 + 1).into(),
        EntityKind::File,
        Timestamp(t0 + ((i * 7_919) % 40_000) as i64 * 1_000_000),
    )
}

#[test]
fn appends_to_an_open_tail_allocate_only_its_growth() {
    // The events table as the partitioned columnar store lays it out.
    let [decl, ..] = schema::tables(StoreConfig::partitioned(), &SharedDict::new());
    assert_eq!(decl.name, schema::EVENTS);
    let spec = decl.partitioning.expect("events are partitioned");
    let mut events = PartitionedTable::new(decl.schema, spec, &decl.layout).unwrap();
    // The partition exists already: nothing below rolls over.
    events.insert(&event_row(&event(0))[..]).unwrap();
    let rows: Vec<_> = (1..=ROWS).map(|i| event_row(&event(i))).collect();

    let (n, ()) = allocations(|| {
        for row in &rows {
            events.insert(&row[..]).unwrap();
        }
    });
    let bound = bound();
    assert!(
        n <= bound,
        "{n} allocations for {ROWS} appends: more than the tail's blocks ({bound})"
    );
    let parts = events.partitions_for(&Prune::all());
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].1.tail_len() as u64, ROWS + 1, "all still open");
}

/// Appending through the store — route, row, push — allocates no more:
/// the row an event becomes lives on the stack.
#[test]
fn appending_events_to_a_store_allocates_only_the_tails_growth() {
    let mut store = EventStore::empty(StoreConfig::partitioned()).unwrap();
    // The partition exists already: nothing below rolls over.
    store.append_event(&event(0)).unwrap();
    let events: Vec<Event> = (1..=ROWS).map(event).collect();

    let (n, ()) = allocations(|| {
        for ev in &events {
            store.append_event(ev).unwrap();
        }
    });
    let bound = bound();
    assert!(
        n <= bound,
        "{n} allocations for {ROWS} appended events: more than the tail's blocks ({bound})"
    );
    let parts = store.events_partitioned().partitions_for(&Prune::all());
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].1.tail_len() as u64, ROWS + 1, "all still open");
}

/// The bound still catches what it guards against: an append that
/// allocates once (a row kept, a posting list grown) exceeds it.
#[test]
fn an_allocation_per_append_exceeds_the_bound() {
    assert!(ROWS > bound(), "{ROWS} per-row allocations fit {}", bound());
}
