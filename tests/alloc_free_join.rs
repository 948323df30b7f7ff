//! Allocation guard for matches, tuple sets and result assembly: a
//! pattern's matches allocate per chunk and per statement, a join's tuples
//! per growth of one flat array, and a plain `count` builds no value —
//! never an allocation per match or per tuple.
//!
//! The executor this guards against flattened every match into an owned
//! 25-value row (cloning the subject's and the object's strings) and held
//! each joined tuple in its own vector. Here one statement runs over N and
//! over 10 N matches of the same entities; every allocation the two runs
//! differ by is work that grows with the data. The binary installs a
//! counting global allocator, so it holds only these tests; counts are per
//! thread, and each statement runs on the test's own thread. What is
//! measured is `Bound::execute`, the whole public execution path.

use aiql::engine::{Cursor, EngineConfig, Params, Session};
use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::storage::{EventStore, SharedStore, StoreConfig};

mod counting_alloc;

use counting_alloc::allocations;

const PROCESSES: u64 = 8;
const FILES: u64 = 40;
/// Reads in the small store; the large one holds ten times as many.
const READS: u64 = 3_000;

/// One host's day: `w.exe` writes each of [`FILES`] files once, in the
/// first minute, then [`PROCESSES`] processes read those files `reads`
/// times. Entities do not grow with `reads`; only the events do.
fn store(reads: u64) -> SharedStore {
    let mut d = Dataset::new();
    let a = AgentId(1);
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let s = 1_000_000_000i64;
    let writer = d.add_entity(Entity::process(1.into(), a, "w.exe", 10));
    let procs: Vec<_> = (0..PROCESSES)
        .map(|i| d.add_entity(Entity::process((2 + i).into(), a, format!("p{i}.exe"), 100)))
        .collect();
    let files: Vec<_> = (0..FILES)
        .map(|i| d.add_entity(Entity::file((100 + i).into(), a, format!("/f/{i}"))))
        .collect();
    for (i, &f) in files.iter().enumerate() {
        let t = Timestamp(t0 + i as i64);
        d.add_event(Event::new(
            (1 + i as u64).into(),
            a,
            writer,
            OpType::Write,
            f,
            EntityKind::File,
            t,
        ));
    }
    for e in 0..reads {
        let t = Timestamp(t0 + 60 * s + (e * 7_919 % 80_000) as i64 * s / 1_000);
        let (p, f) = (
            procs[(e % PROCESSES) as usize],
            files[(e * 13 % FILES) as usize],
        );
        d.add_event(Event::new(
            (1_000 + e).into(),
            a,
            p,
            OpType::Read,
            f,
            EntityKind::File,
            t,
        ));
    }
    SharedStore::new(EventStore::ingest(&d, StoreConfig::partitioned()).unwrap())
}

/// Sealed chunks of the store's `events` table.
fn event_chunks(store: &SharedStore) -> u64 {
    let snapshot = store.read();
    let events = snapshot.events_partitioned();
    let parts = events.partitions_for(&aiql::rdb::Prune::all());
    parts
        .iter()
        .map(|(_, t)| t.sealed_chunks().len() as u64)
        .sum()
}

/// Allocations of one execution of `source` on `store`, and its cursor.
fn execute(store: &SharedStore, source: &str) -> (u64, Cursor) {
    // Single-threaded, so every allocation lands on this thread's counter.
    let session = Session::with_config(store, EngineConfig::aiql().with_workers(1));
    let stmt = session.prepare(source).unwrap();
    // Warm lazily built statics, and bind outside the count.
    stmt.bind(Params::new()).unwrap().execute().unwrap();
    let bound = stmt.bind(Params::new()).unwrap();
    allocations(|| bound.execute().unwrap())
}

/// The count a `return count ...` statement answered.
fn count(cursor: Cursor) -> i64 {
    let rows = cursor.into_result().rows;
    match rows.as_slice() {
        [row] => match row.as_slice() {
            [Value::Int(n)] => *n,
            other => panic!("not a count: {other:?}"),
        },
        other => panic!("not one row: {other:?}"),
    }
}

/// Runs `source` over the small and the large store; returns the extra
/// allocations, the extra event chunks, and both counts.
fn grow(source: &str) -> (u64, u64, [i64; 2]) {
    // A slow-log entry would allocate for one run and not the other.
    aiql::telemetry::slowlog::global().set_threshold_micros(u64::MAX);
    let (small, large) = (store(READS), store(10 * READS));
    let (few, at_n) = execute(&small, source);
    let (many, at_10n) = execute(&large, source);
    let chunks = event_chunks(&large) - event_chunks(&small);
    assert!(chunks >= 4, "{chunks} more chunks");
    (
        many.saturating_sub(few),
        chunks,
        [count(at_n), count(at_10n)],
    )
}

/// Per chunk each pattern's events scan visits: the scan's candidate and
/// result vectors, a selection bitmap (as `alloc_free_scan` budgets them).
/// Per statement: a few dozen vectors that double as they grow, about
/// log2(10) more times each at 10 N.
fn budget(chunks: u64, patterns: u64) -> u64 {
    12 * chunks * patterns + 64
}

#[test]
fn a_pattern_allocates_per_chunk_not_per_match() {
    let (extra, chunks, [n, n10]) = grow("proc p read file f return count p");
    assert_eq!([n, n10], [READS as i64, 10 * READS as i64]);
    // The old executor made three or more per match: 27 000 matches more.
    assert!(
        extra <= budget(chunks, 1),
        "{extra} more allocations for {} more matches over {chunks} more chunks",
        9 * READS
    );
}

#[test]
fn a_join_allocates_per_growth_not_per_tuple() {
    // The shared `f` makes a hash join on the file id: every read joins
    // the one write of its file. The join itself adds the tuple array's
    // doublings and the build side's index, whose map holds one entry per
    // file.
    let (extra, chunks, [n, n10]) = grow(
        r#"proc w["%w.exe"] write file f as e1
           proc p read file f as e2
           with e1 before e2
           return count p"#,
    );
    assert_eq!([n, n10], [READS as i64, 10 * READS as i64]);
    // The old tuple set made one vector per tuple: 27 000 tuples more.
    assert!(
        extra <= budget(chunks, 2),
        "{extra} more allocations for {} more tuples over {chunks} more chunks",
        9 * READS
    );
}
