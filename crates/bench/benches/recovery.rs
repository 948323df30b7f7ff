//! Crash-recovery benchmark: `EventStore::open` on a durable store
//! directory — pure snapshot load (everything checkpointed) vs pure WAL
//! replay (nothing checkpointed) — plus correctness gates: the reopened
//! store must answer a paper-style pattern query identically to the
//! never-crashed live store, including after a torn final WAL record.
//!
//! Run with `--test` (the CI smoke mode) to shrink sample counts.

use aiql_bench::experiments::build_durable_store;
use aiql_bench::harness::{self, Scale};
use aiql_engine::EngineConfig;
use aiql_storage::EventStore;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--smoke")
}

const QUERY: &str = r#"(at "01/01/2017") proc p write file f return distinct p, f"#;

fn rows(store: &EventStore) -> Vec<Vec<aiql_model::Value>> {
    let mut r = harness::session(store, EngineConfig::aiql())
        .run(QUERY)
        .expect("query runs")
        .rows;
    r.sort();
    r
}

fn bench(c: &mut Criterion) {
    let smoke = smoke_mode();
    let (data, _) = harness::dataset(Scale::Small);
    let base = std::env::temp_dir().join(format!("aiql-recovery-crit-{}", std::process::id()));
    let snap_dir = base.join("all-snapshot");
    let replay_dir = base.join("all-wal");
    build_durable_store(&data, &snap_dir, true);
    build_durable_store(&data, &replay_dir, false);

    // Correctness before speed: both recovery paths reproduce the live
    // store, for counts and for an end-to-end engine query.
    let live = EventStore::ingest(&data, aiql_storage::StoreConfig::partitioned()).expect("ingest");
    let want = rows(&live);
    assert!(!want.is_empty(), "workload must select rows");
    for dir in [&snap_dir, &replay_dir] {
        let store = EventStore::open(dir).expect("recovery");
        assert_eq!(store.event_count(), live.event_count());
        assert_eq!(store.entity_count(), live.entity_count());
        assert_eq!(rows(&store), want, "recovered store diverged: {dir:?}");
    }

    // A torn final record (crash mid-write) must not block recovery: chop
    // bytes off the last WAL segment and reopen.
    assert!(
        aiql_wal::testing::tear_last_segment(replay_dir.join("wal"), 5).expect("tear the tail"),
        "tail segment holds records to tear"
    );
    let torn = EventStore::open(&replay_dir).expect("torn-tail recovery");
    assert_eq!(
        torn.event_count(),
        live.event_count() - 1,
        "exactly the torn final record is lost"
    );
    // Heal the tear for the timing runs below (reopen-for-write truncates).
    build_durable_store(&data, &replay_dir, false);

    let samples = if smoke { 2 } else { 5 };
    let (snap_s, _) = harness::best_of(samples, || {
        black_box(EventStore::open(&snap_dir).expect("open").event_count())
    });
    let (replay_s, _) = harness::best_of(samples, || {
        black_box(EventStore::open(&replay_dir).expect("open").event_count())
    });
    println!(
        "recovery: snapshot load {:.1} ms ({:.0} events/s), WAL replay {:.1} ms ({:.0} events/s), {} events",
        snap_s * 1e3,
        data.events.len() as f64 / snap_s.max(1e-12),
        replay_s * 1e3,
        data.events.len() as f64 / replay_s.max(1e-12),
        data.events.len(),
    );

    let mut g = c.benchmark_group("recovery");
    g.sample_size(samples);
    g.bench_function("snapshot-load", |b| {
        b.iter(|| black_box(EventStore::open(&snap_dir).expect("open").event_count()))
    });
    g.bench_function("wal-replay", |b| {
        b.iter(|| black_box(EventStore::open(&replay_dir).expect("open").event_count()))
    });
    g.finish();

    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench);
criterion_main!(benches);
