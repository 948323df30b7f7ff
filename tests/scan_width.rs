//! The scan-width contract: a session resolves `EngineConfig::workers`
//! once, width 1 is the sequential scan — no scatter profile, no pool task
//! — and width 2 or more scatters a sharded store's events scans; a store
//! resolves `StoreConfig::shards == 0` once, at build or load, while its
//! snapshot keeps the configured 0.
//!
//! Its own binary: the pool counters are process-wide, and "unchanged"
//! holds only while nothing else in the process scatters — the other test
//! here runs no statement.

use aiql::bench::harness::{dataset, Scale};
use aiql::engine::{EngineConfig, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};

/// The a1 behaviour without its `agentid` pin, so every host's partitions
/// are admitted and the scan spreads over every shard.
const UNPINNED_HUNT: &str = r#"
    (at "01/02/2017")
    proc p1["%firefox.exe"] read ip i1 as e1
    proc p1 write file f1["%.exe"] as e2
    proc p1 start proc p2 as e3
    with e1 before e2, e2 before e3
    return distinct p1, i1, f1, p2
"#;

fn pool_tasks() -> u64 {
    aiql::telemetry::global()
        .snapshot()
        .counter("aiql_engine_pool_tasks")
        .unwrap_or(0)
}

#[test]
fn width_one_is_sequential_and_wider_scatters() {
    let (data, _) = dataset(Scale::Small);
    let store = SharedStore::new(
        EventStore::ingest(
            &data,
            StoreConfig::partitioned()
                .with_agent_group(1)
                .with_shards(4),
        )
        .expect("sharded ingest"),
    );
    let run = |workers: usize| {
        let before = pool_tasks();
        let cursor = Session::with_config(&store, EngineConfig::aiql().with_workers(workers))
            .prepare(UNPINNED_HUNT)
            .expect("prepare")
            .execute()
            .expect("execute");
        let tasks = pool_tasks() - before;
        let scans = cursor.stats().scans.clone();
        (cursor.collect::<Vec<_>>(), scans, tasks)
    };

    let (sequential, scans, tasks) = run(1);
    assert!(!sequential.is_empty(), "the hunt finds the chain");
    assert!(
        scans.iter().all(|s| s.scatter.is_none()),
        "a width-1 scan carries no scatter profile"
    );
    assert_eq!(tasks, 0, "a width-1 session submits no pool task");

    let (scattered, scans, tasks) = run(2);
    assert_eq!(scattered, sequential, "scatter returns the sequential rows");
    let widths: Vec<u32> = scans
        .iter()
        .filter_map(|s| s.scatter.as_ref())
        .map(|sp| sp.workers)
        .collect();
    assert!(!widths.is_empty(), "width 2 scatters the events scans");
    assert!(widths.iter().all(|&w| w <= 2), "{widths:?}");
    assert!(
        widths.contains(&2),
        "some scan spans two shards: {widths:?}"
    );
    assert!(tasks >= 2, "scatter submitted no shard tasks");
}

#[test]
fn auto_shards_resolve_at_load_and_persist_as_zero() {
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let built = EventStore::empty(StoreConfig::partitioned()).expect("empty store");
    assert_eq!(built.config().shards, 0);
    assert_eq!(built.shard_count(), machine);

    let dir = std::env::temp_dir().join(format!("aiql-scan-width-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    built.persist_to(&dir).expect("persist");
    let loaded = EventStore::open(&dir).expect("reopen");
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(loaded.config().shards, 0, "the snapshot records the 0");
    assert_eq!(loaded.shard_count(), machine, "the load resolves it");
}
