//! The scan-width contract: a session resolves `EngineConfig::workers`
//! once, width 1 is the sequential scan — no scatter profile, no pool task
//! — and width 2 or more scatters each events scan one pool task per
//! admitted partition, or scans a lone admitted partition inline.
//!
//! Its own binary: the pool counters are process-wide, so the tests here
//! take turns ([`SERIAL`]) and "exactly k tasks" holds only while nothing
//! else in the process scatters.

use aiql::bench::harness::{dataset, Scale};
use aiql::engine::{EngineConfig, ScanRecord, ScanTarget, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_model::Value;
use std::sync::{Mutex, OnceLock};

/// Held by each test while it runs statements.
static SERIAL: Mutex<()> = Mutex::new(());

/// The a1 behaviour without its `agentid` pin, so every host's partitions
/// are admitted and the scan spreads over all of them.
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

/// The small evaluation dataset with one partition per (day, host).
fn store() -> &'static SharedStore {
    static STORE: OnceLock<SharedStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let (data, _) = dataset(Scale::Small);
        let config = StoreConfig::partitioned().with_agent_group(1);
        SharedStore::new(EventStore::ingest(&data, config).expect("per-host ingest"))
    })
}

/// Runs `query` at scan width `workers`: its rows, its scans and the pool
/// tasks it submitted.
fn run(workers: usize, query: &str) -> (Vec<Vec<Value>>, Vec<ScanRecord>, u64) {
    let before = pool_tasks();
    let cursor = Session::with_config(store(), EngineConfig::aiql().with_workers(workers))
        .prepare(query)
        .expect("prepare")
        .execute()
        .expect("execute");
    let tasks = pool_tasks() - before;
    let scans = cursor.stats().scans.clone();
    (cursor.collect(), scans, tasks)
}

#[test]
fn width_one_is_sequential_and_wider_scatters() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (sequential, scans, tasks) = run(1, UNPINNED_HUNT);
    assert!(!sequential.is_empty(), "the hunt finds the chain");
    assert!(
        scans.iter().all(|s| s.scatter.is_none()),
        "a width-1 scan carries no scatter profile"
    );
    assert_eq!(tasks, 0, "a width-1 session submits no pool task");

    let (scattered, scans, tasks) = run(2, UNPINNED_HUNT);
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
        "some scan spans two partitions: {widths:?}"
    );
    assert!(tasks >= 2, "scatter submitted no partition tasks");
}

#[test]
fn one_pool_task_per_admitted_partition() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One pattern, so one events scan; the day prune admits one partition
    // per host, the `agentid` pin one partition in all.
    let spread = r#"(at "01/02/2017") proc p read file f return count p"#;
    let pinned = r#"(at "01/02/2017") agentid = 1 proc p read file f return count p"#;
    let events_scan = |scans: &[ScanRecord]| {
        let mut events = scans.iter().filter(|s| s.target == ScanTarget::Events);
        let scan = events.next().expect("an events scan").clone();
        assert!(events.next().is_none(), "one events scan");
        scan
    };
    for width in [2, 3, 8] {
        let (_, scans, tasks) = run(width, spread);
        let scan = events_scan(&scans);
        let k = scan.profile.partitions_scanned as usize;
        assert!(k >= 2, "the day admits every host's partition: {k}");
        let sp = scan.scatter.expect("a scatter profile");
        assert_eq!(tasks as usize, k, "width {width}: one task per partition");
        assert_eq!(sp.dispatch.len(), k);
        assert_eq!(sp.workers as usize, width.min(k), "threads ≤ width");

        let (_, scans, tasks) = run(width, pinned);
        let scan = events_scan(&scans);
        assert_eq!(scan.profile.partitions_scanned, 1);
        assert_eq!(tasks, 0, "width {width}: a lone partition runs inline");
        assert_eq!(scan.scatter.expect("a scatter profile").workers, 1);
    }
}
