//! Scatter-gather speedup: a scan-heavy hunt over a store with one
//! partition per (day, host) must run at least twice as fast on 4 pool workers as on the sequential
//! path, on a host with at least 4 cores — and return the sequential rows,
//! in order, at every worker count.
//!
//! A timing test needs an optimized build and an otherwise idle host, so
//! it is `#[ignore]`d; run it alone:
//!
//! ```text
//! cargo test --release --test scatter_speedup -- --ignored
//! ```

use aiql::bench::harness::{dataset, session, Scale};
use aiql::engine::{EngineConfig, Prepared};
use aiql::storage::{EventStore, StoreConfig};
use aiql_model::Value;
use std::time::{Duration, Instant};

/// The a1 behaviour (Fig. 7 family) without its `agentid` pin: the
/// firefox → dropper → start chain hunted across every host's partitions
/// instead of one agent group — the scan-dominant shape scatter exists for.
const UNPINNED_HUNT: &str = r#"
    (at "01/02/2017")
    proc p1["%firefox.exe"] read ip i1 as e1
    proc p1 write file f1["%.exe"] as e2
    proc p1 start proc p2 as e3
    with e1 before e2, e2 before e3
    return distinct p1, i1, f1, p2
"#;

/// Best of this many runs per cell.
const SAMPLES: usize = 3;

fn rows(stmt: &Prepared) -> Vec<Vec<Value>> {
    stmt.execute().expect("the hunt runs").collect()
}

/// Best-of-[`SAMPLES`] wall time of one execution, in seconds.
fn best_secs(stmt: &Prepared) -> f64 {
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(rows(stmt));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

#[test]
#[ignore = "timing gate: run alone, in release, on an idle host with >= 4 cores"]
fn four_workers_at_least_double_sequential_throughput() {
    let (data, _) = dataset(Scale::Medium);
    // One partition per (day, host), so the day prune admits one per host.
    let store = EventStore::ingest(&data, StoreConfig::partitioned().with_agent_group(1))
        .expect("per-host ingest");
    let prepare = |config: EngineConfig| {
        session(&store, config)
            .with_timeout(Duration::from_secs(60))
            .prepare(UNPINNED_HUNT)
            .expect("the hunt compiles")
    };
    let sequential = prepare(EngineConfig::aiql().with_workers(1));
    let expected = rows(&sequential);
    assert!(!expected.is_empty(), "the hunt finds the chain");
    let scattered: Vec<(usize, Prepared)> = [1, 2, 4, 8]
        .into_iter()
        .map(|w| (w, prepare(EngineConfig::aiql().with_workers(w))))
        .collect();
    for (w, stmt) in &scattered {
        assert_eq!(rows(stmt), expected, "scatter at {w} workers disagrees");
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("speedup gate skipped: {cores} core(s) available, the gate needs 4");
        return;
    }
    let sequential_secs = best_secs(&sequential);
    let (_, four) = scattered.iter().find(|(w, _)| *w == 4).expect("4 workers");
    let speedup = sequential_secs / best_secs(four).max(1e-9);
    eprintln!("scatter speedup at 4 workers: {speedup:.2}x on {cores} cores");
    assert!(
        speedup >= 2.0,
        "scatter-gather at 4 workers is {speedup:.2}x sequential (< 2.0x) on {cores} cores"
    );
}
