//! Allocation guard for the anomaly executor: window work allocates per
//! group, never per window.
//!
//! The executor this guards against rebuilt a `BTreeMap` of group keys for
//! every window, cloned each covered row's key and inputs into it, and
//! allocated three vectors per tracked group per window: one statement at
//! `step = 1 sec` made ten times the allocations of the same statement at
//! `step = 10 sec`. Here the two runs see the same matches and the same
//! groups, so every allocation they differ by is window work. The binary
//! installs a counting global allocator, so it holds only this test;
//! counts are per thread, and the statement runs on this one. What is
//! measured is `Bound::execute`, the whole public execution path.

use aiql::engine::{Cursor, EngineConfig, Params, Session};
use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::storage::{EventStore, SharedStore, StoreConfig};

mod counting_alloc;

use counting_alloc::allocations;

const PROCESSES: u64 = 24;

/// An hour of one host: [`PROCESSES`] processes, each busy in its own
/// stretch of it (so groups appear late and go quiet), reading 6 000 times
/// from 50 files.
fn store() -> SharedStore {
    let mut d = Dataset::new();
    let a = AgentId(1);
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let procs: Vec<_> = (0..PROCESSES)
        .map(|i| d.add_entity(Entity::process((1 + i).into(), a, format!("p{i}.exe"), 100)))
        .collect();
    let files: Vec<_> = (0..50u64)
        .map(|i| d.add_entity(Entity::file((100 + i).into(), a, format!("/f/{i}"))))
        .collect();
    for e in 0..6_000u64 {
        let p = (e * 7 % PROCESSES) as usize;
        // Process p is busy from minute 2p for 20 minutes (wrapping).
        let secs = (p as u64 * 120 + e * 13 % 1_200) % 3_600;
        let ev = Event::new(
            (1_000 + e).into(),
            a,
            procs[p],
            OpType::Read,
            files[(e * 31 % 50) as usize],
            EntityKind::File,
            Timestamp(t0 + secs as i64 * 1_000_000_000 + (e % 997) as i64),
        );
        d.add_event(ev.with_amount((e * 37 % 4_096) as i64));
    }
    SharedStore::new(EventStore::ingest(&d, StoreConfig::partitioned()).unwrap())
}

#[test]
fn anomaly_windows_do_not_allocate_per_window() {
    let store = store();
    // Single-threaded, so every allocation lands on this thread's counter.
    let session = Session::with_config(&store, EngineConfig::aiql().with_workers(1));
    // A slow-log entry would allocate for one run and not the other.
    aiql::telemetry::slowlog::global().set_threshold_micros(u64::MAX);
    // Every aggregate state kind (distinct set, min/max deque, sums) and
    // every history reader; no window passes, so no output row is built.
    let statement = |step: u32| {
        session
            .prepare(&format!(
                "window = 1 min, step = {step} sec proc p read file f as evt
                 return p, count(distinct f) as freq, max(evt.amount) as peak,
                        min(f) as first, avg(evt.amount) as amt
                 group by p
                 having freq > 1000000 + freq[2] + SMA(freq, 6) + CMA(freq)
                             + WMA(peak, 3) + EWMA(amt, 0.5)"
            ))
            .unwrap()
    };
    let (coarse, fine) = (statement(10), statement(1));
    // Binding happens outside the count: only the execution is measured.
    let run = |stmt: &aiql::engine::Prepared| {
        let bound = stmt.bind(Params::new()).unwrap();
        allocations(|| bound.execute().unwrap())
    };
    run(&coarse); // warm lazily built statics
    let (few, at_10s): (u64, Cursor) = run(&coarse);
    let (many, at_1s): (u64, Cursor) = run(&fine);

    let (s10, s1) = (at_10s.stats(), at_1s.stats());
    assert!(at_10s.remaining() == 0 && at_1s.remaining() == 0);
    assert_eq!(s10.anomaly_groups, PROCESSES);
    assert_eq!(s1.anomaly_groups, PROCESSES);
    assert_eq!(s10.anomaly_rows_entered, 6_000);
    assert_eq!(s1.anomaly_rows_entered, 6_000);
    assert!(s1.anomaly_windows >= 9 * s10.anomaly_windows);
    // The old executor made 2 976 537 more (349 180 → 3 325 717) for its
    // 3 237 × 24 more group-windows. Now the only slack is a min/max deque
    // that happens to grow once more.
    let extra = many.saturating_sub(few);
    assert!(
        extra <= 2 * PROCESSES,
        "{extra} more allocations for {} more windows ({few} → {many})",
        s1.anomaly_windows - s10.anomaly_windows
    );
}
