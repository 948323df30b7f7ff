//! Columnar scan-path benchmark: the same selective time-window +
//! attribute-predicate event scan against (a) the pure row store, (b) the
//! columnar projections built at batch load, and (c) columnar projections
//! grown live through the ingestor — plus an end-to-end engine query on
//! both layouts.
//!
//! Run with `--test` (the CI smoke mode) to skip the speedup assertion and
//! shrink sample counts; a full run asserts the columnar path is at least
//! 3x faster than the row store on this workload.

use aiql_bench::experiments::scan_conjuncts;
use aiql_bench::harness::{self, Scale};
use aiql_engine::EngineConfig;
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_rdb::{Expr, Prune, Row, RowView, ScanProfile};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--smoke")
}

/// Builds a live store by streaming the dataset through the ingestor, so
/// the columnar blocks under test were maintained incrementally (sorted
/// inserts + sealing), not bulk-built.
fn live_store(data: &aiql_model::Dataset) -> SharedStore {
    let mut ing = Ingestor::new(IngestConfig::live()).expect("empty store");
    let mut batch = EventBatch::new();
    batch.entities = data.entities.clone();
    ing.submit_with_flush(batch).expect("entities land");
    for chunk in data.events.chunks(2048) {
        let mut b = EventBatch::new();
        b.events = chunk.to_vec();
        ing.submit_with_flush(b).expect("bounded queue");
    }
    let (shared, _) = ing.finish().expect("final flush");
    shared
}

/// Every row the workload selects, borrowed from `s`.
fn scan<'a>(s: &'a EventStore, conjuncts: &[Expr]) -> Vec<RowView<'a>> {
    s.scan_events_profiled(
        conjuncts,
        &Prune::all(),
        &mut 0,
        &mut ScanProfile::default(),
    )
}

fn bench(c: &mut Criterion) {
    let smoke = smoke_mode();
    let (data, _) = harness::dataset(Scale::Small);
    let row_store =
        EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false)).expect("ingest");
    let col_store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest");
    let live = live_store(&data);
    let live_guard = live.read();
    let conjuncts = scan_conjuncts(&data);

    // Correctness before speed: all three layouts agree on the workload.
    let sorted = |s: &EventStore| {
        let mut rows: Vec<Row> = scan(s, &conjuncts).iter().map(RowView::to_row).collect();
        rows.sort();
        rows
    };
    let want = sorted(&row_store);
    assert!(!want.is_empty(), "workload must select rows");
    assert_eq!(sorted(&col_store), want, "columnar batch diverged");
    assert_eq!(sorted(&live_guard), want, "columnar live diverged");

    let samples = if smoke { 3 } else { 15 };
    let (row_s, row_n) =
        harness::best_of(samples, || black_box(scan(&row_store, &conjuncts).len()));
    let (col_s, col_n) =
        harness::best_of(samples, || black_box(scan(&col_store, &conjuncts).len()));
    let (live_s, _) = harness::best_of(samples, || black_box(scan(&live_guard, &conjuncts).len()));
    assert_eq!(row_n, col_n);
    let speedup = row_s / col_s.max(1e-12);
    println!(
        "scan speedup: columnar {speedup:.1}x over row store \
         (row {:.3} ms, columnar {:.3} ms, columnar-live {:.3} ms, {} rows)",
        row_s * 1e3,
        col_s * 1e3,
        live_s * 1e3,
        row_n
    );
    if !smoke {
        assert!(
            speedup >= 3.0,
            "columnar scan must be >= 3x the row store, got {speedup:.1}x"
        );
    }

    let mut g = c.benchmark_group("scan");
    g.sample_size(samples);
    g.bench_function("row-store", |b| {
        b.iter(|| black_box(scan(&row_store, &conjuncts).len()))
    });
    g.bench_function("columnar", |b| {
        b.iter(|| black_box(scan(&col_store, &conjuncts).len()))
    });
    g.bench_function("columnar-live", |b| {
        b.iter(|| black_box(scan(&live_guard, &conjuncts).len()))
    });
    g.finish();

    // End-to-end: the paper's pattern/anomaly shapes on both layouts.
    let queries = [
        (
            "pattern",
            r#"(at "01/01/2017") proc p write file f return distinct p, f"#,
        ),
        (
            "anomaly",
            r#"(at "01/01/2017") window = 10 min, step = 10 min
               proc p write file f as evt
               return p, count(evt) as n group by p having n > 0"#,
        ),
    ];
    let mut g = c.benchmark_group("query");
    g.sample_size(if smoke { 2 } else { 5 });
    for (name, q) in queries {
        // Prepared once, executed many: the measured loop isolates the
        // scan path from per-iteration parse cost.
        let prepare = |store: &EventStore| {
            harness::session(store, EngineConfig::aiql())
                .prepare(q)
                .expect("compiles")
        };
        let (row_stmt, col_stmt) = (prepare(&row_store), prepare(&col_store));
        let sorted = |stmt: &aiql_engine::Prepared| {
            let mut r: Vec<Row> = stmt.execute().expect("runs").collect();
            r.sort();
            r
        };
        assert_eq!(
            sorted(&row_stmt),
            sorted(&col_stmt),
            "engine results diverged on {name}"
        );
        g.bench_function(format!("{name}/row-store"), |b| {
            b.iter(|| black_box(row_stmt.execute().expect("runs").count()))
        });
        g.bench_function(format!("{name}/columnar"), |b| {
            b.iter(|| black_box(col_stmt.execute().expect("runs").count()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
