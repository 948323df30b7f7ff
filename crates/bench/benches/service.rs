//! Prepared-session query-serving benchmark: the closed-loop analyst
//! re-issuing the parameterized Query-7 family, prepared-once vs
//! re-parse-per-call, plus microbenches for the two per-iteration paths.
//!
//! Run with `--test` (the CI smoke mode) to shrink sample counts and skip
//! the speedup assertion; a full run asserts prepared execution clears
//! 2x the re-parse throughput on this workload and that `EXPLAIN` covers
//! the columnar, index-probe, and seq-scan access paths.

use aiql_bench::harness::{self, best_of, Scale};
use aiql_bench::service::{family, family_probe_binding, FamilyBinding, QUERY7_TEMPLATE};
use aiql_engine::{EngineConfig, Session};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--smoke")
}

/// One re-parse-per-call iteration: a fresh session compiles and plans
/// `src` from scratch.
fn reparse(store: &SharedStore, src: &str) -> usize {
    Session::with_config(store, EngineConfig::aiql_statistical())
        .run(src)
        .expect("runs")
        .rows
        .len()
}

fn run_family(
    store: &SharedStore,
    bindings: &[FamilyBinding],
    sources: &[String],
    prepared: bool,
) -> (f64, usize) {
    let session = Session::with_config(store, EngineConfig::aiql_statistical());
    let stmt = session.prepare(QUERY7_TEMPLATE).expect("template compiles");
    best_of(1, || {
        let mut rows = 0usize;
        if prepared {
            for b in bindings {
                rows += stmt
                    .bind(b.to_params())
                    .expect("binds")
                    .execute()
                    .expect("runs")
                    .count();
            }
        } else {
            for src in sources {
                rows += reparse(store, src);
            }
        }
        rows
    })
}

fn bench(c: &mut Criterion) {
    let smoke = smoke_mode();
    let (data, _) = harness::dataset(Scale::Small);
    let store =
        SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"));
    let bindings = family(&data);
    let sources: Vec<String> = bindings.iter().map(FamilyBinding::to_source).collect();

    // Correctness gates (always on): the prepared family agrees with the
    // reparse family, and the attack binding finds the chain with an
    // EXPLAIN that covers the major access paths.
    {
        let session = Session::open(&store);
        let stmt = session.prepare(QUERY7_TEMPLATE).expect("compiles");
        for (b, src) in bindings.iter().zip(&sources) {
            let ours = stmt
                .bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("runs")
                .into_result();
            let oracle = Session::open(&store).run(src).expect("runs");
            assert_eq!(ours, oracle, "agent {} family member diverged", b.agent);
        }
        let probe = stmt
            .bind(family_probe_binding().to_params())
            .expect("binds")
            .execute()
            .expect("runs")
            .into_result();
        assert_eq!(probe.rows.len(), 1, "attack binding finds the c5 chain");
        let explain = aiql_bench::service::family_explain(&store);
        let paths = explain.access_paths();
        assert!(
            paths.contains(&"index-probe"),
            "pushdown probes expected: {paths:?}"
        );

        // Seq-scan coverage: the same store without columnar projections
        // falls back to sequential partition scans on an unindexed filter.
        let row_store = SharedStore::new(
            EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false))
                .expect("ingest"),
        );
        let seq = Session::open(&row_store)
            .prepare(r#"(at "01/02/2017") proc p write file f as e[amount >= 0] return count p"#)
            .expect("compiles")
            .explain()
            .expect("explains");
        assert!(
            seq.access_paths().contains(&"seq-scan"),
            "row store: {:?}",
            seq.access_paths()
        );
        // Columnar coverage on the projected store, same unindexed filter.
        let col = Session::open(&store)
            .prepare(r#"(at "01/02/2017") proc p write file f as e[amount >= 0] return count p"#)
            .expect("compiles")
            .explain()
            .expect("explains");
        assert!(
            col.access_paths().contains(&"columnar"),
            "projected store: {:?}",
            col.access_paths()
        );
    }

    let (reparse_s, n1) = run_family(&store, &bindings, &sources, false);
    let (prepared_s, n2) = run_family(&store, &bindings, &sources, true);
    assert_eq!(n1, n2);
    let speedup = reparse_s / prepared_s.max(1e-12);
    eprintln!(
        "[family of {}: reparse {:.2} ms, prepared {:.2} ms, speedup {speedup:.1}x]",
        bindings.len(),
        reparse_s * 1e3,
        prepared_s * 1e3,
    );
    if !smoke {
        assert!(
            speedup >= 2.0,
            "prepared sessions must clear 2x re-parse throughput, got {speedup:.2}x"
        );
    }

    // Closed-loop wire mode: the same family over loopback through
    // aiql-server, every page row-checked against the in-process oracle.
    // Smoke keeps the axis short; the full axis (through 256 clients) runs
    // in `repro service`, where the numbers land in BENCH_service.json.
    {
        let levels: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64] };
        let per_level = Duration::from_millis(if smoke { 250 } else { 1000 });
        let closed = aiql_bench::service::closed_loop_bench(&store, &bindings, levels, per_level);
        for l in &closed.levels {
            eprintln!(
                "[closed-loop {} client(s): {:.0} qps, p50 {:.3} ms, p99 {:.3} ms]",
                l.clients, l.qps, l.p50_ms, l.p99_ms
            );
        }
        assert_eq!(
            closed.protocol_errors, 0,
            "happy-path closed-loop must not trip protocol errors"
        );
        assert!(
            closed.sessions_opened >= levels.iter().sum::<usize>() as u64,
            "every client opens a session"
        );
        assert!(
            closed.levels.iter().all(|l| l.statements > 0),
            "every level completes statements: {:?}",
            closed.levels
        );
    }

    let samples = if smoke { 5 } else { 40 };
    let mut g = c.benchmark_group("service");
    g.sample_size(samples);
    let b0 = &bindings[0];
    let src0 = &sources[0];
    let session = Session::with_config(&store, EngineConfig::aiql_statistical());
    let stmt = session.prepare(QUERY7_TEMPLATE).expect("compiles");
    g.bench_function("reparse_per_call", |b| {
        b.iter(|| black_box(reparse(&store, src0)))
    });
    g.bench_function("prepared_bind_execute", |b| {
        b.iter(|| {
            black_box(
                stmt.bind(b0.to_params())
                    .expect("binds")
                    .execute()
                    .expect("runs")
                    .count(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
