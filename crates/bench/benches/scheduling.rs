//! Criterion bench for Fig. 6: PostgreSQL scheduling vs fetch-and-filter vs
//! relationship-based scheduling over the same partition-optimized store.

use aiql_bench::catalog;
use aiql_bench::harness::{self, Scale};
use aiql_storage::{EventStore, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (data, _) = harness::dataset(Scale::Small);
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest");
    let queries = catalog::behaviours();

    // One query per behaviour family (a2 is the broad/heavy one).
    for id in ["a2", "d3", "v2", "s1"] {
        let q = queries.iter().find(|q| q.id == id).expect("catalog id");
        let ctx = aiql_core::compile(q.source).expect("compiles");
        let mut g = c.benchmark_group(format!("scheduling/{id}"));
        g.sample_size(10);
        g.bench_function("postgres-sched", |b| {
            b.iter(|| black_box(aiql_baselines::postgres::run(store.db(), &ctx, None).ok()))
        });
        for (name, config) in [
            ("fetch-filter", harness::ff_config()),
            ("relationship", harness::sched_only_config()),
        ] {
            let stmt = harness::session(&store, config)
                .prepare(q.source)
                .expect("compiles");
            g.bench_function(name, |b| {
                b.iter(|| black_box(stmt.execute().expect("runs").count()))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
