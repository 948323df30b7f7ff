//! Ablation bench (paper Sec. 7 discussion): constraint-count pruning
//! scores vs the statistical cardinality-estimate refinement, and the
//! contribution of partition parallelism.

use aiql_bench::catalog;
use aiql_bench::harness::{self, Scale};
use aiql_engine::{EngineConfig, ScoreModel};
use aiql_storage::{EventStore, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (data, _) = harness::dataset(Scale::Small);
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest");
    let queries: Vec<_> = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .collect();

    // Scorer ablation on queries whose constraint counts mislead (broad
    // leading patterns) and on a selective control. A fresh session per
    // iteration, so every run pays its scorer's planning.
    for id in ["c2-7", "c5-5", "a2", "c5-7"] {
        let q = queries.iter().find(|q| q.id == id).expect("catalog id");
        let mut g = c.benchmark_group(format!("ablation-scorer/{id}"));
        g.sample_size(10);
        for (name, config) in [
            (
                "constraint-count",
                EngineConfig {
                    scorer: ScoreModel::ConstraintCount,
                    ..EngineConfig::aiql()
                },
            ),
            ("data-statistics", EngineConfig::aiql_statistical()),
        ] {
            g.bench_function(name, |b| {
                b.iter(|| {
                    black_box(
                        harness::session(&store, config)
                            .run(q.source)
                            .expect("runs"),
                    )
                })
            });
        }
        g.finish();
    }

    // Parallelism ablation: partition-parallel scans on vs off.
    for id in ["c5-7", "a4"] {
        let q = queries.iter().find(|q| q.id == id).expect("catalog id");
        let mut g = c.benchmark_group(format!("ablation-parallel/{id}"));
        g.sample_size(10);
        for (name, parallel) in [("sequential", false), ("partition-parallel", true)] {
            let config = EngineConfig {
                parallel,
                ..EngineConfig::aiql()
            };
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
