//! Criterion bench for Table 3 / Fig. 5: AIQL vs the PostgreSQL big join vs
//! the Neo4j traversal on representative case-study queries.

use aiql_bench::catalog;
use aiql_bench::harness::{self, Scale, Systems};
use aiql_engine::EngineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let (data, _) = harness::dataset(Scale::Small);
    let systems = Systems::build(&data);
    let session = harness::session(&systems.partitioned, EngineConfig::aiql());
    let queries = catalog::case_study();

    // The simplest (c1-1) and the most complex (c5-7) multievent queries.
    for id in ["c1-1", "c5-7"] {
        let q = queries.iter().find(|q| q.id == id).expect("catalog id");
        let ctx = aiql_core::compile(q.source).expect("compiles");

        let mut g = c.benchmark_group(format!("case_study/{id}"));
        g.sample_size(10);
        g.bench_function("aiql", |b| {
            let stmt = session.prepare(q.source).expect("compiles");
            b.iter(|| black_box(stmt.execute().expect("runs").count()))
        });
        g.bench_function("postgres", |b| {
            b.iter(|| {
                black_box(
                    aiql_baselines::postgres::run(&systems.postgres, &ctx, None).expect("runs"),
                )
            })
        });
        g.bench_function("neo4j", |b| {
            b.iter(|| {
                black_box(aiql_baselines::neo4j::run(&systems.graph, &ctx, None).expect("runs"))
            })
        });
        g.finish();
    }

    // The anomaly starter (AIQL only, as in the paper).
    let q = queries.iter().find(|q| q.id == "c5-0").expect("anomaly");
    let mut g = c.benchmark_group("case_study/c5-0");
    g.sample_size(10);
    g.bench_function("aiql-anomaly", |b| {
        let stmt = session.prepare(q.source).expect("compiles");
        b.iter(|| black_box(stmt.execute().expect("runs").count()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
