//! Criterion bench for sharded scatter-gather execution: the heavy
//! multi-pattern hunt (Fig. 7 behaviour family, unpinned from its agent)
//! on the sequential scan path vs the worker-pool scatter path, over an
//! 8-shard store. Small scale keeps `--test` mode CI-fast; the full
//! speedup curve with the 2x gate lives in `repro parallel`.

use aiql_bench::harness::{self, Scale};
use aiql_bench::parallel::sharded_store;
use aiql_engine::EngineConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const QUERY: &str = r#"
    (at "01/02/2017")
    proc p1["%firefox.exe"] read ip i1 as e1
    proc p1 write file f1["%.exe"] as e2
    proc p1 start proc p2 as e3
    with e1 before e2, e2 before e3
    return distinct p1, i1, f1, p2
"#;

fn bench(c: &mut Criterion) {
    let (data, _) = harness::dataset(Scale::Small);
    let store = sharded_store(&data);
    let sequential = EngineConfig {
        parallel: false,
        ..EngineConfig::aiql()
    };

    let mut g = c.benchmark_group("parallel/scatter-gather");
    g.sample_size(10);
    for (name, config) in [
        ("sequential".to_string(), sequential),
        (
            "scatter-2w".to_string(),
            EngineConfig::aiql().with_workers(2),
        ),
        (
            "scatter-4w".to_string(),
            EngineConfig::aiql().with_workers(4),
        ),
    ] {
        let stmt = harness::session(&store, config)
            .prepare(QUERY)
            .expect("compiles");
        g.bench_function(name, |b| {
            b.iter(|| black_box(stmt.execute().expect("runs").count()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
