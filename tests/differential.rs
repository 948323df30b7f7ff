//! Differential testing across independent implementations: the AIQL engine
//! (both schedulers, and the Fig. 7 parallel row-store configuration) must
//! agree with the big-join SQL baseline, the MPP gather baseline and the
//! graph-traversal baseline on every comparable catalog query.

use aiql::baselines::greenplum::SegmentedStore;
use aiql::baselines::{neo4j, normalize, postgres};
use aiql::bench::catalog::{self, QueryKind};
use aiql::bench::harness::session;
use aiql::datagen::EnterpriseSim;
use aiql::engine::EngineConfig;
use aiql::model::Dataset;
use aiql::rdb::Database;
use aiql::storage::{EventStore, StoreConfig};
use aiql_model::Value;

struct World {
    partitioned: EventStore,
    postgres: Database,
    graph: aiql::graphdb::GraphDb,
}

fn data() -> Dataset {
    EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(99)
        .events_per_host_per_day(400)
        .attacks(true)
        .build()
        .generate()
}

fn world() -> World {
    let data = data();
    World {
        partitioned: EventStore::ingest(&data, StoreConfig::partitioned()).unwrap(),
        postgres: postgres::load(&data).unwrap(),
        graph: neo4j::load_graph(&data),
    }
}

fn aiql_rows(w: &World, src: &str, config: EngineConfig) -> Vec<Vec<Value>> {
    normalize(session(&w.partitioned, config).run(src).unwrap().rows)
}

/// Sequential relationship scheduling: the reference execution.
fn sequential() -> EngineConfig {
    EngineConfig::aiql().with_workers(1)
}

#[test]
fn all_multievent_queries_agree_across_five_systems() {
    let w = world();
    let queries: Vec<_> = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .filter(|q| q.kind != QueryKind::Anomaly)
        .collect();
    assert!(queries.len() >= 30);

    for q in queries {
        let ctx = aiql::lang::compile(q.source).unwrap();

        let relationship = aiql_rows(&w, q.source, EngineConfig::aiql());
        let ff = aiql_rows(&w, q.source, EngineConfig::fetch_filter());
        assert_eq!(relationship, ff, "{}: schedulers disagree", q.id);

        let (pg, _) = postgres::run(&w.postgres, &ctx, None).unwrap();
        assert_eq!(
            relationship,
            normalize(pg),
            "{}: big-join SQL disagrees",
            q.id
        );

        // The traversal baseline skips aggregate queries (s3) by design.
        match neo4j::run(&w.graph, &ctx, None) {
            Ok((n4, _)) => {
                assert_eq!(
                    relationship,
                    normalize(n4),
                    "{}: graph traversal disagrees",
                    q.id
                )
            }
            Err(aiql::baselines::BaselineError::Untranslatable(_)) => {}
            Err(e) => panic!("{}: neo4j failed: {e}", q.id),
        }
    }
}

/// The fifth system: Fig. 7's AIQL column — by-host partitions of a row
/// store, scattered over the pool at 5 workers — returns exactly the
/// sequential relationship result, rows and order, on every catalog query.
#[test]
fn fig7_configuration_is_row_identical_to_sequential() {
    let data = data();
    let reference = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    let fig7 = EventStore::ingest(&data, StoreConfig::partitioned().with_columnar(false)).unwrap();
    let (reference, fig7) = (
        session(&reference, sequential()),
        session(&fig7, EngineConfig::aiql().with_workers(5)),
    );
    let queries = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours());
    for q in queries {
        let want = reference.run(q.source).unwrap();
        assert!(!want.rows.is_empty(), "{}: scenario not found", q.id);
        assert_eq!(
            fig7.run(q.source).unwrap(),
            want,
            "{}: Fig. 7 configuration disagrees",
            q.id
        );
    }
}

#[test]
fn greenplum_gather_agrees_with_postgres() {
    let w = world();
    let rr_segmented = SegmentedStore::ingest(&data(), 4).unwrap();
    for q in catalog::behaviours() {
        if q.kind == QueryKind::Anomaly {
            continue;
        }
        let ctx = aiql::lang::compile(q.source).unwrap();
        let gp = aiql::baselines::greenplum::run(&rr_segmented, &ctx, None).unwrap();
        let (pg, _) = postgres::run(&w.postgres, &ctx, None).unwrap();
        assert_eq!(
            normalize(gp),
            normalize(pg),
            "{}: MPP gather disagrees",
            q.id
        );
    }
}

#[test]
fn temporal_range_queries_agree_with_sql() {
    // `before[lo-hi]` exercises the arithmetic comparison path of the SQL
    // substrate end to end (the catalog queries use plain `before`).
    let w = world();
    let src = r#"
        (at "01/02/2017") agentid = 9
        proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as e1
        proc p4 read file f1 as e2
        with e1 before[1-10 min] e2
        return distinct p3, f1, p4
    "#;
    let ctx = aiql::lang::compile(src).unwrap();
    let ours = aiql_rows(&w, src, EngineConfig::aiql());
    assert_eq!(ours.len(), 1, "dump written 14:05, read 14:10 — gap 5 min");
    let (pg, _) = postgres::run(&w.postgres, &ctx, None).unwrap();
    assert_eq!(ours, normalize(pg));

    // Out-of-range gap finds nothing, in both systems.
    let src = src.replace("before[1-10 min]", "before[1-2 min]");
    let ctx = aiql::lang::compile(&src).unwrap();
    let ours = aiql_rows(&w, &src, EngineConfig::aiql());
    assert!(ours.is_empty());
    let (pg, _) = postgres::run(&w.postgres, &ctx, None).unwrap();
    assert!(pg.is_empty());
}

#[test]
fn statistical_scorer_agrees_with_constraint_scorer() {
    // The Sec. 7 ablation must not change results, only scheduling.
    let w = world();
    for q in catalog::behaviours() {
        if q.kind == QueryKind::Anomaly {
            continue;
        }
        let count = aiql_rows(&w, q.source, EngineConfig::aiql());
        let stats = aiql_rows(&w, q.source, EngineConfig::aiql_statistical());
        assert_eq!(count, stats, "{}: scorers disagree", q.id);
    }
}

#[test]
fn parallel_partitions_do_not_change_results() {
    let w = world();
    for q in catalog::behaviours() {
        let seq = aiql_rows(&w, q.source, sequential());
        let par = aiql_rows(&w, q.source, EngineConfig::aiql());
        assert_eq!(seq, par, "{}: partition parallelism changed results", q.id);
    }
}
