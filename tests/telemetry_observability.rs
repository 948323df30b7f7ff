//! Workspace-level observability tests: the telemetry registry under
//! concurrency, the trace-span phase tree of a real prepared Query-7
//! execution — the paper's complete exfiltration chain — from lex to
//! score, and the scatter pool's metrics under a scattered statement.

use aiql::bench::harness::{dataset, Scale};
use aiql::engine::{EngineConfig, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql::telemetry::{Histogram, Registry};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
use proptest::prelude::*;

/// The paper's Query 7 (the c5 exfiltration chain), as the examples and
/// the APT case study run it.
const QUERY7: &str = r#"
    (at "01/02/2017") agentid = 9
    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
    proc p4["%sbblv.exe"] read file f1 as evt3
    proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1
"#;

/// The minimal dataset in which Query 7 finds exactly the chain.
fn exfiltration_dataset() -> Dataset {
    let mut d = Dataset::new();
    let a = AgentId(9);
    let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
    let s = 1_000_000_000i64;
    let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 10));
    let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 11));
    let sql = d.add_entity(Entity::process(3.into(), a, "sqlservr.exe", 12));
    let sbblv = d.add_entity(Entity::process(4.into(), a, "sbblv.exe", 13));
    let dump = d.add_entity(Entity::file(5.into(), a, "C:\\db\\BACKUP1.DMP"));
    let evil = d.add_entity(Entity::netconn(
        6.into(),
        a,
        "10.1.1.2",
        49999,
        "10.10.1.129",
        443,
    ));
    let mut eid = 0u64;
    let mut ev = |d: &mut Dataset, subj, op, obj, kind, t: i64| {
        eid += 1;
        d.add_event(Event::new(eid.into(), a, subj, op, obj, kind, Timestamp(t)));
    };
    ev(
        &mut d,
        cmd,
        OpType::Start,
        osql,
        EntityKind::Process,
        t0 + 10 * s,
    );
    ev(
        &mut d,
        sql,
        OpType::Write,
        dump,
        EntityKind::File,
        t0 + 20 * s,
    );
    ev(
        &mut d,
        sbblv,
        OpType::Read,
        dump,
        EntityKind::File,
        t0 + 30 * s,
    );
    ev(
        &mut d,
        sbblv,
        OpType::Write,
        evil,
        EntityKind::NetConn,
        t0 + 40 * s,
    );
    d
}

#[test]
fn query7_phase_tree_covers_compile_and_execute() {
    let store = SharedStore::new(
        EventStore::ingest(&exfiltration_dataset(), StoreConfig::partitioned()).expect("ingest"),
    );
    let session = Session::open(&store);
    let stmt = session.prepare(QUERY7).expect("prepare");

    // Compile side: prepare's tree shows the language pipeline.
    let prepare = stmt.trace().expect("prepare is traced");
    assert_eq!(prepare.name, "prepare");
    for phase in ["lex", "parse", "analyze"] {
        assert!(
            prepare.child(phase).is_some(),
            "prepare tree missing {phase}:\n{}",
            prepare.render()
        );
    }

    // Execute side: plan, one scan per executed pattern, joins for the
    // temporal relations, and final scoring — and the chain is found.
    let cursor = stmt.execute().expect("execute");
    let execute = cursor.trace().expect("execute is traced").clone();
    assert_eq!(cursor.count(), 1, "the exfiltration chain");
    assert_eq!(execute.name, "execute");
    assert!(execute.child("plan").is_some(), "{}", execute.render());
    let scans = execute.children_with_prefix("scan:");
    assert!(
        scans.len() >= 4,
        "four patterns execute:\n{}",
        execute.render()
    );
    // Patterns are named by their event variables in the trace.
    for evt in ["evt1", "evt2", "evt3", "evt4"] {
        assert!(
            execute.child(&format!("scan:{evt}")).is_some(),
            "missing scan:{evt}:\n{}",
            execute.render()
        );
    }
    assert!(execute.child("join").is_some(), "{}", execute.render());
    assert!(execute.child("score").is_some(), "{}", execute.render());
    // The rendered tree is the `:trace` repl view — every phase on a line.
    let rendered = execute.render();
    assert!(rendered.contains("scan:evt3"), "{rendered}");

    // The global registry saw the execution.
    let snap = aiql::telemetry::global().snapshot();
    assert!(snap.counter("aiql_engine_statements_total").unwrap_or(0) >= 1);
    assert!(
        snap.histogram("aiql_engine_scan_micros")
            .map_or(0, |h| h.count)
            >= 4
    );
    let prom = snap.to_prometheus();
    assert!(prom.contains("aiql_engine_execute_micros_count"), "{prom}");
}

/// The a1 behaviour (Fig. 7 family) without its `agentid` pin, so every
/// host's partitions are admitted and the scan spreads over all of them.
const UNPINNED_HUNT: &str = r#"
    (at "01/02/2017")
    proc p1["%firefox.exe"] read ip i1 as e1
    proc p1 write file f1["%.exe"] as e2
    proc p1 start proc p2 as e3
    with e1 before e2, e2 before e3
    return distinct p1, i1, f1, p2
"#;

#[test]
fn scattered_statement_moves_the_pool_metrics() {
    let (data, _) = dataset(Scale::Small);
    // One partition per (day, host): the day prune admits one per host.
    let store = EventStore::ingest(&data, StoreConfig::partitioned().with_agent_group(1))
        .expect("per-host ingest");
    let stmt = Session::with_config(
        &SharedStore::new(store),
        EngineConfig::aiql().with_workers(2),
    )
    .prepare(UNPINNED_HUNT)
    .expect("prepare");

    let registry = aiql::telemetry::global();
    let tasks = || {
        registry
            .snapshot()
            .counter("aiql_engine_pool_tasks")
            .unwrap_or(0)
    };
    let waits = || {
        registry
            .snapshot()
            .histogram("aiql_engine_pool_queue_wait_micros")
            .map_or(0, |h| h.count)
    };
    let (tasks_before, waits_before) = (tasks(), waits());
    assert!(
        stmt.execute().expect("execute").count() > 0,
        "the hunt finds the chain"
    );
    // Other tests in this binary only ever add to the process-wide registry.
    assert!(
        tasks() >= tasks_before + 2,
        "scatter submitted no partition tasks"
    );
    assert!(
        waits() >= waits_before + 2,
        "no queue wait recorded per task"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recording a value set from several threads concurrently produces
    /// exactly the same histogram as recording it sequentially — counts,
    /// sums, buckets, and max all match (recording is a relaxed-atomic
    /// add per bucket, so no observation can be lost or double-counted).
    #[test]
    fn concurrent_recording_equals_sequential(
        values in prop::collection::vec(0u64..1_000_000, 1..400),
        threads in 2usize..6,
    ) {
        let sequential = Histogram::new();
        for &v in &values {
            sequential.record(v);
        }

        let concurrent = Histogram::new();
        std::thread::scope(|scope| {
            for chunk in values.chunks(values.len().div_ceil(threads)) {
                let h = concurrent.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                    }
                });
            }
        });

        prop_assert_eq!(sequential.snapshot(), concurrent.snapshot());
    }

    /// Counters shared across threads converge to the exact total, and a
    /// private registry's snapshot reflects it.
    #[test]
    fn concurrent_counting_is_exact(per_thread in 1u64..500, threads in 2usize..6) {
        let registry = Registry::new();
        let counter = registry.counter("t_total");
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = counter.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        prop_assert_eq!(
            registry.snapshot().counter("t_total"),
            Some(per_thread * threads as u64)
        );
    }
}
