//! Property tests pitting the full engine (both schedulers) against a
//! brute-force reference evaluator on random micro-datasets.

use aiql::engine::{EngineConfig, Scheduler, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct MicroEvent {
    subj: usize,
    op: OpType,
    obj: usize,
    t: i64,
}

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];

fn micro_events() -> impl Strategy<Value = Vec<MicroEvent>> {
    prop::collection::vec(
        (0usize..4, 0usize..3, 0usize..5, 0i64..2_000).prop_map(|(subj, op, obj, t)| MicroEvent {
            subj,
            op: OPS[op],
            obj,
            t,
        }),
        1..60,
    )
}

fn build(events: &[MicroEvent]) -> (Dataset, Vec<String>, Vec<String>) {
    let agent = AgentId(1);
    let mut data = Dataset::new();
    let base = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let procs: Vec<String> = (0..4).map(|i| format!("proc{i}.exe")).collect();
    let files: Vec<String> = (0..5).map(|i| format!("/f/{i}")).collect();
    let proc_ids: Vec<_> = procs
        .iter()
        .enumerate()
        .map(|(i, name)| {
            data.add_entity(Entity::process(
                (i as u64 + 1).into(),
                agent,
                name,
                i as i64,
            ))
        })
        .collect();
    let file_ids: Vec<_> = files
        .iter()
        .enumerate()
        .map(|(i, name)| data.add_entity(Entity::file((i as u64 + 100).into(), agent, name)))
        .collect();
    for (k, ev) in events.iter().enumerate() {
        data.add_event(
            Event::new(
                (k as u64 + 1).into(),
                agent,
                proc_ids[ev.subj],
                ev.op,
                file_ids[ev.obj],
                EntityKind::File,
                Timestamp(base + ev.t * 1_000_000),
            )
            .with_seq(k as u64),
        );
    }
    (data, procs, files)
}

/// Brute-force reference: all pairs (e1, e2) with e1.op = op1, e2.op = op2,
/// same subject, e1 strictly before e2 — projected as (subject exe, file1,
/// file2), sorted + deduped.
fn reference(
    events: &[MicroEvent],
    procs: &[String],
    files: &[String],
    op1: OpType,
    op2: OpType,
) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for e1 in events {
        for e2 in events {
            if e1.op == op1 && e2.op == op2 && e1.subj == e2.subj && e1.t < e2.t {
                out.push((
                    procs[e1.subj].clone(),
                    files[e1.obj].clone(),
                    files[e2.obj].clone(),
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn run_engine(
    data: &Dataset,
    op1: OpType,
    op2: OpType,
    scheduler: Scheduler,
) -> Vec<(String, String, String)> {
    let store = EventStore::ingest(data, StoreConfig::partitioned()).unwrap();
    let src = format!(
        "proc p1 {} file f1 as e1\n proc p1 {} file f2 as e2\n \
         with e1 before e2\n return distinct p1, f1, f2",
        op1.keyword(),
        op2.keyword()
    );
    let engine = Session::with_config(
        &SharedStore::new(store),
        EngineConfig {
            scheduler,
            ..EngineConfig::aiql()
        }
        .with_workers(1),
    );
    let mut rows: Vec<(String, String, String)> = engine
        .run(&src)
        .unwrap()
        .rows
        .into_iter()
        .map(|r| (r[0].to_string(), r[1].to_string(), r[2].to_string()))
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_bruteforce(events in micro_events(), o1 in 0usize..3, o2 in 0usize..3) {
        let (data, procs, files) = build(&events);
        let expected = reference(&events, &procs, &files, OPS[o1], OPS[o2]);
        for scheduler in [Scheduler::Relationship, Scheduler::FetchFilter] {
            let got = run_engine(&data, OPS[o1], OPS[o2], scheduler);
            prop_assert_eq!(&got, &expected, "scheduler {:?}", scheduler);
        }
    }

    #[test]
    fn count_queries_match_row_counts(events in micro_events()) {
        let (data, _, _) = build(&events);
        let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let engine = Session::open(&SharedStore::new(store));
        let rows = engine
            .run("proc p read file f return distinct p, f")
            .unwrap()
            .rows
            .len();
        let counted = engine
            .run("proc p read file f return count distinct p, f")
            .unwrap();
        prop_assert_eq!(counted.rows[0][0].as_int().unwrap() as usize, rows);
    }

    #[test]
    fn anomaly_windows_never_overcount(events in micro_events()) {
        // count(distinct f) per window can never exceed the number of files.
        let (data, _, _) = build(&events);
        let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
        let engine = Session::open(&SharedStore::new(store));
        let r = engine
            .run(
                "window = 1 sec step = 1 sec proc p read file f \
                 return p, count(distinct f) as freq group by p having freq > 0",
            )
            .unwrap();
        for row in &r.rows {
            let freq = row[1].as_int().unwrap();
            prop_assert!((0..=5).contains(&freq), "freq {freq} out of range");
        }
    }
}
