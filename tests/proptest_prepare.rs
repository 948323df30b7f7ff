//! Differential property tests for the prepared-statement lifecycle:
//! `prepare(template).bind(values)` must be *exactly* textual
//! substitution — for every query class (pattern, dependency, anomaly),
//! across partition-day boundaries, on batch-built and live stores, for
//! string values with and without `%` wildcards (LIKE vs equality
//! semantics are decided by the *bound value*, as they would be by the
//! substituted text), and under statement-level plan reuse (one
//! `Prepared`, many bindings).

use aiql::engine::{EngineConfig, Params, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use proptest::prelude::*;

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];
const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

#[derive(Debug, Clone)]
struct MicroEvent {
    agent: u32,
    subj: usize,
    op: usize,
    obj: usize,
    ms: i64,
    amount: i64,
}

fn micro_events() -> impl Strategy<Value = Vec<MicroEvent>> {
    prop::collection::vec(
        (
            0u32..2,
            0usize..2,
            0usize..3,
            0usize..3,
            0i64..4_000,
            0i64..5_000,
        )
            .prop_map(|(agent, subj, op, obj, ms, amount)| MicroEvent {
                agent,
                subj,
                op,
                obj,
                ms,
                amount,
            }),
        1..60,
    )
}

/// Per agent: 2 processes + 3 files; events stamped around the Jan 1→2
/// midnight so bindings routinely cross the partition-day boundary.
fn build(events: &[MicroEvent]) -> Dataset {
    let mut data = Dataset::new();
    let boundary = Timestamp::from_ymd(2017, 1, 1).unwrap().0 + NANOS_PER_DAY;
    let mut proc_ids = Vec::new();
    let mut file_ids = Vec::new();
    for agent in 0..2u32 {
        let a = AgentId(agent);
        let base = (agent as u64 + 1) * 100;
        proc_ids.push(
            (0..2u64)
                .map(|i| {
                    data.add_entity(Entity::process(
                        (base + i).into(),
                        a,
                        format!("proc{agent}_{i}.exe"),
                        i as i64,
                    ))
                })
                .collect::<Vec<_>>(),
        );
        file_ids.push(
            (0..3u64)
                .map(|i| {
                    data.add_entity(Entity::file(
                        (base + 10 + i).into(),
                        a,
                        format!("/a{agent}/f{i}"),
                    ))
                })
                .collect::<Vec<_>>(),
        );
    }
    for (k, ev) in events.iter().enumerate() {
        let t = boundary - 2_000_000_000 + ev.ms * 1_000_000;
        data.add_event(
            Event::new(
                (k as u64 + 1_000).into(),
                AgentId(ev.agent),
                proc_ids[ev.agent as usize][ev.subj],
                OPS[ev.op],
                file_ids[ev.agent as usize][ev.obj],
                EntityKind::File,
                Timestamp(t),
            )
            .with_seq(k as u64)
            .with_amount(ev.amount),
        );
    }
    data.sort_events();
    data
}

/// A live store grown through publish-per-batch write sessions, so the
/// session executes against genuinely published snapshots.
fn live_store(data: &Dataset) -> SharedStore {
    let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
    {
        let mut w = shared.write();
        for e in &data.entities {
            w.append_entity(e).unwrap();
        }
        w.publish();
    }
    for chunk in data.events.chunks(7) {
        let mut w = shared.write();
        for ev in chunk {
            w.append_event(ev).unwrap();
        }
        w.publish();
    }
    shared
}

/// One template per query class, each with agent / window / attribute
/// placeholders.
const PATTERN_TEMPLATE: &str = "(from $t0 to $t1) agentid = $agent \
     proc p1[$pname] read file f1 as e1 proc p1 write file f2 as e2 \
     with e1 before e2 return distinct p1, f1, f2";
const DEPENDENCY_TEMPLATE: &str = "(at $day) \
     forward: proc p1[$pname] ->[write] file f1[$fname] <-[read] proc p2 \
     return distinct p1, f1, p2";
const ANOMALY_TEMPLATE: &str = "agentid = $agent window = 1 sec step = 1 sec \
     proc p read || write file f[$fname] as e[amount >= $min] \
     return p, count(distinct f) as freq group by p having freq > 0";

/// The textual-substitution oracle: splice the literal spellings into the
/// template and compile the result from scratch.
fn substituted(template: &str, subs: &[(&str, String)]) -> String {
    let mut out = template.to_string();
    for (name, lit) in subs {
        out = out.replace(&format!("${name}"), lit);
    }
    out
}

/// The reference: a session over the batch-built store, running the
/// substituted source text.
fn batch_session(data: &Dataset) -> Session {
    Session::open(&SharedStore::new(
        EventStore::ingest(data, StoreConfig::partitioned()).unwrap(),
    ))
}

fn sorted_rows(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut v: Vec<String> = rows
        .into_iter()
        .map(|r| {
            r.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    v.sort();
    v
}

/// Name strategies: exact matches, `%` wildcards (LIKE semantics), and
/// misses.
fn proc_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "proc0_0.exe".to_string(),
        "proc1_1.exe".to_string(),
        "%_0.exe".to_string(),
        "proc%".to_string(),
        "%nothing%".to_string(),
    ])
}

fn file_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "/a0/f0".to_string(),
        "/a1/f2".to_string(),
        "%f1".to_string(),
        "/a0%".to_string(),
        "%".to_string(),
    ])
}

/// Windows crossing (or missing) the day boundary.
fn window() -> impl Strategy<Value = (String, String)> {
    prop::sample::select(vec![
        (
            "01/01/2017 23:59:57".to_string(),
            "01/02/2017 00:00:03".to_string(),
        ),
        ("01/01/2017".to_string(), "01/03/2017".to_string()),
        (
            "01/01/2017 23:59:59".to_string(),
            "01/02/2017 00:00:01".to_string(),
        ),
        ("01/02/2017".to_string(), "01/02/2017 00:00:02".to_string()),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bind_equals_textual_substitution_pattern(
        events in micro_events(),
        agent in 0i64..3,
        pname in proc_name(),
        win in window(),
    ) {
        let (t0, t1) = win;
        let data = build(&events);
        let batch = batch_session(&data);
        let live = live_store(&data);

        let src = substituted(PATTERN_TEMPLATE, &[
            ("t0", format!("{t0:?}")),
            ("t1", format!("{t1:?}")),
            ("agent", agent.to_string()),
            ("pname", format!("{pname:?}")),
        ]);
        let want = sorted_rows(batch.run(&src).unwrap().rows);

        // Batch store: the template bound on the reference's own session.
        let params = Params::new()
            .set("t0", t0.as_str())
            .set("t1", t1.as_str())
            .set("agent", agent)
            .set("pname", pname.as_str());
        let got_batch = sorted_rows(
            batch.prepare(PATTERN_TEMPLATE).unwrap()
                .bind(params.clone()).unwrap().execute().unwrap().into_result().rows,
        );
        prop_assert_eq!(&got_batch, &want, "batch bind diverged: {}", src);

        // Live store: session-level prepared statement, plan slot reused.
        let session = Session::open(&live);
        let prepared = session.prepare(PATTERN_TEMPLATE).unwrap();
        let got_live = sorted_rows(
            prepared.bind(params).unwrap().execute().unwrap().into_result().rows,
        );
        prop_assert_eq!(&got_live, &want, "live bind diverged: {}", src);
    }

    #[test]
    fn bind_equals_textual_substitution_dependency_and_anomaly(
        events in micro_events(),
        agent in 0i64..2,
        pname in proc_name(),
        fname in file_name(),
        day in prop::sample::select(vec!["01/01/2017".to_string(), "01/02/2017".to_string()]),
        min in 0i64..5_000,
    ) {
        let data = build(&events);
        let batch = batch_session(&data);
        let live = live_store(&data);
        let session = Session::open(&live);

        // Dependency query.
        let src = substituted(DEPENDENCY_TEMPLATE, &[
            ("day", format!("{day:?}")),
            ("pname", format!("{pname:?}")),
            ("fname", format!("{fname:?}")),
        ]);
        let want = sorted_rows(batch.run(&src).unwrap().rows);
        let params = Params::new()
            .set("day", day.as_str())
            .set("pname", pname.as_str())
            .set("fname", fname.as_str());
        let got = sorted_rows(
            session.prepare(DEPENDENCY_TEMPLATE).unwrap()
                .bind(params).unwrap().execute().unwrap().into_result().rows,
        );
        prop_assert_eq!(&got, &want, "dependency bind diverged: {}", src);

        // Anomaly query (sliding windows + event constraint param).
        let src = substituted(ANOMALY_TEMPLATE, &[
            ("agent", agent.to_string()),
            ("fname", format!("{fname:?}")),
            ("min", min.to_string()),
        ]);
        let want = sorted_rows(batch.run(&src).unwrap().rows);
        let params = Params::new()
            .set("agent", agent)
            .set("fname", fname.as_str())
            .set("min", min);
        let got = sorted_rows(
            session.prepare(ANOMALY_TEMPLATE).unwrap()
                .bind(params).unwrap().execute().unwrap().into_result().rows,
        );
        prop_assert_eq!(&got, &want, "anomaly bind diverged: {}", src);
    }

    #[test]
    fn one_prepared_statement_many_bindings_with_plan_reuse(
        events in micro_events(),
        names in prop::collection::vec(proc_name(), 2..5),
    ) {
        let data = build(&events);
        let batch = batch_session(&data);
        let live = live_store(&data);
        // Statistical planner: the first binding plans (measured
        // selectivities), later bindings reuse the cached plan — results
        // must stay identical to per-call planning on the oracle.
        let session = Session::with_config(&live, EngineConfig::aiql_statistical());
        let prepared = session.prepare(PATTERN_TEMPLATE).unwrap();
        for (i, pname) in names.iter().enumerate() {
            let agent = (i % 3) as i64;
            let (t0, t1) = ("01/01/2017", "01/03/2017");
            let src = substituted(PATTERN_TEMPLATE, &[
                ("t0", format!("{t0:?}")),
                ("t1", format!("{t1:?}")),
                ("agent", agent.to_string()),
                ("pname", format!("{pname:?}")),
            ]);
            let want = sorted_rows(batch.run(&src).unwrap().rows);
            let got = sorted_rows(
                prepared
                    .bind(Params::new()
                        .set("t0", t0).set("t1", t1)
                        .set("agent", agent).set("pname", pname.as_str()))
                    .unwrap()
                    .execute()
                    .unwrap()
                    .into_result()
                    .rows,
            );
            prop_assert_eq!(&got, &want, "binding {} diverged: {}", i, src);
        }
    }
}
