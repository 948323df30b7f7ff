//! Scatter-gather oracle: the worker-pool execution path, one task per
//! admitted partition, must be **row-identical, including order**, to the
//! sequential scan path — for the paper's three query classes (pattern,
//! dependency, anomaly), agent groups of 1 to 3 (up to 8 partitions),
//! scan widths 2 to 8, and stores built in batch *and* grown live through
//! the ingestor.
//!
//! Order matters: the gather merge sorts per-partition results by
//! partition key to reproduce the sequential partition walk exactly, so the two
//! paths are asserted equal without any sorting on this side. A mere
//! set-equality check would let a broken merge slip through.

use aiql::engine::{EngineConfig, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use proptest::prelude::*;

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];
const NANOS_PER_DAY: i64 = 86_400 * 1_000_000_000;

/// One random micro-event across 4 agents; `ms` spans a 4-second window
/// centered on the day-0 → day-1 midnight, so with per-host partitioning
/// (agent-group 1) a dataset occupies up to 8 `(day, agent)` partitions —
/// enough spread to exercise every scan width up to 8.
#[derive(Debug, Clone)]
struct MicroEvent {
    agent: u32,
    subj: usize,
    op: usize,
    obj: usize,
    ms: i64,
}

fn micro_events() -> impl Strategy<Value = Vec<MicroEvent>> {
    prop::collection::vec(
        (0u32..4, 0usize..3, 0usize..3, 0usize..4, 0i64..4_000).prop_map(
            |(agent, subj, op, obj, ms)| MicroEvent {
                agent,
                subj,
                op,
                obj,
                ms,
            },
        ),
        1..100,
    )
}

/// Builds the dataset: per agent, 3 processes + 4 files, events stamped
/// around midnight of Jan 1→2 2017.
fn build(events: &[MicroEvent]) -> Dataset {
    let mut data = Dataset::new();
    let boundary = Timestamp::from_ymd(2017, 1, 1).unwrap().0 + NANOS_PER_DAY;
    let mut proc_ids = Vec::new();
    let mut file_ids = Vec::new();
    for agent in 0..4u32 {
        let a = AgentId(agent);
        let base = (agent as u64 + 1) * 100;
        proc_ids.push(
            (0..3u64)
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
            (0..4u64)
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
            .with_seq(k as u64),
        );
    }
    data.sort_events();
    data
}

/// The paper's three query classes over this micro-schema.
fn queries() -> [&'static str; 3] {
    [
        // Pattern (multievent) with a temporal relation.
        "proc p1 read file f1 as e1\n proc p1 write file f2 as e2\n \
         with e1 before e2\n return distinct p1, f1, f2",
        // Dependency (forward tracking), compiled to multievent form.
        "forward: proc p1 ->[write] file f1 <-[read] proc p2\n return distinct p1, f1, p2",
        // Anomaly: sliding windows with a per-process frequency aggregate.
        "window = 1 sec step = 1 sec\n proc p read file f\n \
         return p, count(distinct f) as freq\n group by p\n having freq > 0",
    ]
}

/// Partitions of `group` consecutive agents a day.
fn config(group: u32) -> StoreConfig {
    StoreConfig::partitioned().with_agent_group(group)
}

/// Grows a store from empty through the real ingestor (entities first,
/// then events in small shipments, a publish per flush).
fn streamed_store(data: &Dataset, group: u32) -> SharedStore {
    let shared = SharedStore::new(EventStore::empty(config(group)).expect("empty store"));
    let mut ingestor = Ingestor::over(shared.clone(), IngestConfig::live());
    let mut first = EventBatch::new();
    first.entities = data.entities.clone();
    ingestor.submit(first).expect("submit entities");
    ingestor.flush().expect("flush entities");
    for chunk in data.events.chunks(7) {
        let mut batch = EventBatch::new();
        batch.events = chunk.to_vec();
        ingestor.submit(batch).expect("submit events");
        ingestor.flush().expect("flush events");
    }
    shared
}

/// Rows of `query` at scan width `workers` (1 = the sequential scan).
fn run(store: &EventStore, workers: usize, query: &str) -> Vec<Vec<Value>> {
    let config = EngineConfig::aiql().with_workers(workers);
    Session::with_config(&SharedStore::new(store.clone()), config)
        .run(query)
        .expect("query runs")
        .rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn scatter_gather_is_row_identical_to_sequential(
        events in micro_events(),
        group in 1u32..4,
        workers in 2usize..9,
    ) {
        let data = build(&events);
        let batch = EventStore::ingest(&data, config(group)).expect("batch ingest");
        let streamed = streamed_store(&data, group);
        let snapshot = streamed.read();
        for query in queries() {
            let sequential = run(&batch, 1, query);
            let scattered = run(&batch, workers, query);
            prop_assert_eq!(
                &scattered, &sequential,
                "batch store diverged: group {} workers {}\n{}", group, workers, query
            );
            let sequential = run(&snapshot, 1, query);
            let scattered = run(&snapshot, workers, query);
            prop_assert_eq!(
                &scattered, &sequential,
                "streamed store diverged: group {} workers {}\n{}", group, workers, query
            );
        }
    }
}
