//! Ingestion-throughput benchmark: one-shot batch loading vs streaming
//! appends through `aiql-ingest` (events/sec), plus query latency against a
//! live store versus a batch-loaded one.

use aiql_bench::harness::{self, Scale};
use aiql_datagen::stream::{stream, StreamConfig};
use aiql_engine::Session;
use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
use aiql_storage::timesync::ClockSample;
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Streams the whole dataset through a fresh ingestor.
fn stream_load(
    batches: &[aiql_datagen::StreamBatch],
    skews: &[aiql_datagen::AgentSkew],
) -> SharedStore {
    let mut ing =
        Ingestor::new(IngestConfig::live().with_high_water_mark(8 * 1024)).expect("empty store");
    for (i, sb) in batches.iter().enumerate() {
        let mut eb = EventBatch {
            entities: sb.entities.clone(),
            events: sb.events.clone(),
            clock_samples: Vec::new(),
        };
        if i == 0 {
            for s in skews {
                eb.add_clock_sample(
                    s.agent,
                    ClockSample {
                        agent_time: 0,
                        server_time: s.offset_ns,
                    },
                );
            }
        }
        ing.submit_with_flush(eb).expect("bounded queue");
    }
    let (shared, _) = ing.finish().expect("final flush");
    shared
}

fn bench(c: &mut Criterion) {
    let (data, _) = harness::dataset(Scale::Small);
    let cfg = StreamConfig {
        batch_events: 512,
        ..StreamConfig::default()
    };
    let (batches, skews) = stream(&data, &cfg);

    // Headline throughput numbers (events/sec), printed once.
    let t = Instant::now();
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("batch ingest");
    let batch_eps = data.events.len() as f64 / t.elapsed().as_secs_f64();
    let t = Instant::now();
    let shared = stream_load(&batches, &skews);
    let stream_eps = data.events.len() as f64 / t.elapsed().as_secs_f64();
    println!(
        "ingestion throughput: batch {batch_eps:.0} events/s, streaming {stream_eps:.0} events/s \
         ({:.1}% of batch)",
        100.0 * stream_eps / batch_eps
    );

    let mut g = c.benchmark_group("ingestion");
    g.sample_size(10);
    g.bench_function("batch-load", |b| {
        b.iter(|| {
            black_box(
                EventStore::ingest(&data, StoreConfig::partitioned())
                    .expect("ingest")
                    .event_count(),
            )
        })
    });
    g.bench_function("streaming-append", |b| {
        b.iter(|| black_box(stream_load(&batches, &skews).read().event_count()))
    });

    // Query latency: the same investigation query against the batch-loaded
    // store and the live (streamed) store must cost about the same — the
    // paper's partition/index plans survive live ingestion.
    // Prepared once (session-API style): per-iteration parse cost stays
    // out of the measured query path.
    let q = r#"(at "01/02/2017") proc p write ip i[dstip = "192.168.66.129"] as evt
               return distinct p, i"#;
    let batch_stmt = harness::session(&store, aiql_engine::EngineConfig::aiql())
        .prepare(q)
        .expect("compiles");
    g.bench_function("query-batch-store", |b| {
        b.iter(|| black_box(batch_stmt.execute().expect("runs").count()))
    });
    // Each execution runs against the freshest published snapshot.
    let live_stmt = Session::open(&shared).prepare(q).expect("compiles");
    g.bench_function("query-live-store", |b| {
        b.iter(|| black_box(live_stmt.execute().expect("runs").count()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
