//! Durability differential tests: a store persisted, dropped, and reopened
//! must return results identical to the never-crashed live store for the
//! paper query suite (the `tests/paper_queries.rs` cases) — including a
//! mid-stream "crash" that leaves a torn final WAL frame.

use aiql::datagen::EnterpriseSim;
use aiql::engine::{open_store, Session};
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::Dataset;
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::path::PathBuf;

fn dataset() -> Dataset {
    EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(7)
        .events_per_host_per_day(500)
        .attacks(true)
        .build()
        .generate()
}

/// The paper's runnable query suite (Queries 2–7 plus the Sec. 4.3 EWMA
/// variant), verbatim from `tests/paper_queries.rs` — pattern, dependency,
/// and anomaly classes.
fn paper_suite() -> [&'static str; 7] {
    [
        // Query 2: command-history probing.
        r#"agentid = 8 (at "01/02/2017")
           proc p2 start proc p1 as evt1
           proc p3 read file["%.viminfo" || "%.bash_history"] as evt2
           with p1 = p3, evt1 before evt2
           return p2, p1 sort by p2, p1"#,
        // Query 3: forward dependency tracking.
        r#"(at "01/02/2017")
           forward: proc p1["%/bin/cp%", agentid = 2] ->[write] file f1["/var/www/%info_stealer%"]
           <-[read] proc p2["%apache%"]
           ->[connect] proc p3[agentid = 3]
           ->[write] file f2["%info_stealer%"]
           return f1, p1, p2, p3, f2"#,
        // Query 4: SMA network access frequency.
        r#"(at "01/02/2017") agentid = 1 window = 1 min step = 10 sec
           proc p read ip ipp
           return p, count(distinct ipp) as freq group by p
           having freq > 2 * (freq + freq[1] + freq[2]) / 3"#,
        // Query 5: anomaly — the exfiltration burst.
        r#"(at "01/02/2017") agentid = 9 window = 1 min, step = 10 sec
           proc p write ip i[dstip = "192.168.66.129"] as evt
           return p, avg(evt.amount) as amt group by p
           having (amt > 2 * (amt + amt[1] + amt[2]) / 3)"#,
        // Query 6: the dump-read starter.
        r#"(at "01/02/2017") agentid = 9
           proc p1["%sbblv.exe"] read || write file f1 as evt1
           proc p1 read || write ip i1[dstip = "192.168.66.129"] as evt2
           with evt1 before evt2
           return distinct p1, f1, i1, evt1.optype"#,
        // Query 7: the complete c5 exfiltration chain.
        r#"(at "01/02/2017") agentid = 9
           proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
           proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
           proc p4["%sbblv.exe"] read file f1 as evt3
           proc p4 read || write ip i1[dstip = "192.168.66.129"] as evt4
           with evt1 before evt2, evt2 before evt3, evt3 before evt4
           return distinct p1, p2, p3, f1, p4, i1"#,
        // Sec. 4.3 EWMA variant.
        r#"(at "01/02/2017") agentid = 9 window = 1 min, step = 10 sec
           proc p write ip i[dstip = "192.168.66.129"] as evt
           return p, avg(evt.amount) as freq group by p
           having (freq - EWMA(freq, 0.9)) / EWMA(freq, 0.9) > 0.2"#,
    ]
}

/// Runs the whole suite, rendering each result to sorted row strings.
fn run_suite(store: &EventStore) -> Vec<Vec<String>> {
    let engine = Session::open(&SharedStore::new(store.clone()));
    paper_suite()
        .iter()
        .map(|q| {
            let r = engine.run(q).unwrap_or_else(|e| panic!("{q} failed: {e}"));
            let mut rows: Vec<String> = r
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("\t")
                })
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    aiql::fault::testing::scratch_dir(&format!("recovery-it-{name}"))
}

/// Streams the dataset through a durable ingestor in `chunk`-event
/// shipments, checkpointing after every `checkpoint_every`-th flush
/// (0 = never), then drops the ingestor *without* a final checkpoint —
/// the kill point.
fn durable_stream(data: &Dataset, dir: &PathBuf, chunk: usize, checkpoint_every: usize) {
    let (mut ing, report) = Ingestor::durable(IngestConfig::live(), dir).expect("durable open");
    assert!(report.is_none(), "fresh scratch directory");
    let mut first = EventBatch::new();
    first.entities = data.entities.clone();
    ing.submit(first).expect("entities within the mark");
    ing.flush().expect("entities land");
    for (i, events) in data.events.chunks(chunk).enumerate() {
        let mut b = EventBatch::new();
        b.events = events.to_vec();
        ing.submit(b).expect("within the mark");
        ing.flush().expect("acknowledged");
        if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
            ing.checkpoint().expect("checkpoint").expect("durable");
        }
    }
}

#[test]
fn persisted_snapshot_reopens_byte_identical_for_the_paper_suite() {
    let data = dataset();
    // Build the store append-wise with a mid-stream seal, so every hot
    // partition carries a sealed chunk *and* a non-empty open tail — the
    // layout the chunk-boundary round-trip below must reproduce.
    let mut live = EventStore::empty(StoreConfig::partitioned()).unwrap();
    for e in &data.entities {
        live.append_entity(e).unwrap();
    }
    let (head, rest) = data.events.split_at(data.events.len() / 2);
    for ev in head {
        live.append_event(ev).unwrap();
    }
    live.seal_tails();
    for ev in rest {
        live.append_event(ev).unwrap();
    }
    let dir = scratch("snapshot");
    live.persist_to(&dir).unwrap();

    let reopened = open_store(&dir).expect("engine open-from-disk entrypoint");
    assert_eq!(reopened.event_count(), live.event_count());
    assert_eq!(reopened.entity_count(), live.entity_count());
    assert_eq!(reopened.stamp(), live.stamp());
    assert_eq!(reopened.dict().len(), live.dict().len());
    assert_eq!(
        reopened.events_partitioned().partition_count(),
        live.events_partitioned().partition_count()
    );
    // The chunk layout round-trips exactly: the snapshot records every seal
    // boundary and restore re-seals at each one, so a reopened partition is
    // chunk-for-chunk the pre-shutdown one — sealedness included.
    let live_parts = live
        .events_partitioned()
        .partitions_for(&aiql::rdb::Prune::all());
    let re_parts = reopened
        .events_partitioned()
        .partitions_for(&aiql::rdb::Prune::all());
    assert!(
        live_parts
            .iter()
            .any(|(_, t)| t.chunk_boundaries().len() >= 2),
        "mid-stream freeze produced no multi-chunk partition"
    );
    assert_eq!(live_parts.len(), re_parts.len());
    for ((lk, lt), (rk, rt)) in live_parts.iter().zip(re_parts.iter()) {
        assert_eq!(lk, rk, "partition keys diverged");
        assert_eq!(
            lt.chunk_boundaries(),
            rt.chunk_boundaries(),
            "chunk seal boundaries diverged for partition {lk:?}"
        );
        assert_eq!(
            lt.sealed_chunks().len(),
            rt.sealed_chunks().len(),
            "sealed/open split diverged for partition {lk:?}"
        );
        assert_eq!(lt.chunk_rows(), rt.chunk_rows());
    }
    assert_eq!(
        run_suite(&reopened),
        run_suite(&live),
        "paper suite diverged"
    );
    // The suite actually found the planted scenario (Query 7's one chain).
    assert_eq!(run_suite(&reopened)[5].len(), 1, "c5 chain survives reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_stream_killed_without_checkpoint_recovers_everything() {
    let data = dataset();
    let dir = scratch("kill");
    durable_stream(&data, &dir, 1024, 3);
    // Kill: the ingestor dropped after its last acknowledged flush; the
    // tail since the last checkpoint lives only in the WAL.
    let recovered = EventStore::open(&dir).unwrap();
    assert_eq!(recovered.event_count(), data.events.len());
    assert_eq!(recovered.entity_count(), data.entities.len());

    let live = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    assert_eq!(
        recovered.events_partitioned().partition_count(),
        live.events_partitioned().partition_count()
    );
    assert_eq!(
        run_suite(&recovered),
        run_suite(&live),
        "suite diverged after crash recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_wal_record_loses_exactly_the_unacknowledged_tail() {
    let data = dataset();
    let dir = scratch("torn");
    durable_stream(&data, &dir, 512, 4);

    // Tear the final WAL frame: a crash mid-write leaves a partial frame.
    assert!(
        aiql_wal::testing::tear_last_segment(dir.join("wal"), 5).unwrap(),
        "tail segment holds post-checkpoint records"
    );

    // The final flush is one frame, and a torn frame goes whole.
    let recovered = EventStore::open(&dir).unwrap();
    let n = recovered.event_count();
    let last_flush = data.events.chunks(512).last().unwrap().len();
    assert_eq!(
        n,
        data.events.len() - last_flush,
        "exactly the torn final flush is lost"
    );

    // Differential oracle: a never-crashed store over the recovered prefix
    // (events were streamed in dataset order with no clock skew, so the
    // acknowledged prefix is the first n events).
    let mut oracle = EventStore::empty(StoreConfig::partitioned()).unwrap();
    for e in &data.entities {
        oracle.append_entity(e).unwrap();
    }
    for ev in &data.events[..n] {
        oracle.append_event(ev).unwrap();
    }
    assert_eq!(recovered.entity_count(), oracle.entity_count());
    assert_eq!(
        recovered.events_partitioned().partition_count(),
        oracle.events_partitioned().partition_count()
    );
    assert_eq!(
        run_suite(&recovered),
        run_suite(&oracle),
        "suite diverged after torn-tail recovery"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
