//! `ingest`: the operator of the collection pipeline.
//!
//! The write use of the same rdb / storage layers `investigate` reads, so
//! a scan gain bought with insert cost, memory or disk shows here. One
//! thread, closed loop: the shipper sends its next shipment when the
//! previous one is acknowledged. Each round, in a fresh store directory:
//! open a durable ingestor, replay the dataset as 1 024-event shipments
//! (±2 s clock skew, arrivals up to 64 positions out of order), one
//! `submit_with_flush` + `flush` — one fsync, one publish — per shipment,
//! a checkpoint at the midpoint, a *live pass* of reads against the live
//! store after every 128th flush (the only reads in the benchmark that hit
//! unsealed tails), then drop without a final checkpoint and reopen.
//!
//! The store directory is inside the checkout, on whatever filesystem
//! holds it; the fsync per shipment is issued and its latency is that
//! filesystem's, reported as `wal.sync_mean_us`.

use crate::spans::Tracer;
use crate::support::{
    dataset, dir_bytes, finish_end_to_end, median_of, ratio, run_rounds, timed_setup, Args,
    Metrics, Outcome, Pace, RegistryDelta, Samples, WorkDir,
};
use aiql::bench::catalog;
use aiql::bench::service::{family_probe_binding, QUERY7_TEMPLATE};
use aiql::datagen::stream::{stream, StreamConfig};
use aiql::engine::{open_store, Bound, Params, Prepared, Session};
use aiql::ingest::{EventBatch, IngestConfig, Ingestor};
use aiql::model::{codec, Dataset};
use aiql::storage::timesync::ClockSample;
use aiql::storage::SharedStore;
use aiql::wal::{Wal, WalOptions};
use std::path::PathBuf;
use std::time::Instant;

const SHIPMENT_EVENTS: usize = 1024;
/// A live pass follows every this many flushes.
const LIVE_PASS_EVERY: usize = 128;
/// Shipments of the untimed first-touch pass that ends each set-up.
const FIRST_TOUCH_SHIPMENTS: usize = 64;
const PROBE: &str = "agentid = $agent proc p write file f return count p";
/// Catalog statements of the live pass.
const LIVE_CATALOG: [&str; 3] = ["c2-1", "c4-2", "c5-6"];

struct Sut {
    work: WorkDir,
    data: Dataset,
    shipments: Vec<EventBatch>,
    attacks: bool,
    generate_s: f64,
    stream_s: f64,
}

/// Latency samples pooled over the measured rounds: calibrated seconds.
#[derive(Default)]
struct Pooled {
    ack: Samples,
    submit: Samples,
    flush: Samples,
}

/// What one round did; times are calibrated seconds.
#[derive(Default)]
struct Round {
    /// Acknowledgements + live passes + checkpoint + reopen.
    work_s: f64,
    ack_s: f64,
    events: usize,
    live_pass_mean_s: f64,
    /// Rows of every live-pass statement, in issue order.
    live_rows: Vec<usize>,
    checkpoint_s: f64,
    recover_s: f64,
    slowdown: f64,
    snapshot: Option<PathBuf>,
    snapshot_bytes_per_event: f64,
    disk_bytes: u64,
    out_of_order: u64,
    rollovers: u64,
    max_queue_depth: usize,
    flush_retries: u64,
    ops: u64,
    dir: PathBuf,
}

fn setup(args: &Args, pace: &mut Pace) -> Sut {
    let quiet = &mut Tracer::new();
    pace.tick(quiet, 20);
    let t = Instant::now();
    let data = dataset(args);
    let generate_s = t.elapsed().as_secs_f64();
    pace.tick(quiet, 20);

    let t = Instant::now();
    let (batches, skews) = stream(
        &data,
        &StreamConfig {
            batch_events: SHIPMENT_EVENTS,
            max_skew_ns: 2_000_000_000,
            jitter_events: 64,
            seed: args.seed,
        },
    );
    let mut shipments: Vec<EventBatch> = batches
        .into_iter()
        .map(|b| EventBatch {
            entities: b.entities,
            events: b.events,
            clock_samples: Vec::new(),
        })
        .collect();
    // Each agent reports a clock sample with its first shipment; the
    // ingestor corrects all later stamps server-side.
    for s in &skews {
        shipments[0].add_clock_sample(
            s.agent,
            ClockSample {
                agent_time: 0,
                server_time: s.offset_ns,
            },
        );
    }
    let stream_s = t.elapsed().as_secs_f64();
    pace.tick(quiet, 20);

    let sut = Sut {
        work: WorkDir::create(args),
        data,
        shipments,
        attacks: !args.smoke,
        generate_s,
        stream_s,
    };
    // First touch: a short untimed round, so the directory tree, the
    // allocator and the telemetry handles exist before anything is timed.
    sut.round(quiet, &mut Pooled::default(), FIRST_TOUCH_SHIPMENTS);
    pace.tick(quiet, 20);
    sut
}

/// The live pass's prepared statements on one ingestor's store.
struct LivePass {
    probe: Prepared,
    query7: Prepared,
    catalog: Vec<Prepared>,
}

impl LivePass {
    fn prepare(session: &Session) -> LivePass {
        let all = catalog::case_study();
        LivePass {
            probe: session.prepare(PROBE).expect("compiles"),
            query7: session.prepare(QUERY7_TEMPLATE).expect("compiles"),
            catalog: LIVE_CATALOG
                .iter()
                .map(|id| {
                    let q = all.iter().find(|q| q.id == *id).expect("catalog id");
                    session.prepare(q.source).expect("compiles")
                })
                .collect(),
        }
    }

    /// Runs every statement once, a few reference units after each;
    /// returns how many there were.
    fn run(&self, tr: &mut Tracer, pace: &mut Pace, rows: &mut Vec<usize>) -> u64 {
        let bind = |p: &Prepared, params: Params| p.bind(params).expect("binds");
        let mut bound: Vec<Bound> = vec![
            bind(&self.query7, family_probe_binding().to_params()),
            bind(&self.probe, Params::new().set("agent", 1)),
        ];
        bound.extend(self.catalog.iter().map(|c| bind(c, Params::new())));
        let ops = bound.len() as u64;
        for b in bound {
            tr.next_op();
            let span = tr.enter("engine", "live_stmt");
            rows.push(b.execute().expect("live statement runs").count());
            tr.exit(span);
            pace.tick(tr, 4);
        }
        ops
    }
}

impl Sut {
    /// One round over the first `shipments` shipments. The directory is
    /// left behind for the caller (the next round or the drop guard
    /// removes it).
    fn round(&self, tr: &mut Tracer, pooled: &mut Pooled, shipments: usize) -> Round {
        let dir = self.work.fresh("store");
        // Cloned before the clock starts: `submit` consumes its batch.
        let shipments: Vec<EventBatch> =
            self.shipments[..shipments.min(self.shipments.len())].to_vec();
        let total = shipments.len();
        let mut out = Round::default();
        // Each kind of operation is calibrated by the reference units run
        // right beside it: the sandbox's pace moves within a round.
        let (mut ack_pace, mut live_pace, mut checkpoint_pace, mut recover_pace) = (
            Pace::default(),
            Pace::default(),
            Pace::default(),
            Pace::default(),
        );
        let (mut ack_s, mut submit_s, mut flush_s, mut live_pass_s) = (
            Samples::default(),
            Samples::default(),
            Samples::default(),
            Samples::default(),
        );
        // Seconds the log has spent in `sync_data` so far. That wait is the
        // checkout's block device's, and on this sandbox it swings between
        // 0.3 ms and several ms with the host's load; an acknowledgement is
        // timed without it and it is reported apart (`wal.sync_mean_us`).
        let synced = aiql::telemetry::global().histogram("aiql_wal_fsync_micros");
        let synced_s = || synced.snapshot().sum as f64 / 1e6;
        let round_span = tr.enter("bench", "round");

        let span = tr.enter("ingest", "open");
        let (mut ingestor, recovered) =
            Ingestor::durable(IngestConfig::live(), &dir).expect("open a fresh durable store");
        tr.exit(span);
        assert!(recovered.is_none(), "the round's directory was not fresh");
        let shared = ingestor.shared();
        let live = LivePass::prepare(&Session::open(&shared));

        for (i, shipment) in shipments.into_iter().enumerate() {
            ack_pace.tick(tr, 1);
            out.events += shipment.event_count();
            tr.next_op();
            out.ops += 1;
            let synced_before = synced_s();
            let whole = tr.enter("bench", "shipment");
            let span = tr.enter("ingest", "submit");
            // Never `submit(..).expect(..)`: the first shipment carries
            // every unreferenced entity and may outweigh the high-water
            // mark on its own; this writes it through instead.
            let early = ingestor
                .submit_with_flush(shipment)
                .expect("shipment accepted");
            submit_s.push(tr.exit(span));
            let span = tr.enter("ingest", "flush");
            let report = ingestor.flush().expect("shipment acknowledged");
            let sync_wait = synced_s() - synced_before;
            flush_s.push(tr.exit(span) - sync_wait);
            ack_s.push(tr.exit(whole) - sync_wait);
            let failed_rows = report.failed_rows + early.map_or(0, |r| r.failed_rows);
            assert_eq!(failed_rows, 0, "rows were dead-lettered");

            if (i + 1) % LIVE_PASS_EVERY == 0 {
                live_pace.tick(tr, 4);
                let before = live_pace.reference_s();
                let span = tr.enter("bench", "live_pass");
                out.ops += live.run(tr, &mut live_pace, &mut out.live_rows);
                live_pass_s.push(tr.exit(span) - (live_pace.reference_s() - before));
            }
            if i + 1 == total / 2 {
                checkpoint_pace.tick(tr, 20);
                tr.next_op();
                out.ops += 1;
                let synced_before = synced_s();
                let span = tr.enter("storage", "checkpoint");
                let path = ingestor
                    .checkpoint()
                    .expect("checkpoint")
                    .expect("durable ingestor");
                out.checkpoint_s = tr.exit(span) - (synced_s() - synced_before);
                checkpoint_pace.tick(tr, 20);
                let bytes = std::fs::metadata(&path).expect("snapshot file").len();
                out.snapshot_bytes_per_event = ratio(bytes as f64, shared.stamp().events as f64);
                out.snapshot = Some(path);
            }
        }

        let stats = ingestor.stats();
        assert_eq!(
            stats.batches_rejected, 0,
            "back-pressure rejected a shipment"
        );
        assert_eq!(stats.failed_rows, 0);
        assert_eq!(
            shared.read().event_count(),
            out.events,
            "the live store lost acknowledged events"
        );
        out.out_of_order = stats.out_of_order_events;
        out.rollovers = stats.rollovers;
        out.max_queue_depth = stats.max_queue_depth;
        out.flush_retries = stats.flush_retries;
        out.disk_bytes = dir_bytes(&dir);

        // The process "restarts": no final checkpoint, reopen from the
        // snapshot plus the log tail.
        drop((live, shared, ingestor));
        recover_pace.tick(tr, 20);
        tr.next_op();
        out.ops += 1;
        let span = tr.enter("storage", "open_store");
        let reopened = open_store(&dir).expect("reopen");
        out.recover_s = tr.exit(span);
        recover_pace.tick(tr, 20);
        tr.exit(round_span);
        assert_eq!(
            reopened.event_count(),
            out.events,
            "recovery lost acknowledged events"
        );
        if self.attacks && total == self.shipments.len() {
            let chains = Session::open(&SharedStore::new(reopened))
                .prepare(QUERY7_TEMPLATE)
                .expect("compiles")
                .bind(family_probe_binding().to_params())
                .expect("binds")
                .execute()
                .expect("runs")
                .count();
            assert_eq!(chains, 1, "Query 7 lost its chain across the restart");
        }

        out.slowdown = ack_pace.slowdown();
        let calibrate = 1.0 / out.slowdown;
        out.ack_s = ack_s.sum() * calibrate;
        // A round cut short (first touch) has no live pass or checkpoint.
        if live_pass_s.len() > 0 {
            out.live_pass_mean_s = live_pass_s.mean() / live_pace.slowdown();
        }
        if out.snapshot.is_some() {
            out.checkpoint_s /= checkpoint_pace.slowdown();
        }
        out.recover_s /= recover_pace.slowdown();
        out.work_s = out.ack_s
            + out.live_pass_mean_s * live_pass_s.len() as f64
            + out.checkpoint_s
            + out.recover_s;
        pooled.ack.absorb(ack_s, calibrate);
        pooled.submit.absorb(submit_s, calibrate);
        pooled.flush.absorb(flush_s, calibrate);
        out.dir = dir;
        out
    }
}

/// Isolated probes of the layers under the ingestor (raw times).
fn probes(sut: &Sut, last: &Round, out: &mut Metrics) {
    let events = &sut.data.events[..sut.data.events.len().min(100_000)];
    let mut buf = Vec::with_capacity(events.len() * 96);
    let t = Instant::now();
    for ev in events {
        codec::write_event(&mut buf, ev).expect("encodes");
    }
    let encode_s = t.elapsed().as_secs_f64();
    let mut cursor = std::io::Cursor::new(&buf);
    let t = Instant::now();
    for _ in events {
        std::hint::black_box(codec::read_event(&mut cursor).expect("decodes"));
    }
    let decode_s = t.elapsed().as_secs_f64();
    let n = events.len() as f64;
    out.insert("model.encode_ns_per_event", ratio(encode_s * 1e9, n));
    out.insert("model.decode_ns_per_event", ratio(decode_s * 1e9, n));

    let wal_dir = sut.work.fresh("wal-probe");
    let mut wal = Wal::open(&wal_dir, WalOptions::default()).expect("open a log");
    let t = Instant::now();
    for ev in events {
        wal.append_event(ev).expect("appends");
    }
    let append_s = t.elapsed().as_secs_f64();
    wal.sync().expect("syncs");
    drop(wal);
    let t = Instant::now();
    let replayed = aiql::wal::replay(&wal_dir).expect("replays").records.len();
    let replay_s = t.elapsed().as_secs_f64();
    assert_eq!(replayed, events.len());
    out.insert("wal.append_ns_per_record", ratio(append_s * 1e9, n));
    out.insert("wal.replay_events_per_s", ratio(n, replay_s));

    // The two halves of the last round's reopen, apart.
    let snapshot = last.snapshot.as_ref().expect("the round checkpointed");
    let t = Instant::now();
    let (store, _) = aiql::storage::persist::load_snapshot(snapshot).expect("snapshot loads");
    out.insert("storage.snapshot_load_s", t.elapsed().as_secs_f64());
    drop(store);
    let t = Instant::now();
    let tail = aiql::wal::replay(aiql::storage::persist::wal_dir(&last.dir)).expect("replays");
    std::hint::black_box(tail.records.len());
    out.insert("storage.wal_read_s", t.elapsed().as_secs_f64());
}

pub fn run(args: &Args) -> Outcome {
    let (sut, first_setup_s) = timed_setup(|pace| setup(args, pace));
    let shipments = sut.shipments.len();

    let registry_before = aiql::telemetry::global().snapshot();
    let mut tracer = Tracer::new();
    let mut pooled = Pooled::default();
    let mut reference: Option<(Vec<usize>, u64)> = None;
    let (plain, traced) = run_rounds(args, &mut tracer, |tracer| {
        let round = sut.round(tracer, &mut pooled, shipments);
        assert_eq!(round.events, sut.data.events.len());
        // Fixed work: every round reads the same rows and leaves the same
        // bytes behind.
        let fingerprint = (round.live_rows.clone(), round.disk_bytes);
        match &reference {
            None => reference = Some(fingerprint),
            Some(first) => assert!(first == &fingerprint, "rounds of fixed work differ"),
        }
        round
    });
    let rounds = plain.len() + traced.len();
    let registry = RegistryDelta::since(registry_before);
    let all = || plain.iter().chain(&traced);
    let rejections = registry.counter("aiql_ingest_backpressure_rejections_total");
    assert_eq!(rejections, 0, "back-pressure rejected a shipment");

    let events = sut.data.events.len() as f64;
    let last = plain.last().expect("at least one untraced round");
    let events_per_s = median_of(&plain, |r| ratio(r.events as f64, r.ack_s));
    let live_pass_ms = median_of(&plain, |r| r.live_pass_mean_s) * 1e3;
    let recover_s = median_of(&plain, |r| r.recover_s);
    let disk_bytes_per_event = ratio(last.disk_bytes as f64, events);
    let mut e2e = Metrics::new();
    e2e.insert("round_s", median_of(&plain, |r| r.work_s));
    e2e.insert("bulk_per_s", events_per_s);
    e2e.insert("interactive_p50_ms", pooled.ack.median() * 1e3);
    e2e.insert("heavy_read_ms", live_pass_ms);
    e2e.insert("stall_ms", recover_s * 1e3);
    e2e.insert("bytes_per_event", disk_bytes_per_event);

    let mut layer = Metrics::new();
    layer.insert("bench.slowdown", median_of(&plain, |r| r.slowdown));
    layer.insert("datagen.generate_s", sut.generate_s);
    layer.insert("datagen.stream_s", sut.stream_s);
    layer.insert("ingest.events_per_s", events_per_s);
    layer.insert("ingest.ack_p50_ms", pooled.ack.median() * 1e3);
    layer.insert("ingest.ack_p95_ms", pooled.ack.quantile(0.95) * 1e3);
    layer.insert("ingest.submit_p50_us", pooled.submit.median() * 1e6);
    layer.insert("ingest.flush_p50_ms", pooled.flush.median() * 1e3);
    layer.insert(
        "ingest.out_of_order_share",
        ratio(last.out_of_order as f64, events),
    );
    layer.insert("ingest.rollovers", last.rollovers as f64);
    layer.insert("ingest.max_queue_depth", last.max_queue_depth as f64);
    layer.insert("ingest.backpressure_rejections", rejections as f64);
    layer.insert(
        "ingest.flush_retries",
        all().map(|r| r.flush_retries).sum::<u64>() as f64,
    );
    layer.insert("engine.live_pass_ms", live_pass_ms);
    let (hits, misses) = (
        registry.counter("aiql_core_plan_cache_hits_total") as f64,
        registry.counter("aiql_core_plan_cache_misses_total") as f64,
    );
    layer.insert("core.plan_cache_hit_rate", ratio(hits, hits + misses));
    layer.insert(
        "storage.checkpoint_s",
        median_of(&plain, |r| r.checkpoint_s),
    );
    layer.insert("storage.recover_s", recover_s);
    layer.insert(
        "storage.snapshot_bytes_per_event",
        last.snapshot_bytes_per_event,
    );
    layer.insert("storage.disk_bytes_per_event", disk_bytes_per_event);
    layer.insert(
        "storage.publish_mean_us",
        registry.histogram_mean("aiql_storage_publish_micros"),
    );
    let (_, copied) = registry.histogram("aiql_storage_publish_bytes_copied");
    let (appends, appended) = registry.histogram("aiql_wal_append_bytes");
    layer.insert(
        "storage.publish_bytes_per_appended_byte",
        ratio(copied as f64, appended as f64),
    );
    let (syncs, sync_micros) = registry.histogram("aiql_wal_fsync_micros");
    layer.insert("wal.sync_mean_us", ratio(sync_micros as f64, syncs as f64));
    layer.insert("wal.appends_per_sync", ratio(appends as f64, syncs as f64));
    layer.insert(
        "wal.bytes_per_event",
        ratio(appended as f64, rounds as f64 * events),
    );
    if args.trace {
        probes(&sut, last, &mut layer);
        let overhead = ratio(
            median_of(&traced, |r| r.work_s),
            median_of(&plain, |r| r.work_s),
        );
        crate::trace_metrics(args, &tracer, overhead, &mut layer);
    }

    let attempted = all().map(|r| r.ops).sum();
    let notes = vec![format!(
        "{} events in {shipments} shipments per round · {rounds} rounds · {} acks · \
             store directory under {} · sandbox slowdown {:.3}",
        sut.data.events.len(),
        pooled.ack.len(),
        sut.work.path().display(),
        median_of(&plain, |r| r.slowdown),
    )];
    if !args.trace {
        finish_end_to_end(&mut e2e, sut, first_setup_s, |pace| setup(args, pace));
    }
    Outcome {
        attempted,
        end_to_end: e2e,
        per_layer: layer,
        notes,
    }
}
