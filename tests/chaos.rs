//! Crash-at-every-step chaos harness.
//!
//! `tests/proptest_recovery.rs` proves the acknowledged-prefix invariant
//! under *random tears*; this suite proves it under **exhaustive fault
//! sites**. A recorded durable-ingest run (two process lives: stream +
//! checkpoint + kill, then recover + stream + kill) is traced through
//! `aiql_fault` to enumerate every faultpoint the stack crosses — segment
//! opens/reads/writes/fsyncs/removals, snapshot creates/writes/syncs/
//! renames/reads/removals, directory syncs. Each site is then re-run with
//! a fault injected there (an errno, and separately a full process crash),
//! and the reopened store must equal a never-faulted oracle over the
//! acknowledged prefix: every acknowledged row present, nothing
//! half-applied, queries identical.
//!
//! Alongside the sweep: deterministic policy tests (transient faults are
//! retried, `ENOSPC` degrades instead of wedging, a lying fsync poisons),
//! and a seeded randomized pass (`AIQL_CHAOS_SEED`, seed printed in the
//! panic on failure).
//!
//! The log is group-committed: a flush crosses `wal.segment.write` once,
//! whatever it carries, and a failed write loses the *whole* flush. The
//! policy tests therefore pick their write crossings from the recorded
//! census (asserted first) instead of counting rows.

use aiql::engine::Engine;
use aiql::fault::{self, testing::scratch_dir, FaultKind, FaultPlan, SmallRng};
use aiql::ingest::{EventBatch, IngestConfig, IngestError, IngestState, Ingestor, RetryPolicy};
use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
use aiql::storage::timesync::ClockSample;
use aiql::storage::{EventStore, StoreConfig};
use std::io;
use std::path::Path;
use std::time::Duration;

const OPS: [OpType; 3] = [OpType::Read, OpType::Write, OpType::Execute];
const EVENTS: usize = 48;
const CHUNK: usize = 6;

/// The fixed two-agent micro-dataset every chaos run streams: processes
/// reading/writing files, timestamps strictly increasing so the submission
/// order is the acknowledged order.
fn dataset() -> Dataset {
    let mut data = Dataset::new();
    let base = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let mut procs = Vec::new();
    let mut files = Vec::new();
    for agent in 0..2u32 {
        let a = AgentId(agent);
        let idbase = (agent as u64 + 1) * 100;
        procs.push(
            (0..2u64)
                .map(|i| {
                    data.add_entity(Entity::process(
                        (idbase + i).into(),
                        a,
                        format!("proc{agent}_{i}.exe"),
                        i as i64,
                    ))
                })
                .collect::<Vec<_>>(),
        );
        files.push(
            (0..3u64)
                .map(|i| {
                    data.add_entity(Entity::file(
                        (idbase + 10 + i).into(),
                        a,
                        format!("/a{agent}/f{i}"),
                    ))
                })
                .collect::<Vec<_>>(),
        );
    }
    for k in 0..EVENTS {
        let agent = k % 2;
        data.add_event(
            Event::new(
                (k as u64 + 1_000).into(),
                AgentId(agent as u32),
                procs[agent][k / 7 % 2],
                OPS[k % 3],
                files[agent][k % 3],
                EntityKind::File,
                Timestamp(base + k as i64 * 1_000_000),
            )
            .with_seq(k as u64),
        );
    }
    data
}

/// Pattern, dependency, and anomaly query classes over the micro-schema
/// (the same tier-1 trio `tests/proptest_recovery.rs` checks).
fn tier1_queries() -> [&'static str; 3] {
    [
        "proc p1 read file f1 as e1\n proc p1 write file f2 as e2\n \
         with e1 before e2\n return distinct p1, f1, f2",
        "forward: proc p1 ->[write] file f1 <-[read] proc p2\n return distinct p1, f1, p2",
        "window = 1 sec step = 1 sec\n proc p read file f\n \
         return p, count(distinct f) as freq\n group by p\n having freq > 0",
    ]
}

fn sorted_rows(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut v: Vec<String> = rows
        .into_iter()
        .map(|r| {
            r.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    v.sort();
    v
}

fn chaos_config() -> IngestConfig {
    IngestConfig::live().with_retry(RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
    })
}

/// What a (possibly faulted) workload run acknowledged before it stopped.
#[derive(Debug, Default, Clone, Copy)]
struct Acked {
    entities: usize,
    events: usize,
}

/// Streams the dataset through two durable-ingestor lives against `dir`,
/// tolerating faults: any failed open/submit/flush/checkpoint ends the
/// run (the "crash"), and only rows from *successful* flushes count as
/// acknowledged. Life 1 streams the first half with a mid-way checkpoint;
/// life 2 recovers and streams the rest — so the trace crosses the
/// recovery-path faultpoints (segment/snapshot reads) too.
fn run_workload(data: &Dataset, dir: &Path) -> Acked {
    let mut acked = Acked::default();
    let half = EVENTS / (2 * CHUNK); // chunks in life 1
    for life in 0..2 {
        let Ok((mut ing, _)) = Ingestor::durable(chaos_config(), dir) else {
            return acked;
        };
        if life == 0 {
            let mut first = EventBatch::new();
            first.entities = data.entities.clone();
            if ing.submit(first).is_err() {
                return acked;
            }
            match ing.flush() {
                Ok(r) => acked.entities += r.entities,
                Err(_) => return acked,
            }
        }
        let chunks = data.events.chunks(CHUNK).enumerate();
        for (i, events) in chunks {
            let in_this_life = if life == 0 { i < half } else { i >= half };
            if !in_this_life {
                continue;
            }
            let mut b = EventBatch::new();
            b.events = events.to_vec();
            if ing.submit(b).is_err() {
                return acked;
            }
            match ing.flush() {
                Ok(r) => acked.events += r.events,
                Err(_) => return acked,
            }
            if life == 0 && i + 1 == half / 2 && ing.checkpoint().is_err() {
                return acked;
            }
        }
    }
    acked
}

/// Reopens `dir` with injection disarmed and asserts the recovered store
/// equals a never-faulted oracle over the acknowledged prefix: everything
/// acknowledged survived, everything recovered is a submission-order
/// prefix, and the tier-1 query classes agree row for row.
fn verify_acknowledged_prefix(data: &Dataset, dir: &Path, acked: Acked, label: &str) {
    assert!(!fault::armed(), "verification must run disarmed ({label})");
    let (ing, _) = Ingestor::durable(chaos_config(), dir)
        .unwrap_or_else(|e| panic!("{label}: reopen after fault failed: {e}"));
    let shared = ing.shared();
    let recovered = shared.read();

    let n = recovered.event_count();
    let m = recovered.entity_count();
    let total = data.events.len();
    assert!(
        n >= acked.events && n <= total,
        "{label}: recovered {n} events, acknowledged {}, submitted {total}",
        acked.events
    );
    assert!(
        m >= acked.entities && m <= data.entities.len(),
        "{label}: recovered {m} entities, acknowledged {}",
        acked.entities
    );
    // Entities were logged before every event, so any recovery that holds
    // an event must hold the full entity set.
    assert!(
        n == 0 || m == data.entities.len(),
        "{label}: {n} events recovered but only {m} entities"
    );

    let mut oracle = EventStore::empty(StoreConfig::partitioned()).unwrap();
    for e in &data.entities[..m] {
        oracle.append_entity(e).unwrap();
    }
    for ev in &data.events[..n] {
        oracle.append_event(ev).unwrap();
    }
    assert_eq!(
        recovered.events_partitioned().unwrap().partition_count(),
        oracle.events_partitioned().unwrap().partition_count(),
        "{label}: partition layout diverged"
    );
    let recovered_engine = Engine::new(&recovered);
    let oracle_engine = Engine::new(&oracle);
    for q in tier1_queries() {
        let got = sorted_rows(recovered_engine.run(q).unwrap().rows);
        let want = sorted_rows(oracle_engine.run(q).unwrap().rows);
        assert_eq!(got, want, "{label}: query diverged after recovery: {q}");
    }
}

/// Runs the workload once under tracing and returns the `(point,
/// crossings)` census of every faultpoint it crossed.
fn record_census(ctl: &fault::Controller, data: &Dataset) -> Vec<(String, u64)> {
    let dir = scratch_dir("chaos-trace");
    ctl.start_trace();
    let acked = run_workload(data, &dir);
    let census = fault::census(&ctl.take_trace());
    assert_eq!(
        acked.events, EVENTS,
        "traced run must acknowledge everything"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    census
}

/// Crossings of `point` in a recorded census.
fn crossings(census: &[(String, u64)], point: &str) -> u64 {
    census
        .iter()
        .find(|(p, _)| p == point)
        .map_or(0, |(_, n)| *n)
}

/// Corrected start times of every stored event, ascending.
fn stored_starts(ing: &Ingestor) -> Vec<i64> {
    let shared = ing.shared();
    let mut scanned = 0;
    let mut starts: Vec<i64> = shared
        .read()
        .scan_events(&[], &aiql::rdb::Prune::all(), &mut scanned)
        .iter()
        .map(|row| row[aiql::storage::schema::ev::START].as_int().unwrap())
        .collect();
    starts.sort();
    starts
}

#[test]
fn enumeration_covers_the_durable_ingest_path() {
    let ctl = fault::control();
    let data = dataset();
    let census = record_census(&ctl, &data);
    let points: Vec<&str> = census.iter().map(|(p, _)| p.as_str()).collect();
    assert!(
        points.len() >= 10,
        "expected >= 10 distinct faultpoints, got {points:?}"
    );
    // Every layer of the stack must be represented, including the
    // recovery read path (life 2 reopens the directory).
    for expected in [
        "wal.segment.open",
        "wal.segment.read",
        "wal.segment.write",
        "wal.segment.sync",
        "wal.segment.remove",
        "wal.dir.sync",
        "persist.snapshot.create",
        "persist.snapshot.write",
        "persist.snapshot.sync",
        "persist.snapshot.rename",
        "persist.snapshot.read",
        "persist.snapshot.remove",
        "persist.dir.sync",
    ] {
        assert!(
            points.contains(&expected),
            "faultpoint {expected} missing from census {points:?}"
        );
    }
}

#[test]
fn every_faultpoint_fails_with_recovery_equal_to_acknowledged_prefix() {
    let ctl = fault::control();
    let data = dataset();
    let census = record_census(&ctl, &data);
    assert!(census.len() >= 10, "census too small: {census:?}");

    let mut failed_sites = 0usize;
    for (point, crossings) in &census {
        // First and last crossing of every site: the protocol's entry into
        // this operation and its final use, bracketing the run.
        let mut nths = vec![1u64];
        if *crossings > 1 {
            nths.push(*crossings);
        }
        for nth in nths {
            let label = format!("EIO at {point}#{nth}");
            let dir = scratch_dir("chaos-eio");
            ctl.arm(FaultPlan::new().fail(
                point.clone(),
                nth,
                FaultKind::Errno(io::ErrorKind::Other),
            ));
            let acked = run_workload(&data, &dir);
            ctl.disarm();
            let injected = ctl.injected();
            ctl.reset(); // injection history accumulates until reset
            assert!(!injected.is_empty(), "{label}: planned fault never fired");
            verify_acknowledged_prefix(&data, &dir, acked, &label);
            std::fs::remove_dir_all(&dir).unwrap();
            failed_sites += 1;
        }
    }
    assert!(
        failed_sites >= census.len(),
        "every site failed at least once"
    );
}

#[test]
fn crash_at_every_faultpoint_preserves_acknowledged_prefix() {
    let ctl = fault::control();
    let data = dataset();
    let census = record_census(&ctl, &data);

    for (point, crossings) in &census {
        // Crash at the middle crossing: the process dies mid-protocol and
        // every later operation fails, like real power loss.
        let nth = crossings.div_ceil(2);
        let label = format!("crash at {point}#{nth}");
        let dir = scratch_dir("chaos-crash");
        ctl.arm(FaultPlan::new().fail(point.clone(), nth, FaultKind::Crash));
        let acked = run_workload(&data, &dir);
        assert!(ctl.crashed(), "{label}: crash never fired");
        ctl.disarm();
        verify_acknowledged_prefix(&data, &dir, acked, &label);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn seeded_random_faults_recover_to_the_acknowledged_prefix() {
    let seed: u64 = std::env::var("AIQL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA101_2018);
    let mut rng = SmallRng::new(seed);
    let ctl = fault::control();
    let data = dataset();
    let census = record_census(&ctl, &data);

    for case in 0..8 {
        let (plan, rule) = FaultPlan::seeded(&mut rng, &census).expect("census not empty");
        let label = format!(
            "seed {seed} case {case}: {:?} at {}#{}",
            rule.kind, rule.point, rule.nth
        );
        let dir = scratch_dir("chaos-seeded");
        ctl.arm(plan);
        let acked = run_workload(&data, &dir);
        ctl.disarm();
        verify_acknowledged_prefix(&data, &dir, acked, &label);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn transient_write_fault_is_retried_and_every_row_acknowledged() {
    let ctl = fault::control();
    let data = dataset();
    // One write per flush that carries anything: the entity shipment, then
    // the event chunks of both lives (the mid-way checkpoint flushes an
    // empty queue and seeds no synchronizer state, so it writes nothing).
    let writes = crossings(&record_census(&ctl, &data), "wal.segment.write");
    assert_eq!(writes, 1 + (EVENTS / CHUNK) as u64);
    let dir = scratch_dir("chaos-retry");

    // One spurious EIO and one torn partial write, a third and two thirds
    // of the way through the stream: both are transient (the disk works
    // again on retry), so the bounded retry in flush must absorb them
    // without the caller seeing an error or losing a row. Each costs its
    // flush one whole re-attempt, which is one more crossing.
    ctl.arm(
        FaultPlan::new()
            .fail(
                "wal.segment.write",
                writes / 3,
                FaultKind::Errno(io::ErrorKind::Other),
            )
            .fail("wal.segment.write", 2 * writes / 3, FaultKind::PartialWrite),
    );
    let acked = run_workload(&data, &dir);
    ctl.disarm();
    assert_eq!(
        ctl.injected().len(),
        2,
        "both transient faults fired: {:?}",
        ctl.injected()
    );
    assert_eq!(acked.events, EVENTS, "retries absorbed the faults");
    verify_acknowledged_prefix(&data, &dir, acked, "transient retry");

    // The retry counter moved (visible in :metrics and BENCH telemetry).
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();
    assert_eq!(ing.state(), IngestState::Healthy);
    assert!(ing.drain_dead_letters().is_empty(), "no dead letters");
    drop(ing);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flush_retry_stats_count_transient_faults() {
    let ctl = fault::control();
    let dir = scratch_dir("chaos-retry-stats");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();
    let mut b = EventBatch::new();
    b.events = dataset().events[..4].to_vec();
    ing.submit(b).unwrap();
    // The flush's one write: the retry logs all four rows again.
    ctl.arm(FaultPlan::new().fail(
        "wal.segment.write",
        1,
        FaultKind::Errno(io::ErrorKind::Other),
    ));
    let report = ing.flush().expect("one retry suffices");
    ctl.disarm();
    assert_eq!(report.events, 4);
    assert_eq!(ing.stats().flush_retries, 1, "exactly one re-attempt");
    assert_eq!(ing.state(), IngestState::Healthy);
    drop(ing);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enospc_degrades_applies_backpressure_and_recovers_when_space_frees() {
    let ctl = fault::control();
    let data = dataset();
    let dir = scratch_dir("chaos-enospc");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();

    let mut first = EventBatch::new();
    first.entities = data.entities.clone();
    first.events = data.events[..8].to_vec();
    ing.submit(first).unwrap();
    ing.flush().unwrap();

    // The disk fills: every further segment write reports ENOSPC. The
    // flush below is one write, so the whole flush stays queued.
    ctl.arm(FaultPlan::new().fail(
        "wal.segment.write",
        0,
        FaultKind::Errno(io::ErrorKind::StorageFull),
    ));
    let mut b = EventBatch::new();
    b.events = data.events[8..16].to_vec();
    ing.submit(b).unwrap();
    let err = ing.flush().expect_err("full disk");
    assert!(
        matches!(err, IngestError::Degraded { queued_rows: 8, .. }),
        "expected degraded with the whole flush still queued, got {err:?}"
    );
    assert_eq!(ing.state(), IngestState::Degraded);
    assert_eq!(ing.stats().degraded_entries, 1);
    assert_eq!(ing.stats().flush_retries, 0, "ENOSPC is not retried");
    assert_eq!(ing.queued_rows(), 8, "flush queued, unacknowledged");
    assert_eq!(ing.shared().read().event_count(), 8, "nothing half-applied");

    // Degraded mode back-pressures every submit, regardless of queue depth.
    let mut late = EventBatch::new();
    late.events = data.events[16..20].to_vec();
    let err = ing.submit(late).expect_err("degraded submits are rejected");
    let returned = match err {
        IngestError::Backpressure { batch, .. } => batch,
        other => panic!("expected backpressure while degraded, got {other:?}"),
    };

    // The operator frees space; the queued flush lands and the state
    // returns to healthy, after which submits flow again.
    ctl.disarm();
    let report = ing.flush().expect("space is back");
    assert_eq!(report.events, 8, "queued flush acknowledged");
    assert_eq!(ing.state(), IngestState::Healthy);
    ing.submit(returned).expect("healthy again");
    ing.flush().unwrap();
    assert_eq!(ing.shared().read().event_count(), 20);

    drop(ing);
    let acked = Acked {
        entities: data.entities.len(),
        events: 20,
    };
    verify_acknowledged_prefix(&data, &dir, acked, "enospc recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lying_fsync_poisons_and_reopen_recovers_exactly_the_synced_prefix() {
    let ctl = fault::control();
    let data = dataset();
    let dir = scratch_dir("chaos-fsyncgate");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();

    let mut b = EventBatch::new();
    b.events = data.events[..10].to_vec();
    ing.submit(b).unwrap();
    ing.flush().unwrap();

    // The kernel loses the dirty pages at the next fsync (fsyncgate): the
    // flush must fail *without retrying* — a retried fsync would report Ok
    // while the records are gone — and the handle must poison.
    ctl.arm(FaultPlan::new().fail("wal.segment.sync", 1, FaultKind::FsyncLoss));
    let mut b = EventBatch::new();
    b.events = data.events[10..14].to_vec();
    ing.submit(b).unwrap();
    let err = ing.flush().expect_err("lost pages are not an ack");
    assert!(matches!(err, IngestError::Durable(_)), "got {err:?}");
    assert_eq!(ing.state(), IngestState::Poisoned);
    assert_eq!(ing.stats().flush_retries, 0, "poisoned handles never retry");
    ctl.disarm();

    // Poisoned is terminal: further flushes refuse too.
    let mut b = EventBatch::new();
    b.events = data.events[14..16].to_vec();
    ing.submit(b).unwrap();
    ing.flush().expect_err("still poisoned");
    drop(ing);

    // Reopen recovers exactly the synced prefix — the lost rows were never
    // acknowledged, and nothing acknowledged is missing.
    let (reopened, _) = Ingestor::durable(chaos_config(), &dir).unwrap();
    assert_eq!(reopened.shared().read().event_count(), 10);
    assert_eq!(reopened.state(), IngestState::Healthy, "fresh handle");
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_dead_letters_are_inspectable_and_drain_exactly_once() {
    let _ctl = fault::control(); // exclusivity only; nothing armed
    let dir = scratch_dir("chaos-dlq");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();

    // A malformed row (string where the schema wants an Int) inside an
    // otherwise-good durable batch: it must dead-letter, not wedge.
    let poison = Entity::process(1.into(), AgentId(0), "p", 1).with_attr("pid", "not-a-number");
    let mut b = EventBatch::new();
    b.add_entity(poison);
    b.add_entity(Entity::file(2.into(), AgentId(0), "/fine"));
    b.add_event(Event::new(
        9.into(),
        AgentId(0),
        1.into(),
        OpType::Write,
        2.into(),
        EntityKind::File,
        Timestamp::from_ymd(2017, 1, 1).unwrap(),
    ));
    ing.submit(b).unwrap();
    let report = ing.flush().expect("flush succeeds around the dead letter");
    assert_eq!(report.failed_rows, 1);
    assert_eq!((report.entities, report.events), (1, 1));
    assert_eq!(ing.stats().failed_rows, 1);

    // Inspect without consuming, then drain exactly once.
    assert_eq!(ing.dead_letters().count(), 1);
    let letters = ing.drain_dead_letters();
    assert_eq!(letters.len(), 1);
    match &letters[0].row {
        aiql::ingest::DeadRow::Entity(e) => {
            assert_eq!(e.id, 1.into(), "the poison entity, as attempted")
        }
        other => panic!("expected the rejected entity, got {other:?}"),
    }
    assert!(matches!(
        letters[0].error,
        aiql::rdb::RdbError::SchemaMismatch(_)
    ));
    assert!(ing.drain_dead_letters().is_empty(), "drained exactly once");
    assert_eq!(ing.dead_letters().count(), 0);
    drop(ing);

    // Replay skips the poison row identically: the dead letter never
    // resurfaces as a recovered row.
    let (reopened, report) = Ingestor::durable(chaos_config(), &dir).unwrap();
    let report = report.expect("recovered");
    assert_eq!(report.skipped_rows, 1, "poison row skipped on replay too");
    let shared = reopened.shared();
    assert_eq!(shared.read().entity_count(), 1);
    assert_eq!(shared.read().event_count(), 1);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Holds a 256 MiB string twice over (the queued row and its dead letter),
/// so it is opt-in: CI runs it once, on its own, in the optimized step.
#[test]
#[ignore = "peaks at about 0.5 GB; run with `-- --ignored codec_rejected`"]
fn codec_rejected_row_in_a_retried_flush_is_dead_lettered_once() {
    let ctl = fault::control();
    let data = dataset();
    let dir = scratch_dir("chaos-codec-dlq");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();

    // A path one byte over the codec's string cap: the log can never
    // encode this row, so it is set aside before a byte of it is logged.
    let oversized = "x".repeat(aiql::model::codec::MAX_LEN as usize + 1);
    let mut b = EventBatch::new();
    b.add_entity(Entity::file(7.into(), AgentId(0), oversized));
    b.entities.extend(data.entities.iter().cloned());
    b.events = data.events[..CHUNK].to_vec();
    ing.submit(b).unwrap();

    // The flush's write fails once: the first attempt set the row aside
    // too, but that attempt never committed and its dead letter went with
    // it.
    ctl.arm(FaultPlan::new().fail(
        "wal.segment.write",
        1,
        FaultKind::Errno(io::ErrorKind::Other),
    ));
    let report = ing.flush().expect("one retry suffices");
    ctl.disarm();
    assert_eq!(ing.stats().flush_retries, 1);
    assert_eq!(report.failed_rows, 1);
    assert_eq!(
        (report.entities, report.events),
        (data.entities.len(), CHUNK)
    );
    assert_eq!(ing.stats().failed_rows, 1, "counted once, not per attempt");
    let letters = ing.drain_dead_letters();
    assert_eq!(letters.len(), 1, "dead-lettered once, not per attempt");
    assert!(matches!(
        &letters[0].row,
        aiql::ingest::DeadRow::Entity(e) if e.id == 7.into()
    ));
    drop(letters);
    drop(ing);

    // The row never reached the log, so replay has nothing to skip.
    let (reopened, report) = Ingestor::durable(chaos_config(), &dir).unwrap();
    let report = report.expect("recovered");
    assert_eq!(report.skipped_rows, 0);
    assert_eq!(report.replayed_entities, data.entities.len());
    assert_eq!(reopened.shared().read().event_count(), CHUNK);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn early_write_fault_fails_the_whole_flush_whatever_its_error_kind() {
    let ctl = fault::control();
    let data = dataset();
    let dir = scratch_dir("chaos-early-write");
    let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();

    // One flush of ≈ 3 MB of frames: the log hands its buffer to the
    // segment early — from inside the log phase — each time it passes
    // ≈ 1 MiB, and once more at the commit.
    const ROWS: usize = 30_000;
    let mut b = EventBatch::new();
    b.entities = data.entities.clone();
    b.events = (0..ROWS)
        .map(|k| {
            let mut ev = data.events[k % EVENTS].clone();
            ev.id = (10_000 + k as u64).into();
            ev
        })
        .collect();
    ing.submit(b).unwrap();

    // The first early write fails with the kind the codec reports an
    // oversized field with. It is still the log that failed, not a row:
    // the log has discarded every frame of the flush, so carrying on
    // ("dead-letter one row") would apply and acknowledge 30 000 rows of
    // which the log holds only what came after the discard.
    ctl.start_trace();
    ctl.arm(FaultPlan::new().fail(
        "wal.segment.write",
        1,
        FaultKind::Errno(io::ErrorKind::InvalidInput),
    ));
    let report = ing.flush().expect("a failed write is transient: retried");
    ctl.disarm();
    let writes = crossings(&fault::census(&ctl.take_trace()), "wal.segment.write");
    assert_eq!(
        writes,
        1 + 3,
        "the failed early write, then the retry's three"
    );
    assert_eq!(ing.stats().flush_retries, 1);
    assert_eq!((report.events, report.failed_rows), (ROWS, 0));
    assert!(ing.drain_dead_letters().is_empty(), "no row was at fault");
    let live = stored_starts(&ing);
    assert_eq!(live.len(), ROWS);
    drop(ing);

    let (reopened, report) = Ingestor::durable(chaos_config(), &dir).unwrap();
    assert_eq!(report.expect("recovered").replayed_events, ROWS);
    assert_eq!(
        stored_starts(&reopened),
        live,
        "live store = reopened store"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retried_flush_folds_its_clock_samples_once() {
    let ctl = fault::control();
    let data = dataset();
    let sample = |server_time| ClockSample {
        agent_time: 0,
        server_time,
    };

    // Agent 0 reports a 1 000 ns lag, then — with the events — a 4 000 ns
    // one: the mean the events must be corrected by is 2 500 ns. Folding
    // the second sample once per *attempt* would make it 3 000.
    let stream = |fail_first_write: bool| {
        let dir = scratch_dir("chaos-timesync");
        let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();
        let mut first = EventBatch::new();
        first.entities = data.entities.clone();
        first.add_clock_sample(AgentId(0), sample(1_000));
        ing.submit(first).unwrap();
        ing.flush().unwrap();

        let mut second = EventBatch::new();
        second.add_clock_sample(AgentId(0), sample(4_000));
        second.events = data.events[..CHUNK].to_vec();
        ing.submit(second).unwrap();
        if fail_first_write {
            ctl.arm(FaultPlan::new().fail(
                "wal.segment.write",
                1,
                FaultKind::Errno(io::ErrorKind::Other),
            ));
        }
        ing.flush().expect("at most one retry");
        ctl.disarm();
        assert_eq!(ing.stats().flush_retries, fail_first_write as u64);
        let live = (stored_starts(&ing), ing.watermark());
        drop(ing);

        // The log holds each sample once too: a recovered ingestor keeps
        // correcting by the same mean.
        let (mut ing, _) = Ingestor::durable(chaos_config(), &dir).unwrap();
        let mut third = EventBatch::new();
        third.events = data.events[CHUNK..2 * CHUNK].to_vec();
        ing.submit(third).unwrap();
        ing.flush().unwrap();
        let recovered = (stored_starts(&ing), ing.watermark());
        drop(ing);
        std::fs::remove_dir_all(&dir).unwrap();
        (live, recovered)
    };

    let clean = stream(false);
    let faulted = stream(true);
    assert_eq!(faulted, clean, "same corrected timestamps as a clean run");
    // And the clean run is what the arithmetic says: agent 0's events moved
    // by the mean of the two samples, agent 1's not at all.
    let expected: Vec<i64> = {
        let mut v: Vec<i64> = data.events[..CHUNK]
            .iter()
            .map(|ev| ev.start.0 + if ev.agent == AgentId(0) { 2_500 } else { 0 })
            .collect();
        v.sort();
        v
    };
    assert_eq!(clean.0 .0, expected);
}
