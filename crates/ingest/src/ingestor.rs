//! The streaming ingestor: bounded queue, on-the-fly timesync, partition
//! rollover, incremental indexes, optional write-ahead durability.

use crate::batch::EventBatch;
use crate::error::IngestError;
use aiql_model::{Entity, Event, Timestamp};
use aiql_rdb::{PartKey, RdbError};
use aiql_storage::timesync::Synchronizer;
use aiql_storage::{
    DurableStore, DurableWrite, EventStore, PersistError, RecoveryReport, RowRef, SharedStore,
    StoreConfig, StoreStamp,
};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How [`Ingestor::flush`] treats *transient* durability faults (a log
/// write failing with a retryable I/O error): the flush re-attempts the
/// whole queue up to `max_retries` times, sleeping an exponentially
/// growing backoff between attempts.
///
/// Fatal faults are never retried here: a poisoned log handle (failed
/// fsync — the acknowledgement itself is untrustworthy) surfaces as
/// [`IngestError::Durable`], and out-of-space degrades instead
/// ([`IngestError::Degraded`]) because retrying into a full disk is just
/// load.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Re-attempts after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Sleep before the first retry; doubled per subsequent attempt,
    /// capped at 100 ms. `Duration::ZERO` retries immediately
    /// (deterministic tests).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff
            .saturating_mul(factor)
            .min(Duration::from_millis(100))
    }
}

/// Ingestor construction options.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Layout and index options of the backing store.
    pub store: StoreConfig,
    /// Maximum number of queued (submitted but unflushed) rows — events
    /// plus entities. A submit that would exceed it is rejected with
    /// [`IngestError::Backpressure`].
    pub high_water_mark: usize,
    /// Bounded retry-with-backoff for transient durability faults during
    /// flush.
    pub retry: RetryPolicy,
}

impl IngestConfig {
    /// The live default: AIQL's partitioned, indexed layout with a 64 Ki
    /// row queue bound.
    pub fn live() -> IngestConfig {
        IngestConfig {
            store: StoreConfig::partitioned(),
            high_water_mark: 64 * 1024,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the high-water mark, builder style.
    pub fn with_high_water_mark(mut self, rows: usize) -> IngestConfig {
        self.high_water_mark = rows;
        self
    }

    /// Sets the store configuration, builder style.
    pub fn with_store(mut self, store: StoreConfig) -> IngestConfig {
        self.store = store;
        self
    }

    /// Sets the transient-fault retry policy, builder style.
    pub fn with_retry(mut self, retry: RetryPolicy) -> IngestConfig {
        self.retry = retry;
        self
    }
}

/// The ingestor's health, readable via [`Ingestor::state`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestState {
    /// Appends flow normally.
    #[default]
    Healthy = 0,
    /// The storage stack ran out of space. Submits are back-pressured and
    /// the unacknowledged flush stays queued; the first successful
    /// flush (after the operator frees space) returns to [`Healthy`].
    ///
    /// [`Healthy`]: IngestState::Healthy
    Degraded = 1,
    /// The log handle is poisoned (a failed fsync may have silently lost
    /// acknowledged-in-flight records). Terminal for this ingestor:
    /// reopen the directory ([`Ingestor::durable`]) to resume with a
    /// writer whose acknowledgements are trustworthy again.
    Poisoned = 2,
}

/// Upper bound on retained dead letters; older entries are dropped (and
/// counted in [`IngestStats::dead_letters_dropped`]) once it is reached.
pub const DEAD_LETTER_CAP: usize = 1024;

/// The row inside a [`DeadLetter`].
#[derive(Debug, Clone)]
pub enum DeadRow {
    /// A rejected event, as attempted (timestamps already corrected).
    Event(Event),
    /// A rejected entity.
    Entity(Entity),
}

/// One row the storage layer rejected during a flush, retained for
/// inspection ([`Ingestor::dead_letters`]) and draining
/// ([`Ingestor::drain_dead_letters`]).
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The rejected row.
    pub row: DeadRow,
    /// Why the storage layer refused it.
    pub error: RdbError,
}

impl DeadLetter {
    fn new(row: RowRef<'_>, error: RdbError) -> DeadLetter {
        let row = match row {
            RowRef::Entity(e) => DeadRow::Entity(e.clone()),
            RowRef::Event(ev) => DeadRow::Event(ev.clone()),
        };
        DeadLetter { row, error }
    }
}

/// Running totals over an ingestor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Batches accepted into the queue.
    pub batches_submitted: u64,
    /// Batches rejected by back-pressure.
    pub batches_rejected: u64,
    /// Batches applied to the store.
    pub batches_applied: u64,
    /// Events applied.
    pub events_applied: u64,
    /// Entities applied.
    pub entities_applied: u64,
    /// Events whose corrected start time was behind the watermark when
    /// applied (late / out-of-order arrivals).
    pub out_of_order_events: u64,
    /// Partitions materialized by rollover.
    pub rollovers: u64,
    /// Rows the storage layer rejected and the flush dead-lettered.
    pub failed_rows: u64,
    /// Flush attempts re-run after a transient durability fault.
    pub flush_retries: u64,
    /// Transitions into [`IngestState::Degraded`] (out-of-space events).
    pub degraded_entries: u64,
    /// Dead letters evicted unseen because the bounded dead-letter queue
    /// ([`DEAD_LETTER_CAP`]) was full.
    pub dead_letters_dropped: u64,
    /// Deepest the queue has been, in rows (events + entities).
    pub max_queue_depth: usize,
}

/// What one [`Ingestor::flush`] applied.
#[derive(Debug, Clone, Default)]
pub struct FlushReport {
    /// Batches drained from the queue.
    pub batches: usize,
    /// Events appended.
    pub events: usize,
    /// Entities appended.
    pub entities: usize,
    /// Events applied behind the watermark (out of order).
    pub out_of_order_events: usize,
    /// Every `(day, agent group)` partition this flush rolled over into,
    /// in creation order.
    pub new_partitions: Vec<PartKey>,
    /// Rows the storage layer rejected (dead-lettered: counted, skipped,
    /// first error kept — see [`Ingestor::flush`]).
    pub failed_rows: usize,
    /// The first storage error behind [`FlushReport::failed_rows`].
    pub first_error: Option<aiql_rdb::RdbError>,
    /// Store version after the flush.
    pub stamp: StoreStamp,
}

/// Where flushed rows land: a plain in-memory store, or a durable store
/// that write-ahead-logs every flush before applying it.
#[derive(Debug)]
enum Backend {
    Plain(SharedStore),
    Durable(DurableStore),
}

/// Encodes one row into the flush's log buffer (a no-op without a log).
/// `Ok(Some(error))` means the log's codec refused the *row*: nothing of
/// it was logged, so it must not be applied either — it is set aside as a
/// dead letter. `Err` means the log itself failed and the flush is lost.
fn log_row(
    log: &mut Option<DurableWrite<'_>>,
    row: RowRef<'_>,
) -> Result<Option<RdbError>, PersistError> {
    match log.as_mut().map_or(Ok(()), |w| w.log(row)) {
        Ok(()) => Ok(None),
        Err(PersistError::Storage(error)) => Ok(Some(error)),
        Err(e) => Err(e),
    }
}

/// Streaming front door of the event store.
///
/// `submit` enqueues shipments cheaply (bounded by the high-water mark);
/// `flush` drains the queue into the store under a single write session,
/// correcting timestamps per agent as it goes. Readers holding the
/// [`SharedStore`] handle (from [`Ingestor::shared`]) observe flushes
/// atomically — each flush publishes one new immutable snapshot, and
/// queries pin whichever snapshot was current when they started, so reads
/// never wait behind a flush and a flush never waits for readers.
///
/// A **durable** ingestor ([`Ingestor::durable`]) additionally write-ahead
/// logs every flush — one write, one fsync — before any of its rows enters
/// the store, and `flush` returns only after that fsync: an append is
/// acknowledged only once it is on disk. Back-pressure is unchanged: the high-water mark still bounds the
/// (in-memory, unacknowledged) queue. [`Ingestor::checkpoint`] snapshots
/// the store and truncates the log.
#[derive(Debug)]
pub struct Ingestor {
    backend: Backend,
    sync: Synchronizer,
    queue: VecDeque<EventBatch>,
    queued_rows: usize,
    watermark: Option<Timestamp>,
    config: IngestConfig,
    stats: IngestStats,
    state: IngestState,
    dead_letters: VecDeque<DeadLetter>,
}

impl Ingestor {
    /// An ingestor over a fresh, empty store.
    pub fn new(config: IngestConfig) -> Result<Ingestor, IngestError> {
        Ok(Ingestor::over(
            SharedStore::new(EventStore::empty(config.store)?),
            config,
        ))
    }

    /// An ingestor appending to an existing shared store (e.g. one seeded by
    /// a batch load).
    pub fn over(shared: SharedStore, config: IngestConfig) -> Ingestor {
        Ingestor {
            backend: Backend::Plain(shared),
            sync: Synchronizer::new(),
            queue: VecDeque::new(),
            queued_rows: 0,
            watermark: None,
            config,
            stats: IngestStats::default(),
            state: IngestState::Healthy,
            dead_letters: VecDeque::new(),
        }
    }

    /// A durable ingestor over the store directory `dir`.
    ///
    /// A fresh directory is initialized (empty baseline snapshot + empty
    /// log). An existing one is **recovered** first — newest snapshot plus
    /// WAL-tail replay, tolerating a torn final record — and ingestion
    /// resumes exactly where the acknowledged stream left off: same store
    /// contents, same per-agent clock-offset estimates, watermark re-derived
    /// from the recovered events. The recovery report is returned for
    /// existing directories (`None` when freshly initialized).
    pub fn durable(
        config: IngestConfig,
        dir: impl AsRef<Path>,
    ) -> Result<(Ingestor, Option<RecoveryReport>), IngestError> {
        let opened = DurableStore::open(dir, config.store)?;
        let watermark = opened.store.shared().read().time_span().map(|(_, hi)| hi);
        Ok((
            Ingestor {
                backend: Backend::Durable(opened.store),
                sync: opened.sync,
                queue: VecDeque::new(),
                queued_rows: 0,
                watermark,
                config,
                stats: IngestStats::default(),
                state: IngestState::Healthy,
                dead_letters: VecDeque::new(),
            },
            opened.report,
        ))
    }

    /// A cloneable handle for concurrent readers (`aiql_engine::run_live`
    /// is the query side).
    pub fn shared(&self) -> SharedStore {
        match &self.backend {
            Backend::Plain(s) => s.clone(),
            Backend::Durable(d) => d.shared(),
        }
    }

    /// Whether appends are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        matches!(self.backend, Backend::Durable(_))
    }

    /// The construction options.
    pub fn config(&self) -> IngestConfig {
        self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Rows (events + entities) submitted but not yet flushed — what the
    /// high-water mark bounds.
    pub fn queued_rows(&self) -> usize {
        self.queued_rows
    }

    /// The highest corrected event start time applied so far — the point up
    /// to which the stored stream is (modulo late arrivals) complete.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// The ingestor's current health (see [`IngestState`]).
    pub fn state(&self) -> IngestState {
        self.state
    }

    /// The retained dead letters, oldest first, without consuming them.
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Takes every retained dead letter, oldest first. Each letter is
    /// returned exactly once; a second drain (with no flushes in between)
    /// is empty.
    pub fn drain_dead_letters(&mut self) -> Vec<DeadLetter> {
        let letters: Vec<DeadLetter> = self.dead_letters.drain(..).collect();
        crate::metrics::metrics().dead_letter_queue_depth.set(0);
        letters
    }

    fn set_state(&mut self, next: IngestState) {
        if self.state == next {
            return;
        }
        if next == IngestState::Degraded {
            self.stats.degraded_entries += 1;
            crate::metrics::metrics().degraded_transitions.inc();
        }
        self.state = next;
        crate::metrics::metrics().state.set(next as i64);
    }

    /// Enqueues a shipment, applying back-pressure at the high-water mark
    /// (which bounds queued *rows*: events plus entities, so entity-heavy
    /// shipments cannot buffer without bound either).
    ///
    /// The rejected batch is returned untouched inside
    /// [`IngestError::Backpressure`] — the caller may [`Ingestor::flush`]
    /// and resubmit it.
    ///
    /// While [`IngestState::Degraded`] (out of space) every submit is
    /// back-pressured the same way, regardless of queue depth: buffering
    /// more rows the disk cannot take only widens the loss window. A
    /// successful flush clears the state.
    pub fn submit(&mut self, batch: EventBatch) -> Result<(), IngestError> {
        if self.state == IngestState::Degraded
            || self.queued_rows + batch.weight() > self.config.high_water_mark
        {
            self.stats.batches_rejected += 1;
            crate::metrics::metrics().backpressure_rejections.inc();
            return Err(IngestError::Backpressure {
                queued_rows: self.queued_rows,
                high_water_mark: self.config.high_water_mark,
                batch,
            });
        }
        self.enqueue(batch);
        Ok(())
    }

    fn enqueue(&mut self, batch: EventBatch) {
        self.queued_rows += batch.weight();
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued_rows);
        self.stats.batches_submitted += 1;
        self.queue.push_back(batch);
        crate::metrics::metrics()
            .queue_rows
            .set(self.queued_rows as i64);
    }

    /// Submits unconditionally, flushing when the shipment pushes the queue
    /// past the high-water mark.
    ///
    /// The batch is enqueued first, so it is never dropped — not on
    /// back-pressure (the queue may transiently exceed the mark within this
    /// call) and not when the flush dead-letters rows. A batch larger than
    /// the mark on its own is simply written through by the immediate
    /// flush. Returns the flush report when one happened.
    pub fn submit_with_flush(
        &mut self,
        batch: EventBatch,
    ) -> Result<Option<FlushReport>, IngestError> {
        self.enqueue(batch);
        if self.queued_rows > self.config.high_water_mark {
            return Ok(Some(self.flush()?));
        }
        Ok(None)
    }

    /// Drains the queue into the store under one write session, publishing
    /// one new reader-visible snapshot at the end (after the acknowledging
    /// fsync, on a durable ingestor).
    ///
    /// Per batch, in arrival order: clock samples are folded into the
    /// per-agent offset estimates first, then entities are appended, then
    /// events — each event's start/end shifted by its agent's current
    /// offset and routed to its `(day, agent group)` partition. Rollover
    /// into new partitions (e.g. when a batch crosses a day boundary) is
    /// collected in the report; new partitions inherit every secondary
    /// index, keeping live stores plan-identical to batch-loaded ones.
    ///
    /// Rows the storage layer rejects are **dead-lettered**: counted in
    /// [`FlushReport::failed_rows`] (with the first error kept) and
    /// skipped, so one malformed row can neither block the pipeline nor
    /// poison retries. The flush itself still drains the whole queue, the
    /// watermark only advances over rows that actually landed, and
    /// [`IngestStats`] stays consistent with the store's row counts.
    ///
    /// On a durable ingestor the flush is the unit of durability and runs
    /// **log, commit, apply**: every corrected row and clock sample of the
    /// queue is first encoded into the write-ahead log's buffer; the
    /// buffer reaches the log in one `write(2)` followed by one fsync —
    /// the returned report is the acknowledgement; only then are the same
    /// rows inserted into the store and published. Nothing touches the
    /// store, the clock estimates, the statistics or the dead-letter queue
    /// before the log has the flush, so a log failure leaves all of them
    /// as they were and the queue **whole**: the next attempt logs the
    /// same flush again from its first row. What happens next depends on
    /// the fault:
    ///
    /// - **transient** log I/O faults are retried here, up to
    ///   [`RetryPolicy::max_retries`] times with exponential backoff,
    ///   before surfacing as [`IngestError::Durable`];
    /// - **out of space** (`ENOSPC`) transitions to
    ///   [`IngestState::Degraded`] and returns [`IngestError::Degraded`]
    ///   immediately — retrying into a full disk is just load; the next
    ///   successful flush (after space is freed) returns to healthy;
    /// - a **poisoned log handle** (failed fsync; see
    ///   [`DurableStore::is_poisoned`]) is fatal for this ingestor:
    ///   [`IngestState::Poisoned`], no retry — the acknowledgement channel
    ///   itself can no longer be trusted, reopen the directory instead.
    pub fn flush(&mut self) -> Result<FlushReport, IngestError> {
        let mut attempt: u32 = 0;
        loop {
            let e = match self.flush_attempt() {
                Ok(report) => {
                    if self.state == IngestState::Degraded {
                        self.set_state(IngestState::Healthy);
                    }
                    return Ok(report);
                }
                Err(e) => e,
            };
            let poisoned = match &self.backend {
                Backend::Durable(d) => d.is_poisoned(),
                Backend::Plain(_) => false,
            };
            if poisoned {
                self.set_state(IngestState::Poisoned);
                return Err(IngestError::Durable(e));
            }
            match &e {
                PersistError::Io(io) if io.kind() == io::ErrorKind::StorageFull => {
                    self.set_state(IngestState::Degraded);
                    return Err(IngestError::Degraded {
                        queued_rows: self.queued_rows,
                        cause: e,
                    });
                }
                PersistError::Io(_) if attempt < self.config.retry.max_retries => {
                    attempt += 1;
                    self.stats.flush_retries += 1;
                    crate::metrics::metrics().flush_retries.inc();
                    let delay = self.config.retry.delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                _ => return Err(IngestError::Durable(e)),
            }
        }
    }

    /// One attempt at flushing the whole queue: log, commit, apply (see
    /// [`Ingestor::flush`]). Every `?` below is a log failure before the
    /// commit point: the session drops uncommitted (the log discards the
    /// flush's frames), and because the attempt has worked on scratch
    /// state only — the queue is read, never popped — there is nothing to
    /// put back or undo. Scratch state is folded into `self` only after
    /// the commit: a flush that is retried must not fold a clock sample
    /// twice or dead-letter the same row once per attempt.
    fn flush_attempt(&mut self) -> Result<FlushReport, PersistError> {
        let started = std::time::Instant::now();
        // Taken up front: the durable session below borrows the backend
        // until it is dropped.
        let shared = self.shared();
        let mut log = match &mut self.backend {
            Backend::Durable(d) => Some(d.begin()),
            Backend::Plain(_) => None,
        };

        // Log: fold clock samples, correct stamps, encode the flush.
        let mut sync = self.sync.clone();
        let mut dead = Vec::new();
        let mut entities = Vec::new();
        let mut events = Vec::with_capacity(self.queue.iter().map(|b| b.events.len()).sum());
        for batch in &self.queue {
            for (agent, sample) in &batch.clock_samples {
                if let Some(w) = &mut log {
                    w.log_clock_sample(*agent, sample.agent_time, sample.server_time)?;
                }
                sync.record(*agent, *sample);
            }
            for entity in &batch.entities {
                match log_row(&mut log, RowRef::Entity(entity))? {
                    None => entities.push(entity),
                    Some(error) => dead.push(DeadLetter::new(RowRef::Entity(entity), error)),
                }
            }
            // Events are plain-old-data (no heap fields), so the corrected
            // copy per row is cheap.
            for ev in &batch.events {
                let offset = sync.offset(ev.agent);
                let mut corrected = ev.clone();
                corrected.start = corrected.start.saturating_add(offset);
                corrected.end = corrected.end.saturating_add(offset);
                match log_row(&mut log, RowRef::Event(&corrected))? {
                    None => events.push(corrected),
                    Some(error) => dead.push(DeadLetter::new(RowRef::Event(&corrected), error)),
                }
            }
        }

        // Apply: the rows the log took, in the order it took them within
        // each table. The watermark only advances over rows that landed.
        let mut report = FlushReport {
            batches: self.queue.len(),
            ..FlushReport::default()
        };
        let mut watermark = self.watermark;
        let rows =
            (entities.into_iter().map(RowRef::Entity)).chain(events.iter().map(RowRef::Event));
        let apply = |store: &mut EventStore| {
            for row in rows {
                match (store.apply(row), row) {
                    (Ok(_), RowRef::Entity(_)) => report.entities += 1,
                    (Ok(outcome), RowRef::Event(ev)) => {
                        if watermark.is_some_and(|w| ev.start < w) {
                            report.out_of_order_events += 1;
                        }
                        watermark = Some(watermark.map_or(ev.start, |w| w.max(ev.start)));
                        report.new_partitions.extend(outcome.created_partition);
                        report.events += 1;
                    }
                    (Err(error), row) => dead.push(DeadLetter::new(row, error)),
                }
            }
        };
        // Commit — one write, one fsync: the acknowledgement point — then
        // apply and publish; readers can never see unacknowledged rows.
        // Without a log the apply phase runs alone, and dropping the plain
        // session publishes: the whole flush becomes visible atomically.
        let stamp = match log {
            Some(w) => w.commit(apply)?.1,
            None => {
                let mut w = shared.write();
                apply(&mut w);
                w.stamp()
            }
        };

        report.stamp = stamp;
        report.failed_rows = dead.len();
        report.first_error = dead.first().map(|letter| letter.error.clone());
        self.sync = sync;
        self.watermark = watermark;
        self.queue.clear();
        self.queued_rows = 0;
        self.stats.batches_applied += report.batches as u64;
        self.stats.events_applied += report.events as u64;
        self.stats.entities_applied += report.entities as u64;
        self.stats.out_of_order_events += report.out_of_order_events as u64;
        self.stats.rollovers += report.new_partitions.len() as u64;
        self.stats.failed_rows += report.failed_rows as u64;
        let m = crate::metrics::metrics();
        m.queue_rows.set(0);
        m.flush_micros.record_duration(started.elapsed());
        m.flush_rows
            .record((report.events + report.entities) as u64);
        m.dead_letter_rows.add(report.failed_rows as u64);
        for letter in dead {
            if self.dead_letters.len() >= DEAD_LETTER_CAP {
                self.dead_letters.pop_front();
                self.stats.dead_letters_dropped += 1;
            }
            self.dead_letters.push_back(letter);
        }
        m.dead_letter_queue_depth
            .set(self.dead_letters.len() as i64);
        Ok(report)
    }

    /// Flushes, then snapshots the store and truncates the write-ahead log
    /// (carrying the current clock-offset estimates into the fresh log).
    /// The snapshot boundary: recovery afterwards loads the snapshot and
    /// replays only post-checkpoint records. Returns the snapshot path, or
    /// `None` on a non-durable ingestor (which has nothing to checkpoint).
    pub fn checkpoint(&mut self) -> Result<Option<PathBuf>, IngestError> {
        self.flush()?;
        match &mut self.backend {
            Backend::Plain(_) => Ok(None),
            Backend::Durable(d) => Ok(Some(d.checkpoint_with(&self.sync)?)),
        }
    }

    /// Flushes whatever is queued and hands back the shared store handle
    /// plus final statistics. On a durable ingestor the log is fsynced (by
    /// the flush) but deliberately *not* checkpointed — reopening the
    /// directory replays the tail; call [`Ingestor::checkpoint`] first for
    /// a snapshot-only handoff.
    pub fn finish(mut self) -> Result<(SharedStore, IngestStats), IngestError> {
        self.flush()?;
        let shared = match self.backend {
            Backend::Plain(s) => s,
            Backend::Durable(d) => d.into_shared(),
        };
        Ok((shared, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Entity, EntityKind, Event, OpType};
    use aiql_storage::timesync::ClockSample;

    fn event(id: u64, agent: u32, t: i64) -> Event {
        Event::new(
            id.into(),
            AgentId(agent),
            1.into(),
            OpType::Write,
            2.into(),
            EntityKind::File,
            Timestamp(t),
        )
    }

    fn batch_of(events: Vec<Event>) -> EventBatch {
        EventBatch {
            events,
            ..EventBatch::default()
        }
    }

    const DAY: i64 = aiql_rdb::partition::NANOS_PER_DAY;

    #[test]
    fn backpressure_rejects_then_flush_recovers() {
        let cfg = IngestConfig::live().with_high_water_mark(3);
        let mut ing = Ingestor::new(cfg).unwrap();
        ing.submit(batch_of(vec![event(1, 0, 0), event(2, 0, 1)]))
            .unwrap();
        let err = ing
            .submit(batch_of(vec![event(3, 0, 2), event(4, 0, 3)]))
            .unwrap_err();
        // The rejected batch comes back untouched for resubmission.
        let rejected = match err {
            IngestError::Backpressure {
                batch,
                queued_rows: 2,
                high_water_mark: 3,
            } => batch,
            other => panic!("unexpected error: {other:?}"),
        };
        assert_eq!(rejected.event_count(), 2);
        assert_eq!(ing.stats().batches_rejected, 1);
        assert_eq!(ing.queued_rows(), 2);

        ing.flush().unwrap();
        assert_eq!(ing.queued_rows(), 0);
        ing.submit(rejected).unwrap();
        let report = ing.flush().unwrap();
        assert_eq!(report.events, 2);
        assert_eq!(ing.shared().read().event_count(), 4);
        assert_eq!(ing.stats().max_queue_depth, 2);
    }

    #[test]
    fn submit_with_flush_auto_drains() {
        let mut ing = Ingestor::new(IngestConfig::live().with_high_water_mark(2)).unwrap();
        assert!(ing
            .submit_with_flush(batch_of(vec![event(1, 0, 0), event(2, 0, 1)]))
            .unwrap()
            .is_none());
        let report = ing
            .submit_with_flush(batch_of(vec![event(3, 0, 2)]))
            .unwrap()
            .expect("crossing the mark flushes everything queued");
        assert_eq!(report.events, 3);
        assert_eq!(ing.queued_rows(), 0);
    }

    #[test]
    fn oversized_batch_writes_through() {
        // A single shipment larger than the high-water mark must still land
        // (the mark bounds buffering, not shipment size).
        let mut ing = Ingestor::new(IngestConfig::live().with_high_water_mark(2)).unwrap();
        ing.submit(batch_of(vec![event(1, 0, 0)])).unwrap();
        let big = batch_of(vec![event(2, 0, 1), event(3, 0, 2), event(4, 0, 3)]);
        assert!(matches!(
            ing.submit(big.clone()),
            Err(IngestError::Backpressure { .. })
        ));
        let report = ing
            .submit_with_flush(big)
            .unwrap()
            .expect("write-through flush");
        assert_eq!(report.events, 4, "queued + oversized batch both land");
        assert_eq!(report.batches, 2);
        assert_eq!(ing.queued_rows(), 0);
        assert_eq!(ing.shared().read().event_count(), 4);
    }

    #[test]
    fn entity_only_batches_count_against_the_mark() {
        let mut ing = Ingestor::new(IngestConfig::live().with_high_water_mark(3)).unwrap();
        let entities = |lo: u64, n: u64| EventBatch {
            entities: (lo..lo + n)
                .map(|i| Entity::file(i.into(), AgentId(0), format!("/f{i}")))
                .collect(),
            ..EventBatch::default()
        };
        ing.submit(entities(1, 2)).unwrap();
        assert_eq!(ing.queued_rows(), 2, "entities weigh in");
        assert!(matches!(
            ing.submit(entities(10, 2)),
            Err(IngestError::Backpressure { .. })
        ));
        ing.flush().unwrap();
        ing.submit(entities(10, 2)).unwrap();
        ing.flush().unwrap();
        assert_eq!(ing.shared().read().entity_count(), 4);
    }

    #[test]
    fn malformed_rows_are_dead_lettered_not_poisonous() {
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        // A process entity with a string where the schema wants an Int.
        let poison = Entity::process(1.into(), AgentId(0), "p", 1).with_attr("pid", "not-a-pid");
        let mut b = EventBatch::new();
        b.add_entity(poison);
        b.add_entity(Entity::file(2.into(), AgentId(0), "/fine"));
        b.add_event(event(1, 0, 100));
        ing.submit(b).unwrap();

        let report = ing.flush().unwrap();
        assert_eq!(report.failed_rows, 1);
        assert!(matches!(
            report.first_error,
            Some(aiql_rdb::RdbError::SchemaMismatch(_))
        ));
        // Everything else in the batch landed; nothing is stuck in the queue.
        assert_eq!(report.entities, 1);
        assert_eq!(report.events, 1);
        assert_eq!(ing.queued_rows(), 0);
        assert_eq!(ing.stats().failed_rows, 1);
        let shared = ing.shared();
        let store = shared.read();
        assert_eq!((store.entity_count(), store.event_count()), (1, 1));

        // The store's stats stay consistent with its contents.
        assert_eq!(ing.stats().events_applied, 1);
        assert_eq!(ing.stats().entities_applied, 1);
    }

    #[test]
    fn timesync_corrects_on_the_fly() {
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        // Agent 1's clock runs 1000 ns behind the server.
        let mut b = EventBatch::new();
        b.add_clock_sample(
            AgentId(1),
            ClockSample {
                agent_time: 0,
                server_time: 1_000,
            },
        );
        b.add_event(event(1, 1, 500));
        b.add_event(event(2, 2, 1_400)); // agent 2: no samples, no shift
        ing.submit(b).unwrap();
        ing.flush().unwrap();

        let shared = ing.shared();
        let store = shared.read();
        let mut scanned = 0;
        let rows = store.scan_events(&[], &aiql_rdb::Prune::all(), &mut scanned);
        let mut starts: Vec<i64> = rows
            .iter()
            .map(|r| r[aiql_storage::schema::ev::START].as_int().unwrap())
            .collect();
        starts.sort();
        assert_eq!(starts, vec![1_400, 1_500], "agent 1 shifted by +1000");
        assert_eq!(ing.watermark(), Some(Timestamp(1_500)));
    }

    #[test]
    fn day_boundary_rollover_is_reported() {
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        // One batch spanning the day-0 → day-1 boundary for agent 0.
        ing.submit(batch_of(vec![event(1, 0, DAY - 10), event(2, 0, DAY + 10)]))
            .unwrap();
        let report = ing.flush().unwrap();
        assert_eq!(report.new_partitions, vec![(0, 0), (1, 0)]);
        assert_eq!(ing.stats().rollovers, 2);

        // Same days again: no new partitions.
        ing.submit(batch_of(vec![event(3, 0, DAY - 5), event(4, 0, DAY + 5)]))
            .unwrap();
        assert!(ing.flush().unwrap().new_partitions.is_empty());

        // A different agent group rolls over on both days.
        ing.submit(batch_of(vec![event(5, 9, DAY - 5), event(6, 9, DAY + 5)]))
            .unwrap();
        let report = ing.flush().unwrap();
        assert_eq!(report.new_partitions, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn out_of_order_counted_not_lost() {
        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        ing.submit(batch_of(vec![event(1, 0, 5_000), event(2, 0, 1_000)]))
            .unwrap();
        let report = ing.flush().unwrap();
        assert_eq!(report.out_of_order_events, 1);
        assert_eq!(report.events, 2);
        assert_eq!(ing.watermark(), Some(Timestamp(5_000)));
        assert_eq!(ing.shared().read().event_count(), 2);
    }

    #[test]
    fn durable_ingestor_survives_restart_mid_stream() {
        let dir = std::env::temp_dir().join(format!("aiql-ingest-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IngestConfig::live();

        // First life: clock sample for agent 1, a checkpoint, then more
        // events that stay in the WAL tail.
        let (mut ing, report) = Ingestor::durable(cfg, &dir).unwrap();
        assert!(report.is_none(), "fresh directory");
        let mut b = EventBatch::new();
        b.add_clock_sample(
            AgentId(1),
            ClockSample {
                agent_time: 0,
                server_time: 1_000,
            },
        );
        b.add_entity(Entity::file(50.into(), AgentId(1), "/f"));
        b.add_event(event(1, 1, 500)); // corrected to 1_500
        ing.submit(b).unwrap();
        ing.checkpoint().unwrap().expect("durable checkpoint");
        ing.submit(batch_of(vec![event(2, 1, 2_000), event(3, 2, 100)]))
            .unwrap();
        ing.flush().unwrap();
        let watermark_before = ing.watermark();
        drop(ing); // crash: no final checkpoint

        // Second life: recovery restores rows, sync state, and watermark.
        let (mut ing, report) = Ingestor::durable(cfg, &dir).unwrap();
        let report = report.expect("recovered");
        assert_eq!(report.snapshot_events, 1);
        assert_eq!(report.replayed_events, 2);
        assert_eq!(ing.watermark(), watermark_before);
        {
            let shared = ing.shared();
            let store = shared.read();
            assert_eq!(store.event_count(), 3);
            assert_eq!(store.entity_count(), 1);
        }
        // The pre-checkpoint clock sample still corrects agent 1's stamps.
        ing.submit(batch_of(vec![event(4, 1, 9_000)])).unwrap();
        ing.flush().unwrap();
        assert_eq!(ing.watermark(), Some(Timestamp(10_000)), "offset +1000");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_matches_batch_counts_and_partitions() {
        use aiql_model::Dataset;
        let mut data = Dataset::new();
        let a = AgentId(2);
        data.add_entity(Entity::process(1.into(), a, "p", 1));
        data.add_entity(Entity::file(2.into(), a, "/f"));
        for i in 0..20 {
            data.add_event(event(100 + i, 2, i as i64 * (DAY / 7)));
        }
        let batch_store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();

        let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
        // Stream it in 3 shipments, entities first.
        let mut first = EventBatch::new();
        first.entities = data.entities.clone();
        first.events = data.events[..7].to_vec();
        ing.submit(first).unwrap();
        ing.submit(batch_of(data.events[7..15].to_vec())).unwrap();
        ing.submit(batch_of(data.events[15..].to_vec())).unwrap();
        let (shared, stats) = ing.finish().unwrap();

        let live = shared.read();
        assert_eq!(live.event_count(), batch_store.event_count());
        assert_eq!(live.entity_count(), batch_store.entity_count());
        assert_eq!(
            live.events_partitioned().unwrap().partition_count(),
            batch_store.events_partitioned().unwrap().partition_count(),
        );
        assert_eq!(
            stats.rollovers as usize,
            live.events_partitioned().unwrap().partition_count()
        );
        assert_eq!(stats.batches_applied, 3);
    }
}
