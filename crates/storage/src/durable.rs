//! The durable store: write-ahead logging in front of the in-memory store,
//! snapshots at checkpoint boundaries.
//!
//! [`DurableStore`] wraps a [`SharedStore`] and an `aiql-wal` log under one
//! protocol:
//!
//! - **flush** ([`DurableWrite`]): *log, commit, apply*. Every row of the
//!   flush is first pushed into the log's open column frame
//!   ([`DurableWrite::log`]); [`DurableWrite::commit`] encodes the frame,
//!   hands it to the log in one `write(2)`, fsyncs — the acknowledgement
//!   point — and only then applies the frames it logged to the head store
//!   ([`EventStore::apply_frame`]) and publishes. Nothing touches the head
//!   before the log has it, so a failed write or fsync leaves the head
//!   exactly where it was and the caller free to retry the whole flush; a
//!   session dropped uncommitted logs nothing.
//! - **checkpoint**: [`DurableStore::checkpoint_with`] fsyncs the log,
//!   writes a full snapshot tagged with the last logged sequence number
//!   (durable to the directory entry before anything old is pruned),
//!   truncates the log, re-seeds it with the current time-synchronizer
//!   state, and prunes older snapshots. Because snapshots record the WAL
//!   sequence they cover and replay skips event/entity records at or below
//!   it (clock records are always re-folded), a crash at *any* point in
//!   that protocol recovers exactly the acknowledged stream — never a
//!   duplicate, never a loss.
//! - **recover**: [`DurableStore::open`] on an existing directory loads
//!   the newest valid snapshot, then applies the WAL tail record by record
//!   frame by frame as the single segment scan that positions the log
//!   writer yields it (tolerating a torn final flush) — through
//!   [`EventStore::apply_frame`], the function a live flush applies its
//!   frames with — and hands back the
//!   rebuilt synchronizer so ingestion resumes with the same per-agent
//!   clock offsets.
//!
//! Readers go through the same epoch-swapped [`SharedStore`] handle live
//! queries already use — with one durable-specific refinement: a flush's
//! rows enter the writer's private head store, and are **published** (made
//! visible to readers), only after the WAL fsync that acknowledges them. A
//! reader can therefore never observe a row whose durability is still in
//! flight.

use crate::persist::{self, PersistError, RecoveryReport};
use crate::timesync::Synchronizer;
use crate::{Applied, EventStore, RowRef, SharedStore, StoreConfig, StoreStamp, StoreWriter};
use aiql_model::AgentId;
use aiql_rdb::RdbError;
use aiql_wal::{AppendError, ColumnFrame, Wal, WalOptions, WalRecord};
use std::fs;
use std::path::{Path, PathBuf};

/// A [`DurableStore`] freshly opened, with whatever recovery produced.
#[derive(Debug)]
pub struct DurableOpen {
    /// The store, ready for appends and checkpoints.
    pub store: DurableStore,
    /// Time-synchronization state replayed from the log (empty for a
    /// brand-new store).
    pub sync: Synchronizer,
    /// Recovery details; `None` when the directory was freshly initialized.
    pub report: Option<RecoveryReport>,
}

/// A write-ahead-logged event store (see the module docs for the protocol).
#[derive(Debug)]
pub struct DurableStore {
    shared: SharedStore,
    wal: Wal,
    dir: PathBuf,
}

impl DurableStore {
    /// Opens the store at `dir`, initializing a fresh one (empty baseline
    /// snapshot + empty log) if the directory holds none. For an existing
    /// store the persisted configuration wins over `config` — the snapshot
    /// is self-describing.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<DurableOpen, PersistError> {
        let opened = std::time::Instant::now();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Take the single-writer lock *before* touching any store file:
        // two concurrent openers racing through the baseline-snapshot
        // write would interleave into the shared .snapshot.tmp and rename
        // a corrupt snapshot-0 into place. The loser now fails here,
        // having written nothing.
        let lock = Wal::lock(persist::wal_dir(&dir))?;
        let options = WalOptions::default();
        let (mut wal, shared, sync, report) = if persist::snapshot_files(&dir)?.is_empty() {
            let (wal, _) = lock.open(options, |_| {})?;
            let store = EventStore::empty(config)?;
            persist::write_snapshot(&store, &dir, 0)?;
            (wal, SharedStore::new(store), Synchronizer::new(), None)
        } else {
            // Opening the log must scan every segment anyway (to position
            // the writer and truncate any torn tail); recovery applies the
            // frames as that one pass decodes them.
            let mut wal = None;
            let rec = persist::recover_with_replay(&dir, |visit| {
                let (opened, scan) = lock.open(options, visit)?;
                wal = Some(opened);
                Ok(scan)
            })?;
            let wal = wal.expect("a successful recovery has scanned the log");
            (wal, SharedStore::new(rec.store), rec.sync, Some(rec.report))
        };
        // The log alone cannot remember how far the sequence got when a
        // checkpoint left it empty — continue past the snapshot's covered
        // sequence, or recovery would skip freshly acknowledged records.
        let covered = report.as_ref().map_or(0, |r| r.snapshot_wal_seq);
        wal.reserve_seq(covered + 1);
        // Recovery time covers the whole open: lock, snapshot load (when
        // one exists), and WAL tail replay. Fresh inits count too — their
        // near-zero cost is the baseline the recovery path is judged by.
        crate::metrics::metrics()
            .recovery_micros
            .record_duration(opened.elapsed());
        Ok(DurableOpen {
            store: DurableStore { shared, wal, dir },
            sync,
            report,
        })
    }

    /// The live read handle (snapshot-consistent queries, as ever).
    pub fn shared(&self) -> SharedStore {
        self.shared.clone()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number of the last logged record.
    pub fn last_wal_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Whether the underlying log handle has been poisoned by a failed
    /// fsync or a failed truncate-to-synced. A poisoned store refuses
    /// appends and syncs; reopening the directory is the only way back to
    /// a writer whose acknowledgements can be trusted (the reopen re-reads
    /// what is actually durable).
    pub fn is_poisoned(&self) -> bool {
        self.wal.is_poisoned()
    }

    /// Current on-disk size of the write-ahead log.
    pub fn wal_size_bytes(&self) -> Result<u64, PersistError> {
        Ok(self.wal.size_bytes()?)
    }

    /// The frames the last [`DurableWrite::commit`] applied, in sequence
    /// order (empty once another flush has begun logging).
    pub fn committed_frames(&self) -> &[ColumnFrame] {
        self.wal.frames()
    }

    /// Starts a flush: log its rows, then [`DurableWrite::commit`] — one
    /// write, one fsync, and only then the apply and the publish. A
    /// session dropped without committing logs, applies and publishes
    /// nothing.
    pub fn begin(&mut self) -> DurableWrite<'_> {
        DurableWrite {
            store: self.shared.write(),
            wal: &mut self.wal,
            committed: false,
        }
    }

    /// Checkpoints while **discarding** any time-synchronization state the
    /// caller tracks outside this store: the snapshot carries none and the
    /// truncated log is re-seeded with nothing, so per-agent clock-offset
    /// estimates are gone after the next recovery. Callers that ingest
    /// clock samples want [`DurableStore::checkpoint_with`]; the name makes
    /// dropping the estimates an explicit choice.
    pub fn checkpoint_discarding_sync(&mut self) -> Result<PathBuf, PersistError> {
        self.checkpoint_with(&Synchronizer::new())
    }

    /// Writes a snapshot covering everything logged so far, truncates the
    /// log, re-seeds it with `sync`'s per-agent estimates, and prunes
    /// older snapshots. Returns the new snapshot's path.
    ///
    /// Ordering matters for crash safety: the snapshot's directory entry
    /// is made durable (rename + dir fsync, inside
    /// [`persist::write_snapshot`]) before anything is deleted, the log is
    /// *rotated* (old segments kept) and the synchronizer seed is written
    /// and fsynced into the fresh segment **before** the old segments are
    /// deleted, and recovery replays clock records regardless of the
    /// snapshot boundary. A crash anywhere in the protocol therefore still
    /// recovers the clock estimates — from the seed if it landed, from the
    /// original clock-sample records otherwise; replaying both is exact
    /// because the seed already folds every earlier clock record in the
    /// log and [`Synchronizer::restore`] replaces, never adds.
    pub fn checkpoint_with(&mut self, sync: &Synchronizer) -> Result<PathBuf, PersistError> {
        let started = std::time::Instant::now();
        self.wal.sync()?;
        let covered = self.wal.last_seq();
        let path = {
            // Every row in the head was applied only after the fsync that
            // acknowledged it, so the head is fully acknowledged: snapshot
            // that state. Readers are not blocked — the write session
            // locks out other writers only.
            let mut w = self.shared.write();
            w.publish();
            persist::write_snapshot(&w, &self.dir, covered)?
        };
        self.wal.rotate()?;
        for (agent, sum_diff, count) in sync.state() {
            self.wal.append(&WalRecord::SyncState {
                agent,
                sum_diff,
                count,
            })?;
        }
        self.wal.sync()?;
        self.wal.prune_segments_before_current()?;
        let mut removed = false;
        for (seq, old) in persist::snapshot_files(&self.dir)? {
            if seq < covered {
                aiql_fault::fs::remove_file(&old, "persist.snapshot.remove")?;
                removed = true;
            }
        }
        if removed {
            aiql_wal::fsync_dir_at(&self.dir, "persist.dir.sync")?;
        }
        crate::metrics::metrics()
            .checkpoint_micros
            .record_duration(started.elapsed());
        Ok(path)
    }

    /// Hands back the shared store handle, dropping the log writer (an
    /// already-synced log replays identically on the next open).
    pub fn into_shared(self) -> SharedStore {
        self.shared
    }
}

/// One durable flush: rows are **logged** (pushed into the log's open
/// frame), then [`DurableWrite::commit`] writes and fsyncs the frames, and
/// only then **applies** them to the private head store and
/// **publishes** it to readers.
#[derive(Debug)]
pub struct DurableWrite<'a> {
    store: StoreWriter<'a>,
    wal: &'a mut Wal,
    committed: bool,
}

impl DurableWrite<'_> {
    /// Logs one row into the flush (timestamps of an event must already
    /// be corrected — the log holds server time). A
    /// [`PersistError::Storage`] error means the log's codec refused the
    /// *row* (a field over its caps): nothing of it is logged, the flush
    /// stands, and the caller must not apply the row either — the
    /// dead-letter case. Any other error means the log itself failed and
    /// the flush is lost.
    pub fn log(&mut self, row: RowRef<'_>) -> Result<(), PersistError> {
        let appended = match row {
            RowRef::Entity(e) => self.wal.try_append_entity(e),
            RowRef::Event(ev) => self.wal.try_append_event(ev),
        };
        // The two are told apart by type, never by `io::ErrorKind`: a
        // failed write(2) may carry any kind, and mistaking it for a
        // refused row would apply — and acknowledge — a flush the log has
        // just discarded.
        match appended {
            Ok(_) => Ok(()),
            Err(e @ AppendError::Rejected(_)) => Err(PersistError::Storage(
                RdbError::SchemaMismatch(e.to_string()),
            )),
            Err(AppendError::Log(e)) => Err(PersistError::Io(e)),
        }
    }

    /// Logs one raw clock sample into the flush (log-only; the caller
    /// folds it into its synchronizer once the flush commits).
    pub fn log_clock_sample(
        &mut self,
        agent: AgentId,
        agent_time: i64,
        server_time: i64,
    ) -> Result<(), PersistError> {
        self.wal.append(&WalRecord::ClockSample {
            agent,
            agent_time,
            server_time,
        })?;
        Ok(())
    }

    /// Writes the flush to the log in one `write(2)` and fsyncs it — the
    /// acknowledgement point — then applies each frame it logged to the
    /// head store through [`EventStore::apply_frame`], as recovery applies
    /// them, and publishes the result as the new reader-visible snapshot.
    /// Returns what was applied (the frames stay readable through
    /// [`DurableStore::committed_frames`]) and the stamp the head reached.
    ///
    /// Readers are never stalled behind the disk sync (they keep serving
    /// the previous snapshot throughout), and they can never observe a row
    /// before it is durable. If the write or the fsync fails, nothing is
    /// applied: the head holds nothing of the flush, the log has discarded
    /// it (or is poisoned), and nothing is published.
    pub fn commit(mut self) -> Result<(Applied, StoreStamp), PersistError> {
        self.wal.sync()?;
        self.committed = true;
        let mut applied = Applied::default();
        for frame in self.wal.frames() {
            self.store.apply_frame(frame, 0, &mut applied);
        }
        Ok((applied, self.store.publish()))
    }
}

impl Drop for DurableWrite<'_> {
    fn drop(&mut self) {
        if !self.committed {
            // Rows of an abandoned flush must not ride along with the next
            // one: they were never applied.
            self.wal.discard_flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timesync::ClockSample;
    use aiql_model::{Entity, EntityKind, Event, OpType, Timestamp};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aiql-durable-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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

    /// One flush — `entities`, then `events` — logged, committed, applied.
    /// Returns how many rows the store rejected at apply.
    fn flush(d: &mut DurableStore, entities: &[Entity], events: &[Event]) -> usize {
        let rows: Vec<RowRef<'_>> = (entities.iter().map(RowRef::Entity))
            .chain(events.iter().map(RowRef::Event))
            .collect();
        let mut w = d.begin();
        for row in &rows {
            w.log(*row).unwrap();
        }
        w.commit().unwrap().0.rejected.len()
    }

    fn events(ids: std::ops::RangeInclusive<u64>) -> Vec<Event> {
        ids.map(|i| event(i, 0, i as i64 * 1_000)).collect()
    }

    #[test]
    fn fresh_open_append_reopen() {
        let dir = tmp("fresh");
        let opened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        assert!(opened.report.is_none(), "fresh directory");
        let mut d = opened.store;
        let bash = Entity::process(1.into(), AgentId(0), "bash", 7);
        assert_eq!(flush(&mut d, &[bash], &events(1..=2)), 0);
        let stamp = d.shared().stamp();
        assert_eq!((stamp.events, stamp.entities), (2, 1));
        assert_eq!(d.last_wal_seq(), 3);
        drop(d);

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        let report = reopened.report.expect("recovered");
        assert_eq!(report.replayed_events, 2);
        assert_eq!(report.replayed_entities, 1);
        assert_eq!(report.torn_bytes, 0);
        let shared = reopened.store.shared();
        let store = shared.read();
        assert_eq!(store.event_count(), 2);
        assert_eq!(store.entity_count(), 1);
        assert_eq!(store.stamp().epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_log_and_prunes_snapshots() {
        let dir = tmp("checkpoint");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        flush(&mut d, &[], &events(1..=10));
        let before = d.wal_size_bytes().unwrap();
        assert!(before > 0);

        let mut sync = Synchronizer::new();
        sync.record(
            AgentId(3),
            ClockSample {
                agent_time: 0,
                server_time: 500,
            },
        );
        d.checkpoint_with(&sync).unwrap();
        assert!(
            d.wal_size_bytes().unwrap() < before,
            "log truncated to the sync-state seed"
        );
        assert_eq!(persist::snapshot_files(&dir).unwrap().len(), 1);

        // Post-checkpoint appends land after the snapshot.
        flush(&mut d, &[], &events(11..=11));
        drop(d);

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        let report = reopened.report.expect("recovered");
        assert_eq!(report.snapshot_events, 10);
        assert_eq!(report.replayed_events, 1);
        assert_eq!(reopened.store.shared().read().event_count(), 11);
        // The checkpoint carried the synchronizer estimate across truncation.
        assert_eq!(
            reopened.sync.offset(AgentId(3)),
            aiql_model::Duration(500),
            "sync state survives checkpoint + reopen"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_survives_a_checkpoint_that_leaves_the_log_empty() {
        // Regression: a checkpoint with no synchronizer state leaves the
        // WAL with zero records, so a reopened Wal cannot infer the
        // sequence from disk. Without explicit reservation the sequence
        // restarted at 1 and recovery discarded freshly acknowledged
        // records as "already covered by the snapshot".
        let dir = tmp("seq-continuity");
        // Life 1: ten events, then a checkpoint (empty sync → empty log).
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        flush(&mut d, &[], &events(1..=10));
        d.checkpoint_discarding_sync().unwrap();
        drop(d);

        // Life 2: three more acknowledged events, no checkpoint.
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        assert!(d.last_wal_seq() >= 10, "sequence continues past snapshot");
        flush(&mut d, &[], &events(11..=13));
        drop(d);

        // Life 3: every acknowledged event is recovered.
        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        assert_eq!(reopened.store.shared().read().event_count(), 13);
        let report = reopened.report.unwrap();
        assert_eq!(report.snapshot_events, 10);
        assert_eq!(report.replayed_events, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_renamed_before_sync_seed_keeps_clock_estimates() {
        // The checkpoint protocol renames the snapshot into place before
        // the SyncState seed reaches the fresh WAL segment. Simulate a
        // crash in exactly that window: a durable snapshot covering every
        // logged record, with the log still holding only the raw clock
        // samples — recovery must re-fold them despite their sequence
        // numbers sitting at or below the snapshot's.
        let dir = tmp("crash-window");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        let ev = event(1, 7, 100);
        let mut w = d.begin();
        w.log_clock_sample(AgentId(7), 0, 400).unwrap();
        w.log_clock_sample(AgentId(7), 100, 700).unwrap();
        w.log(RowRef::Event(&ev)).unwrap();
        assert!(w.commit().unwrap().0.rejected.is_empty());

        // The first half of checkpoint_with, then "power loss".
        let covered = d.last_wal_seq();
        let shared = d.shared();
        persist::write_snapshot(&shared.read(), d.dir(), covered).unwrap();
        drop(shared);
        drop(d);

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        assert_eq!(
            reopened.sync.offset(AgentId(7)),
            aiql_model::Duration(500),
            "clock estimates survive a crash between snapshot rename and seed"
        );
        let store = reopened.store.shared();
        assert_eq!(
            store.read().event_count(),
            1,
            "snapshot-covered events are not double-applied"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_newest_snapshot_falls_back_while_the_log_covers_it() {
        let dir = tmp("fallback");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        flush(&mut d, &[], &events(1..=5));
        // Crash mid-checkpoint: the new snapshot renamed into place, the
        // log not yet truncated — then the snapshot file rots.
        let covered = d.last_wal_seq();
        let shared = d.shared();
        let snap = persist::write_snapshot(&shared.read(), d.dir(), covered).unwrap();
        drop(shared);
        drop(d);
        aiql_fault::testing::corrupt_file(&snap).unwrap();

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        let report = reopened.report.unwrap();
        assert_eq!(report.corrupt_snapshots, 1, "rotten snapshot passed over");
        assert_eq!(report.replayed_events, 5, "older snapshot + full log tail");
        assert_eq!(reopened.store.shared().read().event_count(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_newest_snapshot_with_torn_log_fails_loudly() {
        // Double fault: the newest snapshot rots *and* the log is torn
        // before reaching that snapshot's covered seq. The records from
        // the tear to the snapshot exist nowhere — recovery must refuse
        // rather than silently return a store missing acknowledged data.
        let dir = tmp("fallback-torn");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        flush(&mut d, &[], &events(1..=5));
        let covered = d.last_wal_seq();
        let shared = d.shared();
        let snap = persist::write_snapshot(&shared.read(), d.dir(), covered).unwrap();
        drop(shared);
        drop(d);
        aiql_fault::testing::corrupt_file(&snap).unwrap();
        assert!(aiql_wal::testing::tear_last_segment(persist::wal_dir(&dir), 5).unwrap());

        let err = DurableStore::open(&dir, StoreConfig::partitioned())
            .expect_err("torn log cannot cover the unreadable snapshot");
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_newest_snapshot_with_pruned_log_fails_loudly() {
        let dir = tmp("fallback-gap");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        flush(&mut d, &[], &events(1..=5));
        // Stash the baseline snapshot the checkpoint is about to prune.
        let (_, old_snap) = persist::snapshot_files(&dir).unwrap().pop().unwrap();
        let stash = dir.join("stash.bin");
        fs::copy(&old_snap, &stash).unwrap();
        let new_snap = d.checkpoint_discarding_sync().unwrap();
        drop(d);
        // Simulate a crash between WAL prune and old-snapshot removal,
        // followed by the new snapshot rotting: the events live nowhere.
        fs::rename(&stash, &old_snap).unwrap();
        aiql_fault::testing::corrupt_file(&new_snap).unwrap();

        let err = DurableStore::open(&dir, StoreConfig::partitioned())
            .expect_err("silently dropping acknowledged events is not recovery");
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_config_wins_on_reopen() {
        let dir = tmp("config");
        let d = DurableStore::open(&dir, StoreConfig::partitioned().with_columnar(false))
            .unwrap()
            .store;
        drop(d);
        let reopened = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        let shared = reopened.shared();
        let store = shared.read();
        assert!(!store.config().columnar, "snapshot config wins");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_session_dropped_uncommitted_logs_and_applies_nothing() {
        let dir = tmp("abandoned");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        let mut w = d.begin();
        w.log(RowRef::Event(&event(1, 0, 5))).unwrap();
        w.log(RowRef::Event(&event(2, 0, 6))).unwrap();
        drop(w);
        assert_eq!(
            d.last_wal_seq(),
            0,
            "the abandoned flush gave its numbers back"
        );
        flush(&mut d, &[], &events(3..=3));
        assert_eq!(d.last_wal_seq(), 1);
        drop(d);

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        assert_eq!(reopened.report.expect("recovered").replayed_events, 1);
        assert_eq!(reopened.store.shared().read().event_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_lettered_row_is_skipped_identically_on_replay() {
        let dir = tmp("dead-letter");
        let mut d = DurableStore::open(&dir, StoreConfig::partitioned())
            .unwrap()
            .store;
        // The log's codec takes the row; the store's schema does not.
        let poison = Entity::process(1.into(), AgentId(0), "p", 1).with_attr("pid", "not-a-number");
        assert_eq!(flush(&mut d, &[poison], &events(1..=1)), 1, "rejected");
        assert_eq!(d.shared().stamp().entities, 0, "and skipped");
        drop(d);

        let reopened = DurableStore::open(&dir, StoreConfig::partitioned()).unwrap();
        let report = reopened.report.expect("recovered");
        assert_eq!(report.skipped_rows, 1, "poison row skipped on replay too");
        assert_eq!(report.replayed_events, 1);
        let shared = reopened.store.shared();
        assert_eq!(shared.read().entity_count(), 0);
        assert_eq!(shared.read().event_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
