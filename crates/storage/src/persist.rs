//! Snapshot files and crash recovery for the event store.
//!
//! A persisted store directory looks like:
//!
//! ```text
//! store/
//!   snapshot-00000000000000000042.bin   # newest snapshot (name = WAL seq covered)
//!   wal/
//!     seg-00000003.wal                  # records appended after that snapshot
//! ```
//!
//! A **snapshot** is one CRC-checksummed binary file holding the store
//! configuration, the shared string dictionary (in code order), and every
//! table in the sealed layout it is resident in ([`aiql_rdb::snapshot`],
//! format v4): each sealed `events` chunk as its columns and projection
//! order, so a load reads those columns straight into their vectors —
//! no value, no row — and derives zone maps and indexes from them; entity
//! chunks and open tails as rows. A v3 snapshot (every row, then every
//! projection order) still loads, and is written again as v4.
//! It is written to a temp file and renamed into place, so a crash during
//! snapshotting leaves the previous snapshot intact. The file name encodes
//! the write-ahead-log sequence number the snapshot covers.
//!
//! **Recovery** ([`recover`]) loads the newest snapshot that validates,
//! then replays the WAL tail: *event and entity* records with a sequence
//! number at or below the snapshot's are skipped (they are already folded
//! in — this is what makes a crash *between* snapshot and log truncation
//! harmless), the rest are re-applied — a decoded frame at a time, as the
//! segment scan yields them, never collected first — straight from the
//! frame's column lanes through [`EventStore::apply_frame`], the loop a
//! live flush applies the frames it logged with (so partitions, indexes,
//! and projections rebuild through the same machinery as live ingestion)
//! without building a record, an event or an attribute map per row. Clock-sample /
//! synchronizer-state records rebuild the time-synchronization estimates
//! and are replayed regardless of the snapshot boundary — the snapshot
//! carries no synchronizer state, and a checkpointed seed *replaces* the
//! estimate it already folds, so replaying both is exact.
//! A torn final WAL record — the signature of a crash mid-write — is
//! tolerated and reported, never fatal. The two halves are timed apart
//! (`aiql_storage_snapshot_load_micros`, `aiql_storage_replay_micros`).

use crate::timesync::{ClockSample, Synchronizer};
use crate::{schema, Applied, EventStore, StoreConfig};
use aiql_model::{codec, SharedDict};
use aiql_rdb::{snapshot as rsnap, Database, RdbError, TableSlot};
use aiql_wal::{crc32, ColumnFrame, WalRecord};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening every snapshot file written (format version 4:
/// each sealed chunk kept as rows or as columns, the open tail as rows).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AIQLSNP4";

/// Magic bytes of format version 3 (every row, then every projection
/// order), still read. Older versions are not readable.
pub const SNAPSHOT_MAGIC_V3: &[u8; 8] = b"AIQLSNP3";

/// The header's layout tag: the events table is partitioned (format v3
/// also defined `0`, an unpartitioned store, which no longer loads).
const LAYOUT_PARTITIONED: u8 = 1;
/// The header's index flag: the store carries [`schema::index_plan`]'s
/// indexes (`0`, an unindexed store, no longer loads).
const WITH_INDEXES: u8 = 1;
/// The header's retired `u32` slot after the columnar flag: written 0 and
/// skipped on read whatever it holds (stores once recorded a scan-routing
/// count there, which nothing reads any more).
const RETIRED_SLOT: u32 = 0;

const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".bin";

/// Subdirectory holding the write-ahead log segments.
pub const WAL_SUBDIR: &str = "wal";

/// Errors from persisting or recovering a store.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem failed.
    Io(io::Error),
    /// A snapshot failed validation (bad magic, CRC mismatch, malformed
    /// body).
    Corrupt(String),
    /// The storage layer rejected a row (also how [`crate::DurableWrite`]
    /// reports a row the log's codec refused to encode).
    Storage(RdbError),
    /// The directory holds no loadable snapshot.
    NoStore(PathBuf),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            PersistError::Storage(e) => write!(f, "storage error: {e}"),
            PersistError::NoStore(d) => write!(f, "no loadable snapshot under {}", d.display()),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

impl From<RdbError> for PersistError {
    fn from(e: RdbError) -> PersistError {
        PersistError::Storage(e)
    }
}

/// The write-ahead-log directory under a store directory.
pub fn wal_dir(dir: &Path) -> PathBuf {
    dir.join(WAL_SUBDIR)
}

fn snapshot_path(dir: &Path, wal_seq: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{wal_seq:020}{SNAPSHOT_SUFFIX}"))
}

/// `(covered WAL seq, path)` of every snapshot file in `dir`, ascending.
pub(crate) fn snapshot_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Writes a snapshot of `store` covering WAL records up to and including
/// `wal_seq`, atomically (temp file + rename). Returns the snapshot path.
pub fn write_snapshot(
    store: &EventStore,
    dir: &Path,
    wal_seq: u64,
) -> Result<PathBuf, PersistError> {
    fs::create_dir_all(dir)?;
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    codec::write_u64(&mut buf, wal_seq)?;

    // The layout tag and the index flag are format v3 fields whose only
    // value left is 1: a partitioned, indexed store.
    codec::write_u8(&mut buf, LAYOUT_PARTITIONED)?;
    codec::write_u32(&mut buf, store.config.agent_group_size)?;
    codec::write_u8(&mut buf, WITH_INDEXES)?;
    codec::write_u8(&mut buf, store.config.columnar as u8)?;
    codec::write_u32(&mut buf, RETIRED_SLOT)?;
    codec::write_u64(&mut buf, store.epoch)?;
    codec::write_u64(&mut buf, store.event_count as u64)?;
    codec::write_u64(&mut buf, store.entity_count as u64)?;

    let strings = store.dict.strings();
    codec::write_u32(&mut buf, strings.len() as u32)?;
    for s in &strings {
        codec::write_str(&mut buf, s)?;
    }

    for table in schema::TABLES {
        match store.db.slot(table)? {
            TableSlot::Plain(t) => {
                codec::write_u8(&mut buf, 0)?;
                rsnap::write_table(&mut buf, t)?;
            }
            TableSlot::Partitioned(pt) => {
                codec::write_u8(&mut buf, 1)?;
                rsnap::write_partitioned(&mut buf, pt)?;
            }
        }
    }
    let crc = crc32(&buf);
    codec::write_u32(&mut buf, crc)?;

    let tmp = dir.join(".snapshot.tmp");
    {
        let mut f = aiql_fault::FaultFile::create(&tmp, "persist.snapshot")?;
        f.write_all(&buf)?;
        f.sync_data()?;
    }
    let path = snapshot_path(dir, wal_seq);
    aiql_fault::fs::rename(&tmp, &path, "persist.snapshot.rename")?;
    // The rename is not durable until the directory entry is; without this
    // a power loss could keep later deletions (old snapshots, pruned WAL
    // segments) while dropping the snapshot they were deleted in favor of.
    aiql_wal::fsync_dir_at(dir, "persist.dir.sync")?;
    Ok(path)
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Loads one snapshot file, returning the rebuilt store and the WAL
/// sequence number it covers.
pub fn load_snapshot(path: &Path) -> Result<(EventStore, u64), PersistError> {
    let bytes = aiql_fault::fs::read(path, "persist.snapshot.read")?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(corrupt("file shorter than header"));
    }
    let format = match &bytes[..SNAPSHOT_MAGIC.len()] {
        m if m == SNAPSHOT_MAGIC => rsnap::Format::V4,
        m if m == SNAPSHOT_MAGIC_V3 => rsnap::Format::V3,
        _ => return Err(corrupt("bad magic")),
    };
    let body = &bytes[..bytes.len() - 4];
    let want = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != want {
        return Err(corrupt("CRC mismatch"));
    }

    let mut r = &body[SNAPSHOT_MAGIC.len()..];
    let wal_seq = codec::read_u64(&mut r)?;
    let layout_tag = codec::read_u8(&mut r)?;
    if layout_tag != LAYOUT_PARTITIONED {
        return Err(corrupt(format!("unsupported layout tag {layout_tag}")));
    }
    let agent_group_size = codec::read_u32(&mut r)?;
    let with_indexes = codec::read_u8(&mut r)?;
    if with_indexes != WITH_INDEXES {
        return Err(corrupt(format!("unsupported index flag {with_indexes}")));
    }
    let config = StoreConfig {
        agent_group_size,
        columnar: codec::read_u8(&mut r)? != 0,
    };
    codec::read_u32(&mut r)?; // the retired slot

    let epoch = codec::read_u64(&mut r)?;
    let event_count = codec::read_u64(&mut r)? as usize;
    let entity_count = codec::read_u64(&mut r)? as usize;

    let dict = SharedDict::new();
    let n_strings = codec::read_u32(&mut r)?;
    for _ in 0..n_strings {
        dict.intern(&codec::read_str(&mut r)?);
    }

    // The tables a fresh store with this configuration creates, read
    // back in their declared order.
    let mut db = Database::new();
    for t in schema::tables(config, &dict) {
        let slot = match (codec::read_u8(&mut r)?, t.partitioning) {
            (0, None) => TableSlot::Plain(std::sync::Arc::new(rsnap::read_table(
                &mut r, format, t.schema, &t.layout,
            )?)),
            (1, Some(spec)) => TableSlot::Partitioned(rsnap::read_partitioned(
                &mut r, format, t.schema, spec, &t.layout,
            )?),
            (tag, _) => return Err(corrupt(format!("table {}: unexpected kind {tag}", t.name))),
        };
        db.attach(t.name, slot)?;
    }
    if !r.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", r.len())));
    }

    let store = EventStore {
        db,
        config,
        dict,
        event_count,
        entity_count,
        epoch,
    };
    if store.db.slot(schema::EVENTS)?.len() != event_count {
        return Err(corrupt("event count does not match table rows"));
    }
    let mut entity_rows = 0;
    for table in [schema::PROCESSES, schema::FILES, schema::NETCONNS] {
        entity_rows += store.db.slot(table)?.len();
    }
    if entity_rows != entity_count {
        return Err(corrupt("entity count does not match table rows"));
    }
    Ok((store, wal_seq))
}

/// What [`recover`] found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Mutation epoch of the snapshot the recovery started from.
    pub snapshot_epoch: u64,
    /// WAL sequence number the snapshot covers — event/entity WAL records
    /// at or below it were skipped (clock records are always re-folded);
    /// the durable store reserves the sequence past it so an empty
    /// post-checkpoint log cannot restart numbering.
    pub snapshot_wal_seq: u64,
    /// Events already in the snapshot.
    pub snapshot_events: usize,
    /// Entities already in the snapshot.
    pub snapshot_entities: usize,
    /// Events re-applied from the WAL tail.
    pub replayed_events: usize,
    /// Entities re-applied from the WAL tail.
    pub replayed_entities: usize,
    /// Clock-sample and synchronizer-state records re-folded.
    pub replayed_clock_samples: usize,
    /// WAL rows the store rejected on replay (they were dead-lettered on
    /// the original path too, so skipping them reproduces the crashed
    /// store's contents).
    pub skipped_rows: usize,
    /// Bytes discarded after the last valid WAL frame (a torn final
    /// flush from a crash mid-write; 0 on a clean shutdown).
    pub torn_bytes: u64,
    /// Snapshot files that failed validation and were passed over.
    pub corrupt_snapshots: usize,
}

/// A recovered store plus the replayed time-synchronization state.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt store, reflecting every acknowledged append.
    pub store: EventStore,
    /// Per-agent clock-offset estimates, rebuilt from WAL clock-sample and
    /// checkpoint-carried synchronizer-state records.
    pub sync: Synchronizer,
    /// What happened.
    pub report: RecoveryReport,
}

/// Recovers the store persisted at `dir`: newest valid snapshot + WAL tail.
pub fn recover(dir: &Path) -> Result<Recovered, PersistError> {
    recover_with_replay(dir, |visit| aiql_wal::replay_with(wal_dir(dir), visit))
}

/// [`recover`] over a caller-driven scan of the store's log: the newest
/// valid snapshot is loaded first, then `replay` is called once with the
/// visitor that applies each decoded frame *as the scan yields it* — the
/// tail is never materialised, and no record is built: clock rows are
/// folded into the synchronizer, and the frame's entity and event rows go
/// from its lanes into the tables ([`EventStore::apply_frame`]). The
/// durable store passes the scan that opening its log for writing performs
/// anyway ([`aiql_wal::WalLock::open`], which positions the writer and
/// truncates any torn tail), so recovery reads every segment exactly once.
pub fn recover_with_replay(
    dir: &Path,
    replay: impl FnOnce(&mut dyn FnMut(&ColumnFrame)) -> io::Result<aiql_wal::Scan>,
) -> Result<Recovered, PersistError> {
    let mut candidates = snapshot_files(dir)?;
    let newest_covered = candidates.last().map_or(0, |(seq, _)| *seq);
    let mut corrupt_snapshots = 0;
    let mut loaded = None;
    let m = crate::metrics::metrics();
    while let Some((_, path)) = candidates.pop() {
        let started = Instant::now();
        let load = load_snapshot(&path);
        m.snapshot_load_micros.record_duration(started.elapsed());
        match load {
            Ok(x) => {
                loaded = Some(x);
                break;
            }
            // Decode failures surface as Io too (codec and rdb readers
            // return InvalidData/UnexpectedEof) — those mean *this file*
            // is malformed, and an older snapshot may still be loadable.
            // Only genuine filesystem errors abort the recovery.
            Err(PersistError::Io(e))
                if !matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) =>
            {
                return Err(PersistError::Io(e));
            }
            Err(_) => corrupt_snapshots += 1,
        }
    }
    let (mut store, snap_seq) = loaded.ok_or_else(|| PersistError::NoStore(dir.to_path_buf()))?;

    let mut report = RecoveryReport {
        snapshot_epoch: store.epoch,
        snapshot_wal_seq: snap_seq,
        snapshot_events: store.event_count,
        snapshot_entities: store.entity_count,
        corrupt_snapshots,
        ..RecoveryReport::default()
    };
    let mut sync = Synchronizer::new();
    let mut applied = Applied::default();
    // First and last sequence number the log holds (for the coverage check
    // below).
    let mut log_span: Option<(u64, u64)> = None;
    let started = Instant::now();
    let scan = replay(&mut |frame| {
        log_span = Some((
            log_span.map_or(frame.first(), |(first, _)| first),
            frame.last(),
        ));
        // Clock rows ignore the snapshot boundary: the snapshot itself
        // carries no synchronizer state (it lives only in the log), and a
        // checkpoint renames the snapshot into place *before* the
        // SyncState seed is durable — skipping rows at or below the
        // snapshot's seq would lose every estimate in that crash window.
        // Replaying a sample alongside its seed is harmless: the seed
        // already folds every earlier clock row in the log, and restore()
        // *replaces* the estimate with it.
        for i in 0..frame.clocks() {
            match frame.clock(i) {
                WalRecord::ClockSample {
                    agent,
                    agent_time,
                    server_time,
                } => sync.record(
                    agent,
                    ClockSample {
                        agent_time,
                        server_time,
                    },
                ),
                WalRecord::SyncState {
                    agent,
                    sum_diff,
                    count,
                } => sync.restore(agent, sum_diff, count),
                row => unreachable!("a clock row: {row:?}"),
            }
            report.replayed_clock_samples += 1;
        }
        store.apply_frame(frame, snap_seq, &mut applied);
    })?;
    m.replay_micros.record_duration(started.elapsed());
    report.replayed_entities = applied.entities;
    report.replayed_events = applied.events;
    report.skipped_rows = applied.rejected.len();
    report.torn_bytes = scan.torn_bytes;
    // Falling back past an unreadable newer snapshot is only safe while
    // the log still holds every record from the snapshot we *did* load up
    // to at least the unreadable one's covered seq — the crash-mid-
    // checkpoint case. If the newer snapshot's checkpoint pruned the log
    // (first surviving seq leaves a gap) or the log is itself torn before
    // reaching that seq, records known to have been acknowledged exist
    // nowhere else, and returning a store silently missing them would be
    // worse than failing loudly.
    if corrupt_snapshots > 0 {
        let covered_by_log = match log_span {
            Some((first, last)) => first <= snap_seq + 1 && last >= newest_covered,
            None => newest_covered <= snap_seq,
        };
        if !covered_by_log {
            return Err(corrupt(format!(
                "snapshot covering seq {newest_covered} is unreadable and the log no longer \
                 holds every record after seq {snap_seq}; records in between are unrecoverable"
            )));
        }
    }
    Ok(Recovered {
        store,
        sync,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header whose layout tag says "unpartitioned" or whose index flag
    /// says "unindexed" — values format v3 defined and the store no longer
    /// builds — is refused as corrupt, even under a valid checksum.
    #[test]
    fn unpartitioned_or_unindexed_header_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("aiql-persist-header-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let path = write_snapshot(&store, &dir, 0).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert!(load_snapshot(&path).is_ok());
        // Magic, covered WAL seq, layout tag, agent group size, index flag.
        let layout_at = SNAPSHOT_MAGIC.len() + 8;
        let indexes_at = layout_at + 1 + 4;
        assert_eq!((bytes[layout_at], bytes[indexes_at]), (1, 1));
        for at in [layout_at, indexes_at] {
            let mut patched = bytes.clone();
            patched[at] = 0;
            let body = patched.len() - 4;
            let crc = crc32(&patched[..body]);
            patched[body..].copy_from_slice(&crc.to_le_bytes());
            fs::write(&path, &patched).unwrap();
            let err = load_snapshot(&path).expect_err("a v3 value the store no longer builds");
            assert!(
                matches!(err, PersistError::Corrupt(_)),
                "byte {at}: {err:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The retired header slot is skipped whatever it holds: a snapshot
    /// whose slot reads 5 (as one written with a routing count of 5 does)
    /// loads into the store its slot-0 twin loads into.
    #[test]
    fn retired_slot_is_skipped_whatever_it_holds() {
        let dir = std::env::temp_dir().join(format!("aiql-persist-retired-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let a = aiql_model::AgentId(1);
        let p = aiql_model::Entity::process(1.into(), a, "a.exe", 7);
        let f = aiql_model::Entity::file(2.into(), a, "/tmp/x");
        store.append_entity(&p).unwrap();
        store.append_entity(&f).unwrap();
        let ev = aiql_model::Event::new(
            3.into(),
            a,
            p.id,
            aiql_model::OpType::Write,
            f.id,
            aiql_model::EntityKind::File,
            aiql_model::Timestamp::from_ymd(2017, 1, 1).unwrap(),
        );
        store.append_event(&ev).unwrap();
        let path = write_snapshot(&store, &dir, 0).unwrap();
        let original = fs::read(&path).unwrap();
        // Magic, covered WAL seq, layout tag, agent group size, index
        // flag, columnar flag: then the retired slot.
        let at = SNAPSHOT_MAGIC.len() + 8 + 1 + 4 + 1 + 1;
        assert_eq!(original[at..at + 4], RETIRED_SLOT.to_le_bytes());
        let mut patched = original.clone();
        patched[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
        let body = patched.len() - 4;
        let crc = crc32(&patched[..body]);
        patched[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &patched).unwrap();
        let (loaded, covered) = load_snapshot(&path).expect("the slot is not read");
        assert_eq!((covered, loaded.stamp()), (0, store.stamp()));
        let path = write_snapshot(&loaded, &dir, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), original, "rewritten with slot 0");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A header whose entity count disagrees with the three entity tables'
    /// rows, under a valid checksum, is refused as corrupt — as one whose
    /// event count disagrees with the events table is.
    #[test]
    fn entity_count_disagreeing_with_the_tables_is_corrupt() {
        let dir =
            std::env::temp_dir().join(format!("aiql-persist-entities-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let p = aiql_model::Entity::process(1.into(), aiql_model::AgentId(1), "a.exe", 7);
        store.append_entity(&p).unwrap();
        let path = write_snapshot(&store, &dir, 0).unwrap();
        assert!(load_snapshot(&path).is_ok());
        let mut patched = fs::read(&path).unwrap();
        // Magic, covered WAL seq, layout tag, agent group size, index
        // flag, columnar flag, retired slot, epoch, event count.
        let at = SNAPSHOT_MAGIC.len() + 8 + 1 + 4 + 1 + 1 + 4 + 8 + 8;
        assert_eq!(patched[at..at + 8], 1u64.to_le_bytes());
        patched[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
        let body = patched.len() - 4;
        let crc = crc32(&patched[..body]);
        patched[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &patched).unwrap();
        let err = load_snapshot(&path).expect_err("two entities promised, one stored");
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A table header promising 2^40 rows in 2^40 sealed chunks, under a
    /// valid checksum, is refused as invalid data rather than reserved for.
    #[test]
    fn huge_table_counts_are_invalid_data() {
        let dir = std::env::temp_dir().join(format!("aiql-persist-counts-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = EventStore::empty(StoreConfig::partitioned()).unwrap();
        let path = write_snapshot(&store, &dir, 0).unwrap();
        let mut patched = fs::read(&path).unwrap();
        // Magic, covered WAL seq, layout tag, agent group size, index
        // flag, columnar flag, retired slot, epoch, event and entity
        // counts, an empty dictionary; then the events table (kind 1, no
        // partitions) and the first table header: `processes`' (kind 0,
        // chunk size, rows, sealed chunks).
        let events_at = SNAPSHOT_MAGIC.len() + 8 + 1 + 4 + 1 + 1 + 4 + 8 + 8 + 8 + 4;
        let header_at = events_at + 1 + 8 + 1;
        assert_eq!((patched[events_at], patched[header_at - 1]), (1, 0));
        let chunk_rows = aiql_rdb::DEFAULT_CHUNK_ROWS as u64;
        assert_eq!(patched[header_at..header_at + 8], chunk_rows.to_le_bytes());
        for (i, v) in [chunk_rows, 1 << 40, 1 << 40].into_iter().enumerate() {
            let at = header_at + 8 * i;
            patched[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        let body = patched.len() - 4;
        let crc = crc32(&patched[..body]);
        patched[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &patched).unwrap();
        let err = load_snapshot(&path).expect_err("counts past the file");
        assert!(
            matches!(&err, PersistError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
