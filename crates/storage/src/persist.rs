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
//! configuration, the shared string dictionary (in code order), every
//! table's row data, and the columnar block metadata ([`aiql_rdb::snapshot`]).
//! It is written to a temp file and renamed into place, so a crash during
//! snapshotting leaves the previous snapshot intact. The file name encodes
//! the write-ahead-log sequence number the snapshot covers.
//!
//! **Recovery** ([`recover`]) loads the newest snapshot that validates,
//! then replays the WAL tail: *event and entity* records with a sequence
//! number at or below the snapshot's are skipped (they are already folded
//! in — this is what makes a crash *between* snapshot and log truncation
//! harmless), the rest are re-applied — as the segment scan yields them,
//! never collected first — through [`EventStore::apply`], the same function
//! a live flush applies its logged rows with (so partitions, indexes, and
//! projections rebuild through the same single-source-of-truth machinery
//! as live ingestion). Clock-sample /
//! synchronizer-state records rebuild the time-synchronization estimates
//! and are replayed regardless of the snapshot boundary — the snapshot
//! carries no synchronizer state, and a checkpointed seed *replaces* the
//! estimate it already folds, so replaying both is exact.
//! A torn final WAL record — the signature of a crash mid-write — is
//! tolerated and reported, never fatal.

use crate::timesync::{ClockSample, Synchronizer};
use crate::{columnar_spec_for, schema, EventStore, Layout, RowRef, StoreConfig};
use aiql_model::{codec, SharedDict};
use aiql_rdb::{
    snapshot as rsnap, ColumnarSpec, Database, PartitionSpec, RdbError, Schema, TableSlot,
};
use aiql_wal::{crc32, WalRecord};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file (format version 3: the store
/// configuration carries the execution-shard count; version 2 added the
/// chunked table layout — per-table chunk boundaries and per-chunk
/// columnar block metadata. Older versions are not readable).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AIQLSNP3";

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

/// The four store tables in their fixed snapshot order.
const TABLE_ORDER: [&str; 4] = [
    schema::EVENTS,
    schema::PROCESSES,
    schema::FILES,
    schema::NETCONNS,
];

fn schema_for(table: &str) -> Schema {
    match table {
        schema::EVENTS => schema::events_schema(),
        schema::PROCESSES => schema::processes_schema(),
        schema::FILES => schema::files_schema(),
        schema::NETCONNS => schema::netconns_schema(),
        other => unreachable!("unknown table {other}"),
    }
}

fn indexes_for(config: StoreConfig, table: &str) -> Vec<String> {
    if !config.with_indexes {
        return Vec::new();
    }
    schema::index_plan()
        .into_iter()
        .filter(|(t, _)| *t == table)
        .map(|(_, c)| c.to_string())
        .collect()
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

    let (layout_tag, group) = match store.config.layout {
        Layout::Monolithic => (0u8, 0u32),
        Layout::Partitioned { agent_group_size } => (1u8, agent_group_size),
    };
    codec::write_u8(&mut buf, layout_tag)?;
    codec::write_u32(&mut buf, group)?;
    codec::write_u8(&mut buf, store.config.with_indexes as u8)?;
    codec::write_u8(&mut buf, store.config.columnar as u8)?;
    codec::write_u32(&mut buf, store.config.shards)?;
    codec::write_u64(&mut buf, store.epoch)?;
    codec::write_u64(&mut buf, store.event_count as u64)?;
    codec::write_u64(&mut buf, store.entity_count as u64)?;

    let strings = store.dict.strings();
    codec::write_u32(&mut buf, strings.len() as u32)?;
    for s in &strings {
        codec::write_str(&mut buf, s)?;
    }

    for table in TABLE_ORDER {
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
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body = &bytes[..bytes.len() - 4];
    let want = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != want {
        return Err(corrupt("CRC mismatch"));
    }

    let mut r = &body[SNAPSHOT_MAGIC.len()..];
    let wal_seq = codec::read_u64(&mut r)?;
    let layout_tag = codec::read_u8(&mut r)?;
    let agent_group_size = codec::read_u32(&mut r)?;
    let layout = match layout_tag {
        0 => Layout::Monolithic,
        1 => Layout::Partitioned { agent_group_size },
        tag => return Err(corrupt(format!("unknown layout tag {tag}"))),
    };
    let config = StoreConfig {
        layout,
        with_indexes: codec::read_u8(&mut r)? != 0,
        columnar: codec::read_u8(&mut r)? != 0,
        shards: codec::read_u32(&mut r)?,
    };
    let epoch = codec::read_u64(&mut r)?;
    let event_count = codec::read_u64(&mut r)? as usize;
    let entity_count = codec::read_u64(&mut r)? as usize;

    let dict = SharedDict::new();
    let n_strings = codec::read_u32(&mut r)?;
    for _ in 0..n_strings {
        dict.intern(&codec::read_str(&mut r)?);
    }

    let mut db = Database::new();
    for table in TABLE_ORDER {
        let spec_holder: Option<ColumnarSpec> = config.columnar.then(|| columnar_spec_for(table));
        let columnar = spec_holder.as_ref().map(|s| (s, &dict));
        let indexes = indexes_for(config, table);
        let slot = match codec::read_u8(&mut r)? {
            0 => TableSlot::Plain(std::sync::Arc::new(rsnap::read_table(
                &mut r,
                schema_for(table),
                &indexes,
                columnar,
            )?)),
            1 => {
                let Layout::Partitioned { agent_group_size } = config.layout else {
                    return Err(corrupt("partitioned table in a monolithic snapshot"));
                };
                TableSlot::Partitioned(rsnap::read_partitioned(
                    &mut r,
                    schema_for(table),
                    PartitionSpec::new("start_time", "agentid", agent_group_size),
                    &indexes,
                    columnar,
                )?)
            }
            tag => return Err(corrupt(format!("unknown table kind {tag}"))),
        };
        db.attach(table, slot)?;
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
    /// Bytes discarded after the last valid WAL record (a torn final
    /// record from a crash mid-write; 0 on a clean shutdown).
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
/// visitor that applies each record *as the scan yields it* — the tail is
/// never materialised. The durable store passes the scan that opening its
/// log for writing performs anyway ([`aiql_wal::WalLock::open`], which
/// positions the writer and truncates any torn tail), so recovery reads
/// every segment exactly once.
pub fn recover_with_replay(
    dir: &Path,
    replay: impl FnOnce(&mut dyn FnMut(u64, WalRecord)) -> io::Result<aiql_wal::Scan>,
) -> Result<Recovered, PersistError> {
    let mut candidates = snapshot_files(dir)?;
    let newest_covered = candidates.last().map_or(0, |(seq, _)| *seq);
    let mut corrupt_snapshots = 0;
    let mut loaded = None;
    while let Some((_, path)) = candidates.pop() {
        match load_snapshot(&path) {
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
    // First and last sequence number the log holds (for the coverage check
    // below).
    let mut log_span: Option<(u64, u64)> = None;
    let scan = replay(&mut |seq, rec| {
        log_span = Some((log_span.map_or(seq, |(first, _)| first), seq));
        let row = match &rec {
            // Clock records ignore the snapshot boundary: the snapshot
            // itself carries no synchronizer state (it lives only in the
            // log), and a checkpoint renames the snapshot into place
            // *before* the SyncState seed is durable — skipping records at
            // or below the snapshot's seq would lose every estimate in
            // that crash window. Replaying a sample alongside its seed is
            // harmless: the seed already folds every earlier clock record
            // in the log, and restore() *replaces* the estimate with it.
            WalRecord::ClockSample {
                agent,
                agent_time,
                server_time,
            } => {
                sync.record(
                    *agent,
                    ClockSample {
                        agent_time: *agent_time,
                        server_time: *server_time,
                    },
                );
                report.replayed_clock_samples += 1;
                return;
            }
            WalRecord::SyncState {
                agent,
                sum_diff,
                count,
            } => {
                sync.restore(*agent, *sum_diff, *count);
                report.replayed_clock_samples += 1;
                return;
            }
            _ if seq <= snap_seq => return,
            WalRecord::Event(ev) => RowRef::Event(ev),
            WalRecord::Entity(e) => RowRef::Entity(e),
        };
        match (store.apply(row), row) {
            (Ok(_), RowRef::Event(_)) => report.replayed_events += 1,
            (Ok(_), RowRef::Entity(_)) => report.replayed_entities += 1,
            (Err(_), _) => report.skipped_rows += 1,
        }
    })?;
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
