//! Append-only, CRC-checksummed, segmented write-ahead log with group
//! commit.
//!
//! The durable store logs every accepted flush here *before* applying it
//! in memory, so a crash loses at most the un-synced tail of the log. The
//! format is deliberately simple and self-describing:
//!
//! - the log is a directory of fixed-prefix segment files
//!   (`seg-00000001.wal`, `seg-00000002.wal`, …), rolled over once the
//!   active segment has reached [`WalOptions::segment_bytes`];
//! - each record is framed as `[u32 payload length][u32 CRC-32 of the
//!   payload][payload]`, where the payload is a `u64` monotone sequence
//!   number followed by a tagged [`WalRecord`] body (length-prefixed
//!   binary encoding, see [`aiql_model::codec`]);
//! - recovery ([`replay`], [`replay_with`]) reads segments in order and
//!   stops at the first frame that fails validation — a torn final record
//!   (partial header, short payload, CRC mismatch, or a non-monotone
//!   sequence number) is *tolerated*: everything before it is returned,
//!   the damage is reported as `torn_bytes`, and reopening the log for
//!   writing truncates the torn bytes away so the next append lands on a
//!   clean boundary.
//!
//! **Group commit.** The unit of durability is the *flush*: everything
//! appended between two [`Wal::sync`] calls. An append only assigns the
//! sequence number and encodes the checksummed frame into a pending
//! buffer; `sync` hands that buffer to the segment in one `write(2)` and
//! then fsyncs. (A caller that appends more than ≈ 1 MiB without syncing
//! has the buffer written early, unsynced, so memory stays bounded.) One
//! invariant governs every failure: **the segment holds a synced prefix
//! plus at most the current flush**.
//!
//! - A failed write — which may have left half a buffer behind — discards
//!   the *whole* flush: the segment is truncated back to its last synced
//!   length and the sequence rewinds to the last synced number, so the
//!   retried flush lands where replay reaches it, with the numbers it
//!   would have had. If the truncation itself fails the handle is
//!   poisoned and refuses appends.
//!   An early write fails from inside an append, so an append can fail two
//!   ways — this record was refused and the flush stands, or the log
//!   failed and the flush is gone — and [`AppendError`] tells them apart
//!   by type.
//! - A failed fsync poisons the handle: the kernel may have dropped the
//!   dirty pages, so a retried fsync that reports `Ok` would acknowledge
//!   lost data. Reopening re-reads what is actually durable.
//! - Segments roll over only at a synced boundary (before the first append
//!   of a flush), so a segment may overshoot `segment_bytes` by one flush
//!   but a flush is never half in a closed segment.
//!
//! Sequence numbers never reset, even across [`Wal::truncate`] (the
//! snapshot-boundary operation that deletes all segments): a snapshot
//! records the sequence number it covers, and replay skips records at or
//! below it, so a crash *between* writing a snapshot and truncating the
//! log cannot double-apply records.
//!
//! Directory entries are fsynced ([`fsync_dir`]) whenever segments are
//! created or removed, so an acknowledged record cannot vanish with its
//! segment's dir entry after power loss while a later deletion survives.

mod crc;
mod metrics;
mod record;

pub use aiql_fault::DirSync;
pub use crc::crc32;
pub use record::WalRecord;

use aiql_fault::FaultFile;
use std::fs::{self, File, OpenOptions};
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};

/// Hard cap on one record's payload, guarding recovery against a corrupt
/// length field.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes of framing per record (length + CRC).
const FRAME_HEADER: usize = 8;

/// Pending frames beyond this are written early (unsynced), so a caller
/// that appends without syncing buffers at most this much plus one frame.
/// A shipment-sized flush (≈ 110 KB) never reaches it.
const PENDING_LIMIT: usize = 1 << 20;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".wal";

/// Advisory lock file guarding single-writer access to a log directory.
const LOCK_FILE: &str = "wal.lock";

/// Write-ahead log tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Roll to a new segment file at the first synced boundary at which
    /// the active one has reached this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// What scanning a log directory found, besides the records themselves.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Scan {
    /// Bytes discarded after the last valid record (0 on a clean log).
    pub torn_bytes: u64,
    /// Segment files scanned.
    pub segments: usize,
}

/// The outcome of scanning a log directory, records collected.
#[derive(Debug, Default)]
pub struct Replay {
    /// All valid records in append order, with their sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// What the scan found besides them.
    pub scan: Scan,
}

impl Replay {
    /// Whether the log ended mid-record (the crash case recovery tolerates).
    pub fn is_torn(&self) -> bool {
        self.scan.torn_bytes > 0
    }

    /// The highest sequence number seen (0 when the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map(|(s, _)| *s).unwrap_or(0)
    }
}

/// A log's rejection of one append.
#[derive(Debug)]
pub enum AppendError {
    /// The codec refused *this record* (a field or the payload over its
    /// cap) before a byte of it was buffered: the record leaves nothing
    /// behind and consumes no sequence number, the rest of the flush
    /// stands, and appending the same record again can never succeed.
    Rejected(io::Error),
    /// The log itself failed — a poisoned handle, a rollover, or the early
    /// write of a flush past ≈ 1 MiB: the whole flush is discarded (see
    /// [`Wal::discard_flush`]) and nothing of it may be acknowledged.
    Log(io::Error),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::Rejected(e) => write!(f, "record rejected by wal codec: {e}"),
            AppendError::Log(e) => write!(f, "wal append failed: {e}"),
        }
    }
}

impl std::error::Error for AppendError {}

impl From<AppendError> for io::Error {
    fn from(e: AppendError) -> io::Error {
        match e {
            AppendError::Rejected(e) | AppendError::Log(e) => e,
        }
    }
}

/// Fsyncs a directory, making creations, removals, and renames of its
/// entries durable. Syncing file *data* alone does not cover the directory
/// entry: after power loss a fully-synced segment or snapshot could simply
/// not be in the directory any more, while a deletion made after it sticks.
///
/// On platforms where directories cannot be opened for fsync this returns
/// [`DirSync::Unsupported`] instead of silently succeeding — the degraded
/// durability is counted (`aiql_wal_dir_sync_unsupported_total`) and warned
/// about once per process, and callers that need stronger guarantees can
/// inspect the returned capability signal.
pub fn fsync_dir(dir: impl AsRef<Path>) -> io::Result<DirSync> {
    fsync_dir_at(dir, "wal.dir.sync")
}

/// [`fsync_dir`] crossing a caller-named faultpoint — the storage layer
/// uses this to distinguish its directory syncs (`persist.dir.sync`) from
/// the WAL's own (`wal.dir.sync`) under fault injection.
pub fn fsync_dir_at(dir: impl AsRef<Path>, point: &str) -> io::Result<DirSync> {
    let outcome = aiql_fault::fs::fsync_dir(dir.as_ref(), point)?;
    if outcome == DirSync::Unsupported {
        metrics::metrics().dir_sync_unsupported.inc();
        static WARN: std::sync::Once = std::sync::Once::new();
        WARN.call_once(|| {
            eprintln!(
                "aiql-wal: this platform cannot fsync directories; \
                 segment/snapshot creations and removals may not be durable \
                 across power loss"
            );
        });
    }
    Ok(outcome)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

/// Sorted `(index, path)` list of the segment files in `dir`.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
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
        if let Some(idx) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Scans one segment's bytes, handing each valid record to `visit` as it
/// is decoded. Returns the byte offset just past the last valid record and
/// whether scanning stopped early (torn/corrupt tail). `prev_seq` enforces
/// cross-segment monotonicity.
fn scan_segment(
    bytes: &[u8],
    prev_seq: &mut u64,
    visit: &mut impl FnMut(u64, WalRecord),
) -> (usize, bool) {
    let mut at = 0usize;
    while at + FRAME_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_PAYLOAD || at + FRAME_HEADER + len as usize > bytes.len() {
            return (at, true);
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len as usize];
        if crc32(payload) != crc {
            return (at, true);
        }
        let mut cursor = payload;
        let seq = match aiql_model::codec::read_u64(&mut cursor) {
            Ok(s) => s,
            Err(_) => return (at, true),
        };
        if seq <= *prev_seq {
            return (at, true);
        }
        let rec = match WalRecord::decode(&mut cursor) {
            Ok(r) => r,
            Err(_) => return (at, true),
        };
        *prev_seq = seq;
        visit(seq, rec);
        at += FRAME_HEADER + len as usize;
    }
    (at, at < bytes.len())
}

/// What [`scan_log`] found.
struct Scanned {
    scan: Scan,
    /// The highest sequence number seen (0 on an empty log).
    last_seq: u64,
    /// `(index, valid length)` of the last segment holding reachable
    /// records; `None` when the log has no segment.
    end: Option<(u64, u64)>,
}

/// Scans the segments of `dir` in order, handing every valid record to
/// `visit` as it is decoded, and stops validating at the first bad frame:
/// the rest of that segment and every later segment are unreachable and
/// count toward [`Scan::torn_bytes`]. With `repair` the unreachable bytes
/// are also removed — the torn segment truncated to its valid length, the
/// segments after it deleted — so the next append lands on a clean
/// boundary.
fn scan_log(
    dir: &Path,
    repair: bool,
    visit: &mut impl FnMut(u64, WalRecord),
) -> io::Result<Scanned> {
    let segments = segment_files(dir)?;
    let mut out = Scanned {
        scan: Scan {
            torn_bytes: 0,
            segments: segments.len(),
        },
        last_seq: 0,
        end: None,
    };
    let mut stopped = false;
    for (idx, path) in &segments {
        if stopped {
            out.scan.torn_bytes += fs::metadata(path)?.len();
            if repair {
                aiql_fault::fs::remove_file(path, "wal.segment.remove")?;
            }
            continue;
        }
        let bytes = aiql_fault::fs::read(path, "wal.segment.read")?;
        let (valid_end, torn) = scan_segment(&bytes, &mut out.last_seq, visit);
        out.end = Some((*idx, valid_end as u64));
        if torn {
            out.scan.torn_bytes += (bytes.len() - valid_end) as u64;
            if repair {
                aiql_fault::fs::truncate(path, valid_end as u64, "wal.segment.truncate")?;
            }
            stopped = true;
        }
    }
    Ok(out)
}

/// Reads the log directory in order, handing every valid record to `visit`
/// as its segment is scanned — nothing is collected, so a recovery that
/// applies records as they arrive holds one segment's bytes at a time.
///
/// A missing directory is an empty log. Validation stops at the first bad
/// frame; everything after it (including later segments) counts toward
/// [`Scan::torn_bytes`]. Nothing on disk is touched.
pub fn replay_with(
    dir: impl AsRef<Path>,
    mut visit: impl FnMut(u64, WalRecord),
) -> io::Result<Scan> {
    Ok(scan_log(dir.as_ref(), false, &mut visit)?.scan)
}

/// [`replay_with`], collecting the records.
pub fn replay(dir: impl AsRef<Path>) -> io::Result<Replay> {
    let mut records = Vec::new();
    let scan = replay_with(dir, |seq, rec| records.push((seq, rec)))?;
    Ok(Replay { records, scan })
}

/// The single-writer lock on a log directory, taken but the segments not
/// yet scanned ([`Wal::lock`]). The durable store takes it *before*
/// touching any store file and scans the log only once its snapshot is
/// loaded, so the records can be applied as the scan yields them.
#[derive(Debug)]
pub struct WalLock {
    dir: PathBuf,
    lock: File,
}

impl WalLock {
    /// Scans the segments — handing every valid record to `visit` —
    /// truncates any torn tail, and positions the writer after the last
    /// valid record. Opening must scan anyway to find the valid prefix, so
    /// a caller that recovers *and* keeps writing gets the records from
    /// that single pass. [`Scan::torn_bytes`] reports what was truncated
    /// away (a crash mid-write); a later [`replay`] sees a clean log.
    pub fn open(
        self,
        options: WalOptions,
        mut visit: impl FnMut(u64, WalRecord),
    ) -> io::Result<(Wal, Scan)> {
        let WalLock { dir, lock } = self;
        let found = scan_log(&dir, true, &mut visit)?;
        let (segment_index, synced_len) = found.end.unwrap_or((1, 0));
        let file = open_segment(&dir, segment_index)?;
        // Make the active segment's directory entry (and any torn-tail
        // removals above) durable before a single record is acknowledged.
        fsync_dir(&dir)?;
        let wal = Wal {
            dir,
            options,
            file,
            segment_index,
            synced_len,
            written: 0,
            synced_seq: found.last_seq + 1,
            next_seq: found.last_seq + 1,
            pending: Vec::new(),
            pending_records: 0,
            poisoned: false,
            _lock: lock,
        };
        Ok((wal, found.scan))
    }
}

/// Enforces the replay-side payload cap at write time: an oversized frame
/// would be fsync-acknowledged yet read back as a tear, and reopen would
/// then destroy it and every acknowledged record after it.
fn checked_payload_len(len: usize) -> io::Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|len| *len <= MAX_PAYLOAD)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("wal record payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"),
            )
        })
}

fn open_segment(dir: &Path, index: u64) -> io::Result<FaultFile> {
    let mut options = OpenOptions::new();
    options.create(true).append(true);
    let mut file = FaultFile::open(&segment_path(dir, index), &options, "wal.segment")?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

/// The append handle of a write-ahead log directory.
///
/// Opening positions the writer after the last *valid* record (truncating
/// any torn tail); appends encode frames into the current flush's buffer,
/// and [`Wal::sync`] — one `write(2)`, one fsync — is the durability
/// point: a record is acknowledged only once the segment has been fsynced
/// past it.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: FaultFile,
    segment_index: u64,
    /// Length of the active segment as of the last sync: every byte below
    /// it is acknowledged, every byte above it belongs to the current
    /// flush.
    synced_len: u64,
    /// Bytes of the current flush already written past `synced_len`
    /// (non-zero only after an early write at [`PENDING_LIMIT`]).
    written: u64,
    /// `next_seq` as of the last sync — what discarding the flush rewinds
    /// to.
    synced_seq: u64,
    next_seq: u64,
    /// Encoded frames of the current flush not yet written.
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    /// Set when an fsync failed, or a failed write left bytes of a
    /// discarded flush in the segment and truncating them away failed too;
    /// every later append is refused.
    poisoned: bool,
    /// Advisory single-writer lock, held for the handle's lifetime (the
    /// OS releases it on drop or process death, so a crash never leaves a
    /// stale lock behind).
    _lock: File,
}

impl Wal {
    /// Takes the single-writer lock on the log at `dir` (creating the
    /// directory), without reading a segment yet.
    ///
    /// Fails with [`io::ErrorKind::WouldBlock`] when another live handle —
    /// in this process or any other — already has the log open for
    /// writing: two writers interleaving frames in one append-mode segment
    /// would produce duplicate sequence numbers, which replay treats as a
    /// tear, silently discarding fsync-acknowledged records behind it.
    pub fn lock(dir: impl AsRef<Path>) -> io::Result<WalLock> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // The log directory's own entry must be durable in its parent, or
        // a store's very first life could lose every acknowledged record
        // with the unsynced `wal/` entry itself.
        if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            fsync_dir(parent)?;
        }
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => Ok(WalLock { dir, lock }),
            Err(fs::TryLockError::WouldBlock) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "write-ahead log at {} is locked by another writer",
                    dir.display()
                ),
            )),
            Err(fs::TryLockError::Error(e)) => Err(e),
        }
    }

    /// Opens (or creates) the log at `dir` for appending: [`Wal::lock`]
    /// then [`WalLock::open`], records ignored.
    pub fn open(dir: impl AsRef<Path>, options: WalOptions) -> io::Result<Wal> {
        let (wal, _) = Wal::lock(dir)?.open(options, |_, _| {})?;
        Ok(wal)
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last appended record (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a failed fsync or failed truncate-to-synced has poisoned
    /// this handle (every later append/sync is refused; reopening the log
    /// is the only way back to a trustworthy writer).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn poison(&mut self) {
        if !self.poisoned {
            self.poisoned = true;
            metrics::metrics().poisoned.inc();
        }
    }

    fn refuse_if_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal handle poisoned: a previous failure may have lost appended records",
            ));
        }
        Ok(())
    }

    /// Ensures the next append's sequence number is at least `min_next`.
    ///
    /// Opening infers the sequence from the records on disk, which is
    /// wrong after a checkpoint that left the log *empty*: nothing on disk
    /// remembers how far the stream got, the sequence would restart at 1,
    /// and recovery would then skip the "new" records as already covered
    /// by the snapshot. The durable store therefore reserves `snapshot's
    /// covered seq + 1` right after opening (before any append: the
    /// reservation is part of the synced state a discarded flush rewinds
    /// to).
    pub fn reserve_seq(&mut self, min_next: u64) {
        debug_assert_eq!(self.next_seq, self.synced_seq, "reserve before appending");
        self.next_seq = self.next_seq.max(min_next);
        self.synced_seq = self.next_seq;
    }

    /// Appends one record to the current flush, returning its sequence
    /// number. Nothing reaches the segment (short of ≈ 1 MiB of pending
    /// frames) and nothing is durable before the next [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        Ok(self.append_with(|buf| rec.encode(buf))?)
    }

    /// Appends one event record straight from a reference — the hot
    /// ingestion path, skipping the owned [`WalRecord`] intermediary.
    /// [`Wal::try_append_event`] with the two failures flattened into one
    /// `io::Error`, for callers that treat any of them as fatal.
    pub fn append_event(&mut self, ev: &aiql_model::Event) -> io::Result<u64> {
        Ok(self.try_append_event(ev)?)
    }

    /// Appends one entity record straight from a reference; flattened like
    /// [`Wal::append_event`].
    pub fn append_entity(&mut self, e: &aiql_model::Entity) -> io::Result<u64> {
        Ok(self.try_append_entity(e)?)
    }

    /// Appends one event record, telling a record the codec refused (the
    /// flush stands without it) from a log failure (the flush is gone) by
    /// type — an `io::ErrorKind` cannot: a failed `write(2)` may carry any
    /// kind, `InvalidInput` included.
    pub fn try_append_event(&mut self, ev: &aiql_model::Event) -> Result<u64, AppendError> {
        self.append_with(|buf| WalRecord::encode_event_body(buf, ev))
    }

    /// Appends one entity record; errors as [`Wal::try_append_event`].
    pub fn try_append_entity(&mut self, e: &aiql_model::Entity) -> Result<u64, AppendError> {
        self.append_with(|buf| WalRecord::encode_entity_body(buf, e))
    }

    fn append_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> Result<u64, AppendError> {
        self.refuse_if_poisoned().map_err(AppendError::Log)?;
        // Roll over only where nothing is in flight: a flush is never half
        // in a closed segment.
        let in_flight = self.written > 0 || !self.pending.is_empty();
        if !in_flight && self.synced_len > 0 && self.synced_len >= self.options.segment_bytes {
            self.rotate().map_err(AppendError::Log)?;
        }
        let seq = self.next_seq;
        let frame = self.pending.len();
        self.pending.extend_from_slice(&[0u8; FRAME_HEADER]); // patched below
        let encoded = aiql_model::codec::write_u64(&mut self.pending, seq)
            .and_then(|()| encode(&mut self.pending))
            .and_then(|()| checked_payload_len(self.pending.len() - frame - FRAME_HEADER));
        let payload_len = match encoded {
            Ok(len) => len,
            Err(e) => {
                // The codec rejected this record: it leaves no byte behind
                // and consumes no sequence number; the rest of the flush
                // stands.
                self.pending.truncate(frame);
                return Err(AppendError::Rejected(e));
            }
        };
        let crc = crc32(&self.pending[frame + FRAME_HEADER..]);
        self.pending[frame..frame + 4].copy_from_slice(&payload_len.to_le_bytes());
        self.pending[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        self.next_seq = seq + 1;
        self.pending_records += 1;
        metrics::metrics()
            .append_bytes
            .record((self.pending.len() - frame) as u64);
        if self.pending.len() >= PENDING_LIMIT {
            self.write_pending().map_err(AppendError::Log)?;
        }
        Ok(seq)
    }

    /// Hands the pending frames to the segment in one `write(2)`. A
    /// failure discards the whole flush (see [`Wal::discard_flush`]).
    fn write_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.file.write_all(&self.pending) {
            // Part of the buffer may have landed.
            self.abandon_flush(true);
            return Err(e);
        }
        let m = metrics::metrics();
        m.writes.inc();
        m.write_bytes.record(self.pending.len() as u64);
        m.appends.add(self.pending_records);
        self.written += self.pending.len() as u64;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Discards everything appended since the last [`Wal::sync`]: the
    /// pending frames are dropped, bytes of the flush already in the
    /// segment (an early write, or the torn half of a failed one) are
    /// truncated away, and the sequence rewinds — so the same records,
    /// appended again, get the same numbers and land where replay reaches
    /// them. Replay and reopen both stop at a tear, so letting a retried
    /// flush land *behind* one would silently discard it even after its
    /// fsync was acknowledged; if the truncation fails the handle is
    /// poisoned instead.
    pub fn discard_flush(&mut self) {
        self.abandon_flush(self.written > 0);
    }

    fn abandon_flush(&mut self, segment_dirty: bool) {
        self.pending.clear();
        self.pending_records = 0;
        self.next_seq = self.synced_seq;
        self.written = 0;
        // A poisoned handle touches nothing any more: reopening truncates.
        if segment_dirty && !self.poisoned {
            let repaired = self
                .file
                .set_len(self.synced_len)
                .and_then(|()| self.file.sync_data());
            if repaired.is_err() {
                self.poison();
            }
        }
    }

    /// Makes every appended record durable: one `write(2)` of the pending
    /// frames, then an fsync of the active segment. Rolled-over segments
    /// are synced at roll time.
    ///
    /// A failed write discards the flush and leaves the handle usable
    /// (the caller re-appends and syncs again). A failed fsync poisons the
    /// handle: the kernel may discard the dirty pages and clear the error
    /// flag, so a *retried* fsync can report Ok without the records ever
    /// reaching disk — acknowledging data a crash would lose. Reopening
    /// re-reads what is actually durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.refuse_if_poisoned()?;
        self.write_pending()?;
        let start = std::time::Instant::now();
        if let Err(e) = self.file.sync_data() {
            self.poison();
            return Err(e);
        }
        metrics::metrics()
            .fsync_micros
            .record_duration(start.elapsed());
        self.synced_len += self.written;
        self.written = 0;
        self.synced_seq = self.next_seq;
        Ok(())
    }

    /// Syncs the active segment and starts a new one, keeping the old
    /// segments on disk. Half of the snapshot-boundary protocol: rotate,
    /// write whatever must seed the fresh segment, sync, and only then
    /// [`Wal::prune_segments_before_current`] — so a crash at any point
    /// leaves either the old records or their durable replacement.
    ///
    /// A failed fsync of the directory poisons the handle like a failed
    /// fsync of the segment: the new segment's entry may not be durable,
    /// and nothing written into it may be acknowledged.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.file = open_segment(&self.dir, self.segment_index + 1)?;
        self.segment_index += 1;
        self.synced_len = 0;
        if let Err(e) = fsync_dir(&self.dir) {
            self.poison();
            return Err(e);
        }
        metrics::metrics().rollovers.inc();
        Ok(())
    }

    /// Deletes every segment older than the active one (the second half of
    /// the snapshot-boundary protocol; see [`Wal::rotate`]).
    pub fn prune_segments_before_current(&mut self) -> io::Result<()> {
        let mut removed = false;
        for (idx, path) in segment_files(&self.dir)? {
            if idx < self.segment_index {
                aiql_fault::fs::remove_file(&path, "wal.segment.remove")?;
                removed = true;
            }
        }
        if removed {
            fsync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Deletes every old segment and starts a fresh one — `rotate` +
    /// `prune_segments_before_current` in one step, for callers with
    /// nothing to seed into the new segment first. Sequence numbers
    /// continue monotonically, so records appended after the truncation
    /// sort after every snapshot taken before it.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.rotate()?;
        self.prune_segments_before_current()
    }

    /// Total bytes currently on disk across segments (frames still pending
    /// in the current flush's buffer are not on disk).
    pub fn size_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for (_, path) in segment_files(&self.dir)? {
            total += fs::metadata(path)?.len();
        }
        Ok(total)
    }
}

/// Crash-simulation support for tests and benches — not part of the
/// durability API.
pub mod testing {
    use super::*;

    /// Chops `bite` bytes off the end of the newest segment in `dir`,
    /// simulating a crash mid-append (a torn final record). Returns
    /// `false` — having torn nothing — when the log has no segments or the
    /// newest one is too short to survive the bite.
    pub fn tear_last_segment(dir: impl AsRef<Path>, bite: u64) -> io::Result<bool> {
        let Some((_, path)) = segment_files(dir.as_ref())?.pop() else {
            return Ok(false);
        };
        let len = fs::metadata(&path)?.len();
        if len <= bite {
            return Ok(false);
        }
        let f = OpenOptions::new().write(true).open(&path)?;
        f.set_len(len - bite)?;
        f.sync_data()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_fault::{control, FaultKind, FaultPlan};
    use aiql_model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};

    // Every test takes the fault controller first, armed or not: it is
    // process-wide, so a plan armed by one test would otherwise fire in
    // whichever test crosses the faultpoint next.

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aiql-wal-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn event(id: u64, t: i64) -> WalRecord {
        WalRecord::Event(Event::new(
            id.into(),
            AgentId(1),
            2.into(),
            OpType::Write,
            3.into(),
            EntityKind::File,
            Timestamp(t),
        ))
    }

    /// Sequence numbers held by each segment file, in segment order.
    fn segment_contents(dir: &Path) -> Vec<Vec<u64>> {
        let mut prev_seq = 0;
        segment_files(dir)
            .unwrap()
            .iter()
            .map(|(_, path)| {
                let mut seqs = Vec::new();
                let bytes = fs::read(path).unwrap();
                let (end, torn) = scan_segment(&bytes, &mut prev_seq, &mut |seq, _| seqs.push(seq));
                assert!(!torn && end == bytes.len(), "segment ends mid-frame");
                seqs
            })
            .collect()
    }

    /// Every segment's bytes, concatenated in order.
    fn log_bytes(dir: &Path) -> Vec<u8> {
        segment_files(dir)
            .unwrap()
            .iter()
            .flat_map(|(_, path)| fs::read(path).unwrap())
            .collect()
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let _ctl = control();
        let dir = tmp("round-trip");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let recs = vec![
            event(1, 100),
            WalRecord::Entity(Entity::file(9.into(), AgentId(1), "/x")),
            WalRecord::ClockSample {
                agent: AgentId(1),
                agent_time: 0,
                server_time: 50,
            },
            event(2, 200),
        ];
        for r in &recs {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let replay = replay(&dir).unwrap();
        assert!(!replay.is_torn());
        assert_eq!(replay.records.len(), 4);
        assert_eq!(
            replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let got: Vec<&WalRecord> = replay.records.iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs.iter().collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_empty_log() {
        let _ctl = control();
        let replay = replay(tmp("missing")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.scan.segments, 0);
    }

    #[test]
    fn nothing_reaches_the_segment_before_sync_and_one_write_carries_the_flush() {
        let ctl = control();
        let dir = tmp("group-commit");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        ctl.start_trace();
        for i in 1..=50 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        assert_eq!(wal.size_bytes().unwrap(), 0, "appends only encode");
        assert_eq!(wal.last_seq(), 50);
        wal.sync().unwrap();
        let trace = ctl.take_trace();
        assert_eq!(trace, ["wal.segment.write", "wal.segment.sync"]);
        assert_eq!(segment_contents(&dir), [(1..=50).collect::<Vec<u64>>()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_over_only_at_a_synced_boundary() {
        let _ctl = control();
        let dir = tmp("rollover");
        let mut wal = Wal::open(&dir, WalOptions { segment_bytes: 128 }).unwrap();
        // One flush of 20 records overshoots the 128-byte cap many times
        // over and still lands whole in the first segment.
        for i in 1..=20 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(segment_contents(&dir), [(1..=20).collect::<Vec<u64>>()]);
        // The segment is past the cap, so each later flush opens a new one
        // with its first append — two records already exceed 128 bytes —
        // and no flush is split across two segments.
        for flush in 0..3u64 {
            for i in 1..=2 {
                wal.append(&event(20 + flush * 2 + i, 0)).unwrap();
            }
            wal.sync().unwrap();
        }
        drop(wal);
        assert_eq!(
            segment_contents(&dir),
            [
                (1..=20).collect::<Vec<u64>>(),
                vec![21, 22],
                vec![23, 24],
                vec![25, 26]
            ]
        );
        let replay = replay(&dir).unwrap();
        assert_eq!(replay.scan.segments, 4);
        assert_eq!(replay.records.len(), 26);
        assert_eq!(replay.last_seq(), 26);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_reopen() {
        let _ctl = control();
        let dir = tmp("torn");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 1..=5 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Tear the final record: chop a few bytes off the segment.
        assert!(testing::tear_last_segment(&dir, 5).unwrap());

        let r = replay(&dir).unwrap();
        assert!(r.is_torn());
        assert_eq!(r.records.len(), 4, "only the torn final record is lost");

        // Reopening truncates the tear; the next append continues cleanly.
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_seq(), 5, "seq resumes after the last valid record");
        wal.append(&event(99, 99)).unwrap();
        wal.sync().unwrap();
        let r = replay(&dir).unwrap();
        assert!(!r.is_torn());
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.last_seq(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let _ctl = control();
        let dir = tmp("crc");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 1..=3 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Flip one byte in the middle of the last record's payload.
        let seg = segment_files(&dir).unwrap().pop().unwrap().1;
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();

        let r = replay(&dir).unwrap();
        assert!(r.is_torn());
        assert_eq!(r.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_writer_is_locked_out_until_the_first_drops() {
        let _ctl = control();
        let dir = tmp("lock");
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let err = Wal::open(&dir, WalOptions::default()).expect_err("second writer");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(wal);
        Wal::open(&dir, WalOptions::default()).expect("lock released on drop");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Three synced records, then a flush of five equal frames (so half
    /// its buffer ends mid-frame); returns the log.
    fn three_synced_then_five_pending(dir: &Path) -> Wal {
        let mut wal = Wal::open(dir, WalOptions::default()).unwrap();
        for i in 1..=3 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        for i in 4..=8 {
            assert_eq!(wal.append(&event(i, i as i64)).unwrap(), i);
        }
        wal
    }

    #[test]
    fn partial_write_discards_the_flush_and_the_retry_is_byte_identical() {
        let ctl = control();
        let clean = tmp("partial-clean");
        let mut wal = three_synced_then_five_pending(&clean);
        wal.sync().unwrap();
        drop(wal);

        // The flush's only write lands half its buffer — two and a half
        // frames — and errors.
        let dir = tmp("partial");
        let mut wal = three_synced_then_five_pending(&dir);
        ctl.arm(FaultPlan::new().fail("wal.segment.write", 1, FaultKind::PartialWrite));
        wal.sync().expect_err("torn write");
        ctl.disarm();
        assert!(!wal.is_poisoned(), "a failed write is retryable");
        assert_eq!(
            wal.next_seq(),
            4,
            "the whole flush is gone, numbers and all"
        );
        assert_eq!(
            segment_contents(&dir),
            [vec![1, 2, 3]],
            "truncated back to the synced length, not to a frame inside the flush"
        );

        // The caller appends the same flush again: same numbers, and the
        // log ends up byte for byte what the never-faulted run wrote.
        for i in 4..=8 {
            assert_eq!(wal.append(&event(i, i as i64)).unwrap(), i);
        }
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(log_bytes(&dir), log_bytes(&clean));
        assert_eq!(segment_contents(&dir), [(1..=8).collect::<Vec<u64>>()]);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&clean).unwrap();
    }

    #[test]
    fn failed_truncate_after_a_torn_write_poisons() {
        let ctl = control();
        let dir = tmp("poison");
        let mut wal = three_synced_then_five_pending(&dir);
        ctl.arm(
            FaultPlan::new()
                .fail("wal.segment.write", 1, FaultKind::PartialWrite)
                .fail(
                    "wal.segment.truncate",
                    1,
                    FaultKind::Errno(io::ErrorKind::Other),
                ),
        );
        wal.sync().expect_err("torn write");
        ctl.disarm();
        // Torn bytes sit behind the synced prefix and could not be cut
        // away: anything appended now would land where replay never
        // reaches it.
        assert!(wal.is_poisoned());
        wal.append(&event(4, 4))
            .expect_err("poisoned handles refuse");
        wal.sync().expect_err("poisoned handles refuse");
        drop(wal);
        // Reopening cuts the half frame away. The two whole frames before
        // it were never acknowledged but are a prefix of what was
        // submitted, which recovery is allowed to keep.
        let (wal, scan) = Wal::lock(&dir)
            .unwrap()
            .open(WalOptions::default(), |_, _| {})
            .unwrap();
        assert!(scan.torn_bytes > 0);
        assert_eq!(wal.next_seq(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn early_writes_bound_the_buffer_and_are_discarded_with_their_flush() {
        let ctl = control();
        let dir = tmp("early-write");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        wal.sync().unwrap();
        let synced = wal.size_bytes().unwrap();

        // Enough records to cross the pending limit twice, never synced.
        let n = 2 * PENDING_LIMIT as u64 / synced + 10;
        ctl.start_trace();
        for i in 0..n {
            wal.append(&event(2 + i, 0)).unwrap();
        }
        let writes = ctl.take_trace();
        assert_eq!(writes, ["wal.segment.write", "wal.segment.write"]);
        assert!(wal.pending.len() < PENDING_LIMIT);
        assert!(wal.size_bytes().unwrap() >= synced + 2 * PENDING_LIMIT as u64);

        // The third write fails: the early-written megabytes belong to the
        // same unacknowledged flush and go with it.
        ctl.arm(FaultPlan::new().fail(
            "wal.segment.write",
            1,
            FaultKind::Errno(io::ErrorKind::Other),
        ));
        wal.sync().expect_err("write fails");
        ctl.disarm();
        assert_eq!(wal.size_bytes().unwrap(), synced);
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(segment_contents(&dir), [vec![1]]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_early_write_is_a_log_failure_whatever_its_error_kind() {
        let ctl = control();
        let dir = tmp("early-write-kind");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        wal.sync().unwrap();
        let synced = wal.size_bytes().unwrap();

        // write(2) fails with the very kind the codec reports an oversized
        // field with: the caller must still learn that the flush is gone,
        // not that one record was set aside.
        ctl.arm(FaultPlan::new().fail(
            "wal.segment.write",
            1,
            FaultKind::Errno(io::ErrorKind::InvalidInput),
        ));
        let WalRecord::Event(ev) = event(2, 0) else {
            unreachable!()
        };
        let err = (0..2 * PENDING_LIMIT as u64 / synced)
            .find_map(|_| wal.try_append_event(&ev).err())
            .expect("the early write fails");
        ctl.disarm();
        assert!(matches!(err, AppendError::Log(e) if e.kind() == io::ErrorKind::InvalidInput));
        assert_eq!(wal.next_seq(), 2, "the whole flush is discarded");
        assert_eq!(wal.size_bytes().unwrap(), synced);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_record_leaves_no_byte_and_no_sequence_gap() {
        let _ctl = control();
        let dir = tmp("rejected");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        let err = wal
            .append_with(|buf| {
                buf.extend_from_slice(b"half a body");
                Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "field too long",
                ))
            })
            .expect_err("codec rejection");
        assert!(matches!(err, AppendError::Rejected(e) if e.kind() == io::ErrorKind::InvalidInput));
        assert_eq!(wal.append(&event(2, 2)).unwrap(), 2, "no number consumed");
        wal.sync().unwrap();
        drop(wal);
        let r = replay(&dir).unwrap();
        assert!(!r.is_torn());
        assert_eq!(r.records, [(1, event(1, 1)), (2, event(2, 2))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discarded_flush_is_never_written() {
        let _ctl = control();
        let dir = tmp("discard");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        wal.sync().unwrap();
        wal.append(&event(2, 2)).unwrap();
        wal.append(&event(3, 3)).unwrap();
        wal.discard_flush();
        assert_eq!(wal.next_seq(), 2);
        wal.append(&event(4, 4)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(
            replay(&dir).unwrap().records,
            [(1, event(1, 1)), (2, event(4, 4))]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_directory_fsync_at_rollover_poisons() {
        let ctl = control();
        let dir = tmp("dir-sync");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        ctl.arm(FaultPlan::new().fail("wal.dir.sync", 1, FaultKind::Errno(io::ErrorKind::Other)));
        wal.rotate().expect_err("directory fsync fails");
        ctl.disarm();
        assert!(
            wal.is_poisoned(),
            "the new segment's entry may not be durable"
        );
        drop(wal);
        // The record was synced into the old segment before the rollover.
        assert_eq!(replay(&dir).unwrap().records, [(1, event(1, 1))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_yields_the_records_a_standalone_replay_would() {
        let _ctl = control();
        let dir = tmp("open-replay");
        let mut wal = Wal::open(&dir, WalOptions { segment_bytes: 128 }).unwrap();
        for i in 1..=12 {
            wal.append(&event(i, i as i64)).unwrap();
            if i % 4 == 0 {
                wal.sync().unwrap();
            }
        }
        drop(wal);
        // Three flushes of four, each past the cap: three segments.
        assert_eq!(
            segment_contents(&dir),
            [vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]]
        );
        // Tear the tail so the open has damage to report and repair.
        assert!(testing::tear_last_segment(&dir, 3).unwrap());
        let before = replay(&dir).unwrap();
        assert!(before.is_torn());
        assert_eq!(before.records.len(), 11);

        let mut seen = Vec::new();
        let (wal, found) = Wal::lock(&dir)
            .unwrap()
            .open(WalOptions::default(), |seq, rec| seen.push((seq, rec)))
            .unwrap();
        assert_eq!(seen, before.records, "one pass, same records");
        assert_eq!(found, before.scan);
        assert_eq!(wal.next_seq(), before.last_seq() + 1);
        drop(wal);
        assert!(!replay(&dir).unwrap().is_torn(), "open repaired the tear");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_keeps_sequence_monotone() {
        let _ctl = control();
        let dir = tmp("truncate");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 1..=3 {
            wal.append(&event(i, i as i64)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate().unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 0);
        let seq = wal.append(&event(4, 4)).unwrap();
        assert_eq!(seq, 4, "sequence numbers survive truncation");
        wal.sync().unwrap();
        drop(wal);
        let r = replay(&dir).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.last_seq(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
