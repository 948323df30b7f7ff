//! Append-only, CRC-checksummed, segmented write-ahead log with group
//! commit, one column frame per flush.
//!
//! The durable store logs every accepted flush here *before* applying it
//! in memory, so a crash loses at most the un-synced tail of the log. The
//! format is self-describing:
//!
//! - the log is a directory of fixed-prefix segment files
//!   (`seg-00000001.wal`, `seg-00000002.wal`, …), rolled over once the
//!   active segment has reached [`WalOptions::segment_bytes`];
//! - a segment starts with an 8-byte header, `AIQL` then the `u32`
//!   version 2 — a first `u32` above the payload cap, so no version-1
//!   segment starts like one — and holds frames;
//! - each frame is `[u32 payload length][u32 CRC-32 of the payload]
//!   [payload]`, and the payload is one flush's rows as columns: the
//!   first row's `u64` sequence number, the row count of each section,
//!   then the clock-sample, entity and event sections, each a set of
//!   frame-of-reference columns ([`aiql_model::columns`]; the layout is
//!   in `crates/wal/src/frame.rs`). Row `i` of a frame has sequence number
//!   `first + i`: the numbers are per row, and implied;
//! - a version-1 segment (one frame per record, `[u32 length][u32 CRC]
//!   [u64 sequence number][tagged record body]`) still replays; opening a
//!   log whose active segment is version 1 starts a new segment before
//!   the first append, so no segment mixes the two;
//! - recovery ([`replay_with`]) reads segments in order, handing on each
//!   frame decoded into its column lanes ([`ColumnFrame`]; [`replay`]
//!   materialises the rows as [`WalRecord`]s), and
//!   stops at the first frame that fails validation — a torn final frame
//!   (partial header, short payload, CRC mismatch, a payload that does not
//!   decode, or a non-monotone sequence number) is *tolerated*: everything
//!   before it is returned, the damage is reported as `torn_bytes`, and
//!   reopening the log for writing truncates the torn bytes away so the
//!   next append lands on a clean boundary. A frame is dropped whole, so
//!   recovery ends on a flush boundary.
//!
//! **Group commit.** The unit of durability is the *flush*: everything
//! appended between two [`Wal::sync`] calls. An append validates the row,
//! assigns its sequence number and pushes it straight into the open
//! frame's lanes ([`ColumnFrame`], the type a scan decodes into); `sync`
//! writes each lane as a column, checksums the frame, hands it to the
//! segment in one `write(2)` and then fsyncs. A frame keeps its sections
//! in order (clock samples, entities, events), so a row appended after a
//! later section's rows cuts the frame and opens another within the same
//! flush; a flush appended in that order is one frame. (Past ≈ 1 MiB of
//! pending rows the frame is cut and written early, unsynced, so the
//! encoded buffer stays bounded.) After the sync the flush's frames stay
//! readable ([`Wal::frames`]) until the next flush's first append: what
//! the durable store applies, as recovery applies the frames it decodes.
//! A sync with nothing appended since the last one does no I/O. One
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
//!   ways — this row was refused and the flush stands, or the log failed
//!   and the flush is gone — and [`AppendError`] tells them apart by type.
//! - A failed fsync poisons the handle: the kernel may have dropped the
//!   dirty pages, so a retried fsync that reports `Ok` would acknowledge
//!   lost data. Reopening re-reads what is actually durable.
//! - Segments roll over only at a synced boundary (before the first append
//!   of a flush), so a segment may overshoot `segment_bytes` by one flush
//!   but a flush is never half in a closed segment.
//!
//! A frame's bytes are a function of its rows alone (no clock, no hash
//! order), so the same flushes leave the same log.
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
mod frame;
mod metrics;
mod record;

pub use aiql_fault::DirSync;
pub use crc::crc32;
pub use frame::{ColumnFrame, EntityLanes};
pub use record::WalRecord;

use aiql_fault::FaultFile;
use frame::{Row, FRAME_HEADER, MAX_PAYLOAD};
use std::fs::{self, File, OpenOptions};
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};

/// Pending rows (counted by the bytes they may take in a frame) and
/// encoded frames beyond this are written early (unsynced), so a caller
/// that appends without syncing buffers at most this much plus one row.
/// A shipment-sized flush (≈ 100 KB of rows) never reaches it.
const PENDING_LIMIT: usize = 1 << 20;

/// How every version-2 segment starts: `AIQL`, then the version. Read as
/// a `u32`, `AIQL` is above [`MAX_PAYLOAD`], where no version-1 segment's
/// first frame length can be.
const SEGMENT_HEADER: [u8; 8] = *b"AIQL\x02\0\0\0";

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
    /// Bytes discarded after the last valid frame (0 on a clean log).
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
    /// Whether the log ended mid-frame (the crash case recovery tolerates).
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
    /// The codec refused *this record* (a string or attribute count over
    /// its cap, or a row no frame could hold) before it joined the frame:
    /// the record leaves nothing
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

/// Scans one segment's bytes, decoding each valid frame into `frame` and
/// handing it to `visit`. Returns the byte offset just past the last valid
/// frame and whether scanning stopped early (torn/corrupt tail).
/// `prev_seq` enforces cross-segment monotonicity.
fn scan_segment(
    bytes: &[u8],
    prev_seq: &mut u64,
    frame: &mut ColumnFrame,
    visit: &mut impl FnMut(&ColumnFrame),
) -> (usize, bool) {
    let (mut at, v1) = match bytes.get(..4) {
        None => return (0, !bytes.is_empty()),
        Some(head) if head == &SEGMENT_HEADER[..4] => match bytes.get(..SEGMENT_HEADER.len()) {
            Some(header) if header == SEGMENT_HEADER => (SEGMENT_HEADER.len(), false),
            _ => return (0, true),
        },
        Some(_) => (0, true),
    };
    let decode_micros = &metrics::metrics().decode_micros;
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
        let started = std::time::Instant::now();
        let decoded = match v1 {
            true => frame.decode_v1(payload),
            false => frame.decode(payload),
        };
        decode_micros.record_duration(started.elapsed());
        match decoded {
            Ok(()) if frame.first() > *prev_seq => {
                *prev_seq = frame.last();
                visit(frame);
            }
            _ => return (at, true),
        }
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
    /// Whether that segment holds version-1 frames.
    end_is_v1: bool,
}

/// Scans the segments of `dir` in order, handing every valid frame to
/// `visit` as it is decoded, and stops validating at the first bad frame:
/// the rest of that segment and every later segment are unreachable and
/// count toward [`Scan::torn_bytes`]. With `repair` the unreachable bytes
/// are also removed — the torn segment truncated to its valid length, the
/// segments after it deleted — so the next append lands on a clean
/// boundary.
fn scan_log(dir: &Path, repair: bool, visit: &mut impl FnMut(&ColumnFrame)) -> io::Result<Scanned> {
    let segments = segment_files(dir)?;
    let mut out = Scanned {
        scan: Scan {
            torn_bytes: 0,
            segments: segments.len(),
        },
        last_seq: 0,
        end: None,
        end_is_v1: false,
    };
    let mut stopped = false;
    let mut frame = ColumnFrame::default();
    for (idx, path) in &segments {
        if stopped {
            out.scan.torn_bytes += fs::metadata(path)?.len();
            if repair {
                aiql_fault::fs::remove_file(path, "wal.segment.remove")?;
            }
            continue;
        }
        let bytes = aiql_fault::fs::read(path, "wal.segment.read")?;
        let (valid_end, torn) = scan_segment(&bytes, &mut out.last_seq, &mut frame, visit);
        out.end = Some((*idx, valid_end as u64));
        out.end_is_v1 = valid_end > 0 && !bytes.starts_with(&SEGMENT_HEADER);
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

/// Reads the log directory in order, handing each valid frame to `visit`
/// as its segment is scanned — decoded into its column lanes, nothing
/// collected and no record built, so a recovery that applies frames as
/// they arrive holds one segment's bytes and one frame's lanes at a time.
///
/// A missing directory is an empty log. Validation stops at the first bad
/// frame; everything after it (including later segments) counts toward
/// [`Scan::torn_bytes`]. Nothing on disk is touched.
pub fn replay_with(dir: impl AsRef<Path>, mut visit: impl FnMut(&ColumnFrame)) -> io::Result<Scan> {
    Ok(scan_log(dir.as_ref(), false, &mut visit)?.scan)
}

/// [`replay_with`], every row materialised as a [`WalRecord`] and
/// collected: for tests and tools that inspect a log. Recovery applies
/// the frames themselves.
pub fn replay(dir: impl AsRef<Path>) -> io::Result<Replay> {
    let mut records = Vec::new();
    let scan = replay_with(dir, |frame| frame.records(|_| true, &mut records))?;
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
    /// Scans the segments — handing every valid frame to `visit`, as
    /// [`replay_with`] does — truncates any torn tail, and positions the
    /// writer after the last valid record. Opening must scan anyway to find
    /// the valid prefix, so a caller that recovers *and* keeps writing gets
    /// the frames from that single pass. [`Scan::torn_bytes`] reports what was truncated
    /// away (a crash mid-write); a later [`replay`] sees a clean log.
    pub fn open(
        self,
        options: WalOptions,
        mut visit: impl FnMut(&ColumnFrame),
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
            frames: Vec::new(),
            used: 0,
            encoded: 0,
            pending: Vec::new(),
            pending_records: 0,
            v1_active: found.end_is_v1,
            poisoned: false,
            _lock: lock,
        };
        Ok((wal, found.scan))
    }
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
/// any torn tail); appends keep rows in the open frame, and [`Wal::sync`]
/// — encode, one `write(2)`, one fsync — is the durability point: a
/// record is acknowledged only once the segment has been fsynced past it.
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
    /// The current flush's frames, `frames[..used]`, in sequence order:
    /// `frames[..encoded]` are encoded, and `frames[used - 1]` is the open
    /// frame while `encoded < used`. A sync leaves them readable
    /// ([`Wal::frames`]) until the next flush's first append. Frames past
    /// `used` are spare: their lanes' room is reused.
    frames: Vec<ColumnFrame>,
    used: usize,
    encoded: usize,
    /// Encoded frames of the current flush not yet written (and the
    /// segment header, when they are the segment's first bytes).
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    /// Whether the active segment holds version-1 frames: the next append
    /// starts a new segment.
    v1_active: bool,
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
        let (wal, _) = Wal::lock(dir)?.open(options, |_| {})?;
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
    /// rows) and nothing is durable before the next [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        Ok(self.append_row(Row::from(rec))?)
    }

    /// Appends one event record straight from a reference — the hot
    /// ingestion path, skipping the owned [`WalRecord`] intermediary.
    /// [`Wal::try_append_event`] with the two failures flattened into one
    /// `io::Error`, for callers that treat any of them as fatal.
    pub fn append_event(&mut self, ev: &aiql_model::Event) -> io::Result<u64> {
        Ok(self.try_append_event(ev)?)
    }

    /// Appends one event record, telling a record the log refused (the
    /// flush stands without it) from a log failure (the flush is gone) by
    /// type — an `io::ErrorKind` cannot: a failed `write(2)` may carry any
    /// kind, `InvalidInput` included.
    pub fn try_append_event(&mut self, ev: &aiql_model::Event) -> Result<u64, AppendError> {
        self.append_row(Row::Event(ev))
    }

    /// Appends one entity record; errors as [`Wal::try_append_event`].
    pub fn try_append_entity(&mut self, e: &aiql_model::Entity) -> Result<u64, AppendError> {
        self.append_row(Row::Entity(e))
    }

    fn append_row(&mut self, row: Row<'_>) -> Result<u64, AppendError> {
        let checked = row.bytes();
        self.append_checked(row, checked)
    }

    /// Appends `row`, which the caps took at `checked` bytes or refused.
    fn append_checked(
        &mut self,
        row: Row<'_>,
        checked: io::Result<usize>,
    ) -> Result<u64, AppendError> {
        self.refuse_if_poisoned().map_err(AppendError::Log)?;
        // A row the caps refuse leaves nothing behind and consumes no
        // sequence number; the rest of the flush stands.
        let bytes = checked.map_err(AppendError::Rejected)?;
        if self.next_seq == self.synced_seq {
            // The flush's first row: the last flush's frames go. Roll over
            // only here, where nothing is in flight: a flush is never half
            // in a closed segment, and no segment mixes versions.
            (self.used, self.encoded) = (0, 0);
            let full = self.synced_len > 0 && self.synced_len >= self.options.segment_bytes;
            if full || self.v1_active {
                self.rotate().map_err(AppendError::Log)?;
            }
        }
        if self.used == self.encoded || !self.frames[self.used - 1].takes(&row, bytes) {
            self.cut().map_err(AppendError::Log)?;
            if self.frames.len() == self.used {
                self.frames.push(ColumnFrame::default());
            }
            self.frames[self.used].restart(self.next_seq);
            self.used += 1;
        }
        let open = &mut self.frames[self.used - 1];
        open.push(row, bytes);
        let seq = self.next_seq;
        self.next_seq = seq + 1;
        if open.bytes() + self.pending.len() >= PENDING_LIMIT {
            self.cut()
                .and_then(|()| self.write_pending())
                .map_err(AppendError::Log)?;
        }
        Ok(seq)
    }

    /// Encodes the open frame into the pending bytes — behind the segment
    /// header when they are the segment's first — and records its size
    /// and encode time. A failure discards the whole flush.
    fn cut(&mut self) -> io::Result<()> {
        if self.used == self.encoded {
            return Ok(());
        }
        if self.synced_len + self.written == 0 && self.pending.is_empty() {
            self.pending.extend_from_slice(&SEGMENT_HEADER);
        }
        let open = &self.frames[self.used - 1];
        let started = std::time::Instant::now();
        match open.encode(&mut self.pending) {
            Ok(bytes) => {
                let m = metrics::metrics();
                m.encode_micros.record_duration(started.elapsed());
                m.append_bytes.record(bytes as u64);
                self.pending_records += open.rows() as u64;
                self.encoded = self.used;
                Ok(())
            }
            Err(e) => {
                self.abandon_flush(self.written > 0);
                Err(e)
            }
        }
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
    /// flush's frames and its pending bytes are dropped, bytes of it already in the
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
        (self.used, self.encoded) = (0, 0);
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

    /// Makes every appended record durable: the open frame is encoded,
    /// then one `write(2)` of the pending frames and an fsync of the active
    /// segment. Rolled-over segments are synced at roll time. With nothing
    /// appended since the last sync there is nothing to make durable: no
    /// write, no fsync, and no frames left to read.
    ///
    /// A failed write discards the flush and leaves the handle usable
    /// (the caller re-appends and syncs again). A failed fsync poisons the
    /// handle: the kernel may discard the dirty pages and clear the error
    /// flag, so a *retried* fsync can report Ok without the records ever
    /// reaching disk — acknowledging data a crash would lose. Reopening
    /// re-reads what is actually durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.refuse_if_poisoned()?;
        if self.next_seq == self.synced_seq {
            (self.used, self.encoded) = (0, 0);
            return Ok(());
        }
        self.cut()?;
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

    /// The current flush's frames, in sequence order — after a sync, the
    /// frames it made durable, readable until the next flush's first
    /// append or a discard: what a durable store applies.
    pub fn frames(&self) -> &[ColumnFrame] {
        &self.frames[..self.used]
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
        self.v1_active = false;
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

    /// Total bytes currently on disk across segments (rows and frames of
    /// the current flush not yet written are not on disk).
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

    /// Decodes one frame's payload — the bytes after its length and CRC —
    /// into its rows with their sequence numbers, checking nothing the CRC
    /// would: how a test hands the decoder bytes the checksum would refuse.
    pub fn decode_payload(payload: &[u8]) -> io::Result<Vec<(u64, WalRecord)>> {
        let mut frame = ColumnFrame::default();
        frame.decode(payload)?;
        let mut rows = Vec::new();
        frame.records(|_| true, &mut rows);
        Ok(rows)
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
                let mut frame = ColumnFrame::default();
                let (end, torn) = scan_segment(&bytes, &mut prev_seq, &mut frame, &mut |f| {
                    seqs.extend(f.first()..=f.last())
                });
                assert!(!torn && end == bytes.len(), "segment ends mid-frame");
                seqs
            })
            .collect()
    }

    /// Frames across every segment.
    fn segment_frames(dir: &Path) -> usize {
        let mut frames = 0;
        for (_, path) in segment_files(dir).unwrap() {
            let bytes = fs::read(path).unwrap();
            let mut at = SEGMENT_HEADER.len();
            while at < bytes.len() {
                at += FRAME_HEADER
                    + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                frames += 1;
            }
        }
        frames
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
        // A frame keeps its sections in order, so the entity after an
        // event and the clock sample after the entity each cut the frame.
        assert_eq!(segment_frames(&dir), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flush_in_section_order_is_one_frame_numbered_row_by_row() {
        let _ctl = control();
        let dir = tmp("one-frame");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&event(1, 1)).unwrap();
        wal.sync().unwrap();
        let recs = vec![
            WalRecord::ClockSample {
                agent: AgentId(2),
                agent_time: i64::MIN,
                server_time: i64::MAX,
            },
            WalRecord::SyncState {
                agent: AgentId(u32::MAX),
                sum_diff: -7,
                count: 3,
            },
            WalRecord::Entity(Entity::file(9.into(), AgentId(1), "/x")),
            WalRecord::Entity(Entity::process(10.into(), AgentId(1), "sh", 4).with_attr("x", 0.5)),
            event(2, 200),
            event(3, -5),
        ];
        for (seq, r) in (2..).zip(&recs) {
            assert_eq!(wal.append(r).unwrap(), seq);
        }
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(segment_frames(&dir), 2, "one frame a flush");
        let want: Vec<(u64, WalRecord)> = std::iter::once((1, event(1, 1)))
            .chain((2..).zip(recs))
            .collect();
        assert_eq!(replay(&dir).unwrap().records, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_version_1_segment_replays_and_the_next_append_starts_a_version_2_one() {
        let _ctl = control();
        let dir = tmp("v1");
        fs::create_dir_all(&dir).unwrap();
        let old = [
            event(1, 10),
            WalRecord::Entity(Entity::file(9.into(), AgentId(1), "/x")),
            WalRecord::SyncState {
                agent: AgentId(1),
                sum_diff: 5,
                count: 1,
            },
        ];
        let mut v1 = Vec::new();
        for (seq, rec) in (1u64..).zip(&old) {
            let mut payload = seq.to_le_bytes().to_vec();
            record::encode_v1(&mut payload, rec);
            v1.extend((payload.len() as u32).to_le_bytes());
            v1.extend(crc32(&payload).to_le_bytes());
            v1.extend(payload);
        }
        fs::write(segment_path(&dir, 1), &v1).unwrap();

        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_seq(), 4);
        wal.append(&event(4, 40)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(fs::read(segment_path(&dir, 1)).unwrap(), v1, "untouched");
        let v2 = fs::read(segment_path(&dir, 2)).unwrap();
        assert!(v2.starts_with(&SEGMENT_HEADER));
        let want: Vec<(u64, WalRecord)> = (1..).zip(old).chain([(4, event(4, 40))]).collect();
        assert_eq!(replay(&dir).unwrap().records, want);
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
            wal.sync().unwrap();
        }
        drop(wal);

        // Tear the final flush: chop a few bytes off the segment.
        assert!(testing::tear_last_segment(&dir, 5).unwrap());

        let r = replay(&dir).unwrap();
        assert!(r.is_torn());
        assert_eq!(r.records.len(), 4, "only the torn final flush is lost");

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
            wal.sync().unwrap();
        }
        drop(wal);

        // Flip one byte in the middle of the last flush's payload.
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

    /// Three synced records, then a flush of five (one frame, so half its
    /// buffer ends mid-frame); returns the log.
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

        // The flush's only write lands half its buffer — half its one
        // frame — and errors.
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
        // Reopening cuts the half frame away: the flush is one frame, so
        // nothing of it survives.
        let (wal, scan) = Wal::lock(&dir)
            .unwrap()
            .open(WalOptions::default(), |_| {})
            .unwrap();
        assert!(scan.torn_bytes > 0);
        assert_eq!(wal.next_seq(), 4);
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

        // Enough records to cross the pending limit twice, never synced:
        // each early write cuts a frame.
        let n = 2 * PENDING_LIMIT as u64 / 88 + 10;
        ctl.start_trace();
        for i in 0..n {
            wal.append(&event(2 + i, 0)).unwrap();
        }
        let writes = ctl.take_trace();
        assert_eq!(writes, ["wal.segment.write", "wal.segment.write"]);
        assert!(wal.frames[wal.used - 1].bytes() + wal.pending.len() < PENDING_LIMIT);
        assert!(wal.size_bytes().unwrap() > synced);
        assert_eq!(
            segment_frames(&dir),
            3,
            "the synced frame and two cut early"
        );

        // The third write fails: the frames written early belong to the
        // same unacknowledged flush and go with them.
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
        let err = (0..2 * PENDING_LIMIT)
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
        let WalRecord::Event(ev) = event(9, 9) else {
            unreachable!()
        };
        let refused = io::Error::new(io::ErrorKind::InvalidInput, "field too long");
        let err = wal
            .append_checked(Row::Event(&ev), Err(refused))
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
        assert_eq!(before.records.len(), 8, "the torn flush goes whole");

        let mut seen = Vec::new();
        let (wal, found) = Wal::lock(&dir)
            .unwrap()
            .open(WalOptions::default(), |frame| {
                frame.records(|_| true, &mut seen)
            })
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
